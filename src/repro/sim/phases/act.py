"""Act phase: observe reputation states, choose sharing and edit actions."""

from __future__ import annotations

import numpy as np

from ...agents.qlearning import VectorQLearner
from ...core.reputation import ViewMemo, reputation_to_state
from ..config import SimulationConfig
from ..rng import SITE_EDIT, SITE_SHARE, to_below, to_uniform
from ..state import SimState

__all__ = ["act_phase", "observe_states", "pin_actions", "select_rational"]


def observe_states(
    memo: ViewMemo, rep: np.ndarray, ridx: np.ndarray, n_states: int, lo, hi
) -> np.ndarray:
    """The discretized states of ``rep[ridx]`` against the band ``[lo, hi]``.

    The result is memoized under ``rep`` itself: called again with the
    same array object, it returns the states computed before.  The
    reputation schemes hand out one read-only array per state of their
    books, so learn's next states serve the next step's act whenever
    nothing touched the books in between; a scheme that builds a fresh
    array per call (tft, karma) always recomputes.
    """
    if memo.key is not rep:
        memo.value = reputation_to_state(rep[ridx], n_states, lo, hi)
        memo.key = rep
    return memo.value


def select_rational(
    state: SimState,
    learner: VectorQLearner,
    states: np.ndarray,
    temperature,
    site: int,
) -> np.ndarray:
    """Stacked rational action selection from counter-based draws.

    One learner stacks every lane's rational peers (ordered like
    ``state.rational_idx``), so selection is one vectorized call, and
    each rational slot takes its own slot's word of ``site`` at this
    step (one call serves every lane).  ``temperature`` is a scalar (the
    homogeneous fast path) or a per-lane ``(R,)`` array: ``T = inf``
    rows take a uniform integer over the actions, finite rows are
    Boltzmann-sampled with their lane's temperature from the word's
    uniform.
    """
    draws = state.draws
    step = state.step_count
    ridx = state.rational_idx
    if np.ndim(temperature) == 0:
        if temperature == np.inf:
            return draws.integers(step, site, learner.n_actions)[ridx]
        u = draws.uniforms(step, site)[ridx]
        return learner.select_actions(states, temperature, u=u[:, None])

    words = draws.words(step, site)[ridx]
    actions = to_below(words, learner.n_actions)
    t_rows = np.asarray(temperature, dtype=np.float64)[ridx // state.n_agents]
    finite = (t_rows != np.inf).nonzero()[0]
    if finite.size:
        actions[finite] = learner.select_actions(
            states[finite],
            t_rows[finite],
            subset=finite,
            u=to_uniform(words[finite])[:, None],
        )
    return actions


def pin_actions(state: SimState) -> None:
    """Overwrite every pinned slot's selected action with its pin.

    ``state.pin_share`` / ``pin_edit`` hold one action per slot (-1 =
    free); the build pins the fixed behaviour types, which are never
    selected for and so draw nothing.  An online collusion-ring member
    is pinned to the ring policy (all-in sharing, constructive edits and
    votes: reputation farming for the ring) whatever its type; an
    offline one keeps its own action.  Pins replace the action indices
    after selection, so a pinned rational peer still draws, and its
    learner trains on the pinned action.  Vote rigging is not an action
    and lives in the edit/vote kernel.
    """
    ctx = state.ctx
    share, edit = ctx.share_actions, ctx.edit_actions
    np.copyto(share, state.pin_share, where=state.pin_share >= 0)
    np.copyto(edit, state.pin_edit, where=state.pin_edit >= 0)
    if state.collusion_active:
        ring = state.colluder_mask & state.peers.online
        share[ring] = state.sharing_space.max_action
        edit[ring] = state.edit_space.constructive_action


def act_phase(state: SimState, cfg: SimulationConfig, temperature) -> None:
    """Snapshot reputations, select this step's actions, pin and install them.

    Reputation snapshots (``rep_s``/``rep_e``) are taken once here and
    reused by the voting and metrics phases — reputations only move
    between steps.  Their discretized states come from the state's
    memos (:func:`observe_states`): the previous step's learn phase
    already discretized these arrays unless churn, a sybil reset or the
    phase-boundary reset changed the books since.  The rational slots
    take their selections (:func:`select_rational`), the pins apply over
    them (:func:`pin_actions`), and the action indices are decoded once
    into the offers the peers install (masked by online-ness) and the
    edit/vote constructiveness.
    ``temperature`` is a scalar or a per-lane ``(R,)`` array; the
    discretization bounds come from each lane's own reputation band
    (``state.lanes``), both applied per rational slot.
    """
    ctx = state.ctx
    scheme = state.scheme
    lanes = state.lanes
    ctx.rep_s = scheme.reputation_s()
    ctx.rep_e = scheme.reputation_e()
    ridx = state.rational_idx
    ctx.states_s = observe_states(
        state.memo_s, ctx.rep_s, ridx, cfg.n_states, lanes.disc_s_min, lanes.disc_s_max
    )
    ctx.states_e = observe_states(
        state.memo_e, ctx.rep_e, ridx, cfg.n_states, lanes.disc_e_min, lanes.disc_e_max
    )
    ctx.share_actions = state.pin_share.copy()
    ctx.edit_actions = state.pin_edit.copy()
    if ridx.size:
        ctx.share_actions[ridx] = select_rational(
            state, state.sharing_learner, ctx.states_s, temperature, SITE_SHARE
        )
        ctx.edit_actions[ridx] = select_rational(
            state, state.edit_learner, ctx.states_e, temperature, SITE_EDIT
        )
    pin_actions(state)
    bw, files = state.sharing_space.decode(ctx.share_actions)
    online = state.peers.online
    ctx.bw = bw * online
    ctx.files = files * online
    state.peers.set_actions(ctx.bw, ctx.files)
    ctx.edit_constructive, ctx.vote_constructive = state.edit_space.decode(
        ctx.edit_actions
    )
