"""Act phase: observe reputation states, choose sharing and edit actions."""

from __future__ import annotations

import numpy as np

from ...core.reputation import ViewMemo, reputation_to_state
from ..config import SimulationConfig
from ..state import SimState

__all__ = ["act_phase", "install_actions", "observe_states"]


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


def install_actions(state: SimState) -> None:
    """Decode ``ctx``'s action indices and install them on the state.

    Single point of truth for turning ``ctx.share_actions`` /
    ``ctx.edit_actions`` into the derived per-slot arrays (bandwidth and
    file offers masked by online-ness, edit/vote constructiveness) and
    the peers' installed offers.  Called by the act phase after action
    selection and again by the collusion kernel after it overrides ring
    members' action indices — both must agree on the derivation.
    """
    ctx = state.ctx
    bw, files = state.sharing_space.decode(ctx.share_actions)
    online = state.peers.online
    ctx.bw = bw * online
    ctx.files = files * online
    state.peers.set_actions(ctx.bw, ctx.files)
    ctx.edit_constructive, ctx.vote_constructive = state.edit_space.decode(
        ctx.edit_actions
    )


def act_phase(state: SimState, cfg: SimulationConfig, temperature) -> None:
    """Snapshot reputations, select this step's actions, install them.

    Reputation snapshots (``rep_s``/``rep_e``) are taken once here and
    reused by the voting and metrics phases — reputations only move
    between steps.  Their discretized states come from the state's
    memos (:func:`observe_states`): the previous step's learn phase
    already discretized these arrays unless churn, a sybil reset or the
    phase-boundary reset changed the books since.  Action selection is
    one stacked call over all replicates' rational peers; fixed types
    are filled in vectorized.
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
    ctx.share_actions = state.behavior.sharing_actions(
        ctx.states_s, temperature, state.rngs
    )
    ctx.edit_actions = state.behavior.edit_actions(
        ctx.states_e, temperature, state.rngs
    )
    install_actions(state)
