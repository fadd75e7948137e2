"""Learn phase: temporal-difference backups of the rational learners."""

from __future__ import annotations

from ..config import SimulationConfig
from ..state import SimState
from .act import observe_states

__all__ = ["learn_phase"]


def learn_phase(state: SimState, cfg: SimulationConfig, learn: bool) -> None:
    """One stacked TD update from this step's utilities (if learning).

    The next states are discretized through the state's memos, where the
    next step's act phase finds them again (:func:`observe_states`).
    """
    if not learn or not state.rational_idx.size:
        return
    ctx = state.ctx
    scheme = state.scheme
    lanes = state.lanes
    ridx = state.rational_idx
    next_states_s = observe_states(
        state.memo_s,
        scheme.reputation_s(),
        ridx,
        cfg.n_states,
        lanes.disc_s_min,
        lanes.disc_s_max,
    )
    next_states_e = observe_states(
        state.memo_e,
        scheme.reputation_e(),
        ridx,
        cfg.n_states,
        lanes.disc_e_min,
        lanes.disc_e_max,
    )
    state.behavior.learn_sharing(
        ctx.states_s, ctx.share_actions, ctx.u_s, next_states_s
    )
    state.behavior.learn_editing(
        ctx.states_e, ctx.edit_actions, ctx.u_e, next_states_e
    )
