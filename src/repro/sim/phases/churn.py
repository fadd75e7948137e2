"""Churn phase: joins, leaves and whitewash identity resets."""

from __future__ import annotations

import numpy as np

from ..config import SimulationConfig
from ..rng import SITE_CHURN, SITE_WHITEWASH
from ..state import SimState

__all__ = ["churn_phase"]


def churn_phase(state: SimState, cfg: SimulationConfig) -> None:
    """Apply one churn round to every lane (no-op when churn is off everywhere).

    One :class:`~repro.network.overlay.ChurnModel` holds every lane's
    rates per slot (a lane without churn has zero rates, so it never
    flips or whitewashes), and one leave/join uniform and one whitewash
    uniform per slot come from the state's counter-based draws.  Online
    flips happen in place; whitewash resets go to the scheme's ledger in
    one scatter (resets are idempotent zero-assignments).

    A churn whitewash resets only the contribution ledger
    (``scheme.ledger.reset_peers``): the peer keeps its punishment
    records, its karma balance and both directions of its tft private
    history.  A sybil reset (:func:`~repro.sim.phases.adversary.sybil_phase`)
    instead calls ``scheme.reset_identities``, which clears all of those
    too.  Making a whitewash a full identity reset changes the churn
    trajectories; it is ROADMAP item 4's decision.
    """
    if not state.churn_active:
        return
    model = state.churn
    draws = state.draws
    step = state.step_count
    washed = model.step(
        state.peers.online,
        draws.uniforms(step, SITE_CHURN),
        draws.uniforms(step, SITE_WHITEWASH) if model.whitewashes else None,
    )
    if washed.size:
        state.whitewash_counts += np.bincount(
            washed // state.n_agents, minlength=state.n_replicates
        )
        state.scheme.ledger.reset_peers(washed)
