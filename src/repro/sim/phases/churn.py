"""Churn phase: joins, leaves and whitewash identity resets."""

from __future__ import annotations

import numpy as np

from ..config import SimulationConfig
from ..state import SimState

__all__ = ["churn_phase"]


def churn_phase(state: SimState, cfg: SimulationConfig) -> None:
    """Apply one churn round per lane (no-op when churn is off everywhere).

    Each lane carries its own :class:`~repro.network.overlay.ChurnModel`
    (rates may differ per lane); a lane whose model is inactive draws
    nothing, exactly like its sequential run.  Online flips happen in
    place on each lane's row view; whitewash resets are collected across
    lanes and applied to the scheme's ledger in one scatter (resets are
    idempotent zero-assignments, so batching them is equivalent to the
    sequential per-event resets).

    A churn whitewash resets only the contribution ledger
    (``scheme.ledger.reset_peers``): the peer keeps its punishment
    records, its karma balance and both directions of its tft private
    history.  A sybil reset (:func:`~repro.sim.phases.adversary.sybil_phase`)
    instead calls ``scheme.reset_identities``, which clears all of those
    too.  Making a whitewash a full identity reset changes the churn
    trajectories, so it waits for the next re-baseline of the golden
    digests.
    """
    if not state.churn_active:
        return
    n = state.n_agents
    online2d = state.rows(state.peers.online)
    washed: list[int] = []
    for r in range(state.n_replicates):
        model = state.churn[r]
        if not model.active:
            continue
        for ev in model.step(state.rngs[r], online2d[r]):
            if ev.kind == "whitewash":
                washed.append(ev.peer_id + r * n)
                state.whitewash_counts[r] += 1
    if washed:
        state.scheme.ledger.reset_peers(np.asarray(washed, dtype=np.int64))
