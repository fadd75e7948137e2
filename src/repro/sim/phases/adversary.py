"""Adversary phase kernels: sybil identity churn and collusion rings.

Two attack models the paper's robustness claim must survive, expressed
as phase kernels over :class:`~repro.sim.state.SimState`:

* **Sybil / whitewash** (:func:`sybil_phase`) — a designated attacker
  subpopulation (``sybil_fraction``) discards its identity with
  probability ``sybil_rate`` each step and rejoins fresh.  This
  generalizes the churn kernel's whitewash event: instead of only
  trading the contribution ledger for ``R_min``, the reset wipes *every*
  identity-bound book the active scheme keeps — contributions,
  vote/edit punishment streaks and bans, tit-for-tat private histories
  (rows *and* columns) and karma balances (refilled to the newcomer
  grant) — via each scheme's ``reset_identities``.  An offline attacker
  rejoins online as part of the reset.

* **Collusion rings** (:func:`collusion_phase` plus hooks in the
  download and edit/vote kernels) — ``collusion_fraction`` of each
  replicate's population is partitioned into rings of
  ``collusion_ring_size`` at build time.  Ring members farm reputation
  for the ring: they always offer maximal bandwidth and files
  (overriding their behaviour type's action, Q-learners included — the
  ring dictates, the learner still trains on the forced outcome), serve
  bandwidth *only* to ring-mates (outsider requests are zero-weighted
  and the source's bandwidth renormalizes over ring-mates), and vote
  for ring-mates' proposals and against everyone else's regardless of
  content (ballot stuffing + bad-mouthing).

Both kernels preserve the batched == sequential bit-identity contract:
per-replicate RNG draws happen in replicate order with
replicate-independent shapes, and all cross-slot math is elementwise or
grouped by same-replicate slot pairs (ring ids are offset per replicate
so they can never alias across replicates).
"""

from __future__ import annotations

import numpy as np

from ..backends import KERNELS
from ..config import SimulationConfig
from ..state import SimState
from .act import install_actions

__all__ = ["sybil_phase", "collusion_phase", "collusion_shares", "collusion_votes"]


def sybil_phase(state: SimState, cfg: SimulationConfig) -> None:
    """Let sybil attackers discard their identities and rejoin fresh.

    One full-width uniform vector is drawn per attacking lane (stream
    parity with the churn kernel's style), thresholded on the attacker
    roster against that lane's own rate; a lane with no attackers or a
    zero rate draws nothing, exactly like its sequential run.  Resets are
    applied to the scheme in one scatter; they are idempotent
    assignments, so batching them across lanes is equivalent to the
    sequential per-event resets.
    """
    lanes = state.lanes
    rate = lanes.sybil_rate  # scalar or per-lane (R,)
    scalar_rate = np.ndim(rate) == 0
    if scalar_rate and rate <= 0.0:
        return
    if not lanes.sybil_any.any():
        return
    n = state.n_agents
    sybil2d = state.rows(state.sybil_mask)
    online2d = state.rows(state.peers.online)
    washed_rows: list[np.ndarray] = []
    for r in range(state.n_replicates):
        rate_r = rate if scalar_rate else rate[r]
        if rate_r <= 0.0 or not lanes.sybil_any[r]:
            continue
        u = state.rngs[r].random(n)
        resets = np.flatnonzero(sybil2d[r] & (u < rate_r))
        if resets.size:
            online2d[r][resets] = True  # a fresh identity rejoins
            state.sybil_counts[r] += resets.size
            washed_rows.append(resets + r * n)
    if washed_rows:
        state.scheme.reset_identities(np.concatenate(washed_rows))


def collusion_phase(state: SimState, cfg: SimulationConfig) -> None:
    """Override ring members' actions with the ring's policy.

    Runs right after the act phase: colluders play the all-in sharing
    action and the constructive edit action (reputation farming),
    regardless of what their behaviour type — fixed or learned —
    selected.  The override rewrites the *action indices* (via
    :meth:`~repro.agents.behaviors.BatchedBehaviorEngine.apply_ring_policy`),
    so rational colluders' Q-learners train on the action the ring forced,
    not the one they picked; the decoded bandwidth/files/constructiveness
    arrays are then re-derived exactly as the act phase derives them.
    The download kernel separately restricts whom the offered bandwidth
    actually reaches.  Draws nothing, so it is exactly
    replicate-elementwise.
    """
    if not state.colluder_mask.any():
        return
    ctx = state.ctx
    state.behavior.apply_ring_policy(
        state.colluder_mask & state.peers.online,
        ctx.share_actions,
        ctx.edit_actions,
    )
    install_actions(state)


def collusion_shares(
    state: SimState,
    source_ids: np.ndarray,
    downloader_ids: np.ndarray,
    shares: np.ndarray,
) -> np.ndarray:
    """Zero colluding sources' shares to outsiders, renormalized in-ring.

    Requests whose source sits in a ring and whose downloader is not a
    ring-mate get weight zero; the source's remaining (ring-mate) weights
    renormalize so the ring fully consumes its own capacity.  A colluder
    whose requests all come from outsiders serves nobody that step, and
    one whose ring-mates all carry zero reputation splits equally among
    those ring-mates.  Only rows whose source is in a ring are rewritten,
    so non-colluding sources keep their shares bit-identically.
    """
    rings = state.collusion_rings
    src_ring = rings[source_ids]
    colluding = src_ring >= 0
    blocked = colluding & (src_ring != rings[downloader_ids])
    if not blocked.any():
        return shares
    rows = np.flatnonzero(colluding)
    sub_src = source_ids[rows]
    sub_blocked = blocked[rows]
    weights = np.where(sub_blocked, 0.0, shares[rows])
    totals = np.bincount(sub_src, weights=weights, minlength=state.peers.n)
    # Zero-reputation ring-mates: the ring policy ignores reputation, so
    # a zero-weight-total source still splits equally among its ring-mate
    # requests (not grouped_shares' all-rows fallback, which would leak
    # bandwidth back to the outsiders it refuses).
    weights[(totals[sub_src] <= 0.0) & ~sub_blocked] = 1.0
    sub = KERNELS.grouped_shares(sub_src, weights, state.peers.n)
    sub[sub_blocked] = 0.0  # exact zeros, incl. fully blocked sources
    out = shares.copy()
    out[rows] = sub
    return out


def collusion_votes(
    state: SimState,
    flat_voters: np.ndarray,
    proposer_of_vote: np.ndarray,
    votes_for: np.ndarray,
) -> np.ndarray:
    """Overwrite ring members' votes with the ring line.

    A colluding voter votes *for* iff the proposer is a ring-mate —
    content never matters.  Non-colluders' votes pass through untouched.
    ``proposer_of_vote`` holds each vote's proposer slot id.
    """
    rings = state.collusion_rings
    voter_ring = rings[flat_voters]
    colluding = voter_ring >= 0
    if not colluding.any():
        return votes_for
    return np.where(colluding, voter_ring == rings[proposer_of_vote], votes_for)
