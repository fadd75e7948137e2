"""Adversary kernels: sybil identity churn and collusion rings.

Two attack models the paper's robustness claim must survive, expressed
over :class:`~repro.sim.state.SimState`:

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

* **Collusion rings** (a pin in the act phase,
  :func:`~repro.sim.phases.act.pin_actions`, plus the hooks here for the
  download and edit/vote kernels) — ``collusion_fraction`` of each
  replicate's population is partitioned into rings of
  ``collusion_ring_size`` at build time.  Ring members farm reputation
  for the ring: while online they always offer maximal bandwidth and
  files and edit constructively (overriding their behaviour type's
  action, Q-learners included — the ring dictates, the learner still
  trains on the forced outcome), serve
  bandwidth *only* to ring-mates (outsider requests are zero-weighted
  and the source's bandwidth renormalizes over ring-mates), and vote
  for ring-mates' proposals and against everyone else's regardless of
  content (ballot stuffing + bad-mouthing).

Both preserve the batched == sequential bit-identity contract: the
reset uniforms are counter-based draws keyed by each lane's own key and
lane-local slots, and all cross-slot math is elementwise or grouped by
same-replicate slot pairs (ring ids are offset per replicate so they can
never alias across replicates).
"""

from __future__ import annotations

import numpy as np

from ..backends import KERNELS
from ..config import SimulationConfig
from ..rng import SITE_SYBIL
from ..state import SimState

__all__ = ["sybil_phase", "collusion_shares", "collusion_votes"]


def sybil_phase(state: SimState, cfg: SimulationConfig) -> None:
    """Let sybil attackers discard their identities and rejoin fresh.

    One uniform per slot (a counter-based draw) is thresholded on the
    attacker roster against each slot's lane rate; a state in which no
    lane has attackers with a positive rate draws nothing.  Resets are
    applied to the scheme in one scatter; they are idempotent
    assignments, so batching them across lanes is equivalent to the
    sequential per-event resets.
    """
    if not state.sybil_active:
        return
    u = state.draws.uniforms(state.step_count, SITE_SYBIL)
    resets = (state.sybil_mask & (u < state.lanes.sybil_rate)).nonzero()[0]
    if resets.size:
        state.peers.online[resets] = True  # a fresh identity rejoins
        state.sybil_counts += np.bincount(
            resets // state.n_agents, minlength=state.n_replicates
        )
        state.scheme.reset_identities(resets)


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
    rows = colluding.nonzero()[0]
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
