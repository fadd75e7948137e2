"""Edit/vote phase: proposals, batched weighted voting rounds, punishment.

All proposals of one step — across *all* replicates — are settled
simultaneously against the step-start reputation snapshot: candidate
voters are gathered from the lane-stacked article store in one ragged
pass, mapped to their proposals once (that map and the mask of each
proposal's own editor serve both the voter filter and the voting rights
booked afterwards), and filtered; voter weights are normalized per
proposal with the same grouped-share kernel the bandwidth allocator
uses, and outcomes are counted back with ``np.bincount`` (every count is
integer-valued, so the counts equal the element-by-element
scatter-add's) and booked into the store in one call.  The draws
(proposer uniforms, article picks, subsample keys) are counter-based
hashes of each lane's key and lane-local indices, one call per site for
every lane.

Vote success is measured against the *simple* weighted majority
(>= 0.5), not the adaptive acceptance bar: a voter should not be punished
for siding with the majority merely because a low-reputation editor
needed a supermajority.
"""

from __future__ import annotations

import numpy as np

from ...core.service import required_majority_values
from ...core.utility import editing_utility_values
from ...network.events import EditEvent, PunishmentEvent
from ..backends import KERNELS
from ..config import SimulationConfig
from ..lanes import take
from ..rng import SITE_ARTICLE, SITE_PROPOSE, SITE_VOTER_KEY, CounterDraws, to_below
from ..state import SimState
from .adversary import collusion_votes

__all__ = ["edit_vote_phase", "proposal_key_order", "subsample_keys"]

#: Proposals one packed sort handles: ids must fit the 11 bits above a
#: 53-bit key.
_SORT_BLOCK = 2047
_KEY_SHIFT = np.uint64(11)
_PROP_SHIFT = np.uint64(53)


def subsample_keys(
    draws: CounterDraws,
    step: int,
    lanes: np.ndarray,
    proposers: np.ndarray,
    voters: np.ndarray,
    n_agents: int,
) -> np.ndarray:
    """One subsample key per (proposer, voter) candidate: ``uint64`` below 2**53.

    Keyed by the lane-local pair ``proposer * N + voter`` at ``step``
    (:data:`~repro.sim.rng.SITE_VOTER_KEY`), so a candidate's key does
    not depend on where the gather put it; the top 53 bits of its hashed
    word (``u >> 11``) leave room for an 11-bit proposal id above it
    (:func:`proposal_key_order`).
    """
    return draws.at(step, SITE_VOTER_KEY, lanes, proposers * n_agents + voters) >> _KEY_SHIFT


def proposal_key_order(cand_prop: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``np.lexsort((keys, cand_prop))`` for proposal-grouped candidates.

    ``cand_prop`` is non-decreasing and every key is a ``uint64`` below
    2**53 (:func:`subsample_keys`, or 0).  Packing ``(proposal << 53) |
    key`` into one uint64 turns the two-key lexsort into one stable
    argsort, block by block of at most :data:`_SORT_BLOCK` proposals;
    ties keep their input order, as in the lexsort.
    """
    n_blocks = int(cand_prop[-1]) // _SORT_BLOCK + 1 if cand_prop.size else 0
    if n_blocks <= 1:
        # Every proposal id fits the 11 bits: one sort, no block ids.
        code = keys | (cand_prop.astype(np.uint64) << _PROP_SHIFT)
        return code.argsort(kind="stable")
    code = keys | ((cand_prop % _SORT_BLOCK).astype(np.uint64) << _PROP_SHIFT)
    bounds = cand_prop.searchsorted(np.arange(n_blocks + 1) * _SORT_BLOCK).tolist()
    order = np.empty(cand_prop.size, dtype=np.int64)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        order[lo:hi] = code[lo:hi].argsort(kind="stable") + lo
    return order


def edit_vote_phase(state: SimState, cfg: SimulationConfig) -> None:
    """Draw every lane's proposals, decide them all, book the outcomes.

    Lane-varying knobs (attempt probability, voter-count bounds, majority
    band, utility modifiers) come from ``state.lanes`` — thresholds and
    gathers are per slot/proposal, so each lane decides exactly as its
    sequential run would.
    """
    sc = state.scratch
    sc.reset()
    scheme = state.scheme
    lanes = state.lanes
    online = state.peers.online
    if cfg.enforce_edit_threshold:
        may_edit = scheme.may_edit() & online
    else:
        may_edit = online
    u = state.draws.uniforms(state.step_count, SITE_PROPOSE)
    proposer_mask = may_edit & (u < lanes.edit_attempt_prob)
    proposers = proposer_mask.nonzero()[0]
    if proposers.size:
        _voting_rounds(state, cfg, proposers)

    state.ctx.u_e = editing_utility_values(
        sc.acc_edits, sc.succ_votes, lanes.u_delta, lanes.u_epsilon
    )
    scheme.record_editing(sc.succ_votes, sc.acc_edits)


def _voting_rounds(
    state: SimState, cfg: SimulationConfig, proposers: np.ndarray
) -> None:
    """Decide every replicate's proposals with one batched voting pass.

    ``proposers`` are flat slot ids in ascending order, so proposals
    group by replicate.
    """
    ctx = state.ctx
    sc = state.scratch
    scheme = state.scheme
    lanes = state.lanes
    store = state.articles
    n = state.n_agents
    n_rep = state.n_replicates
    can_vote = scheme.may_vote() & state.peers.online
    all_can_vote = bool(can_vote.all())
    max_voters = lanes.max_voters  # scalar, or (R,) for mixed-config lanes

    n_prop = proposers.size
    step = state.step_count
    rep_of_prop = proposers // n
    local_proposers = proposers - rep_of_prop * n
    # One article pick per proposer, keyed by its lane-local slot.
    article_ids = to_below(
        state.draws.at(step, SITE_ARTICLE, rep_of_prop, local_proposers),
        store.n_articles,
    )
    rows = rep_of_prop * store.n_articles + article_ids

    # One pass over every proposal's candidate voters: the map from each
    # candidate to its proposal and the mask of proposals' own editors
    # are built once, for the filter and for the voting rights booked
    # below.  Like the gather itself, they span the step's candidates.
    cand_local, counts = store.gather(rows)
    cand_map = np.arange(n_prop).repeat(counts)
    is_editor = cand_local == local_proposers[cand_map]
    flat_voters, flat_prop = KERNELS.filter_vote_candidates(
        cand_local, cand_map, is_editor, rep_of_prop, can_vote, all_can_vote, n
    )
    voter_counts = np.bincount(flat_prop, minlength=n_prop)

    max_of_prop = take(max_voters, rep_of_prop)  # scalar or (n_prop,)
    over = voter_counts > max_of_prop
    if over.any():
        # Subsample oversubscribed proposals by the random-keys method:
        # one uniform key per candidate, keep each proposal's
        # ``max_voters`` smallest keys — a uniform without-replacement
        # draw.  Only the oversubscribed proposals' candidates get keys,
        # one per (proposer, voter) pair; one stable sort by (proposal,
        # key) then selects within every proposal, and every other
        # proposal keeps its candidates in id order under key 0.
        keys = np.zeros(flat_voters.size, dtype=np.uint64)
        sel = over[flat_prop].nonzero()[0]
        sel_prop = flat_prop[sel]
        sel_lane = rep_of_prop[sel_prop]
        keys[sel] = subsample_keys(
            state.draws,
            step,
            sel_lane,
            local_proposers[sel_prop],
            flat_voters[sel] - sel_lane * n,
            n,
        )
        order = proposal_key_order(flat_prop, keys)
        # Sorted positions group by proposal in proposal order, as
        # ``flat_prop`` does, so ``flat_prop`` names each position's
        # proposal: its rank within the proposal and its limit.
        starts = voter_counts.cumsum() - voter_counts
        rank = np.arange(flat_voters.size) - starts[flat_prop]
        limit = (
            max_of_prop[flat_prop]
            if isinstance(max_of_prop, np.ndarray)
            else max_of_prop
        )
        keep_sel = order[rank < limit]
        flat_voters = flat_voters[keep_sel]
        flat_prop = flat_prop[keep_sel]
        voter_counts = np.minimum(voter_counts, max_of_prop)

    prop_constructive = ctx.edit_constructive[proposers]

    if scheme.differentiates_service:
        weights = KERNELS.grouped_shares(
            flat_prop, ctx.rep_e[flat_voters], n_prop
        )
        required = required_majority_values(
            ctx.rep_e[proposers],
            take(lanes.rep_e_min, proposers),
            take(lanes.rep_e_max, proposers),
            take(lanes.majority_min, proposers),
            take(lanes.majority_max, proposers),
        )
    else:
        weights = KERNELS.grouped_shares(
            flat_prop, np.ones(flat_prop.shape, dtype=np.float64), n_prop
        )
        required = np.full(n_prop, 0.5)

    votes_for = ctx.vote_constructive[flat_voters] == prop_constructive[flat_prop]
    if state.collusion_active and flat_voters.size:
        votes_for = collusion_votes(
            state, flat_voters, proposers[flat_prop], votes_for
        )
    for_weight = KERNELS.tally_votes(flat_prop, weights, votes_for, n_prop)
    quorum = voter_counts >= take(lanes.min_voters, rep_of_prop)
    accepted = quorum & (for_weight >= required)
    majority_for = for_weight >= 0.5
    successful = votes_for == majority_for[flat_prop]

    n_slots = sc.succ_votes.size
    sc.succ_votes += np.bincount(flat_voters[successful], minlength=n_slots)
    newly_banned = scheme.record_vote_outcomes(flat_voters, successful)
    punished = scheme.record_edit_outcomes(proposers, accepted)

    # One (lane, type, constructive) cell id per proposal.
    cell = (rep_of_prop * 3 + state.peers.types[proposers]) * 2 + prop_constructive
    n_cells = sc.proposals_count.size
    sc.proposals_count += np.bincount(cell, minlength=n_cells).reshape(
        sc.proposals_count.shape
    )
    acc = accepted.nonzero()[0]
    sc.accepted_count += np.bincount(cell[acc], minlength=n_cells).reshape(
        sc.accepted_count.shape
    )
    sc.acc_edits += np.bincount(proposers[acc], minlength=n_slots)
    if acc.size:
        # A proposer already holds a voting right on its article exactly
        # when it is among its own (unfiltered, step-start) candidates.
        held = np.zeros(n_prop, dtype=bool)
        held[cand_map[is_editor]] = True
        store.book(
            rows[acc], local_proposers[acc], prop_constructive[acc], ~held[acc]
        )

    # Per-replicate step counters.
    if flat_voters.size:
        rep_of_voter = rep_of_prop[flat_prop]
        sc.votes_cast += np.bincount(rep_of_voter, minlength=n_rep)
        sc.votes_successful += np.bincount(
            rep_of_voter[successful], minlength=n_rep
        )
    if newly_banned.size:
        sc.vote_bans += np.bincount(newly_banned // n, minlength=n_rep)
    if punished.size:
        sc.reputation_resets += np.bincount(punished // n, minlength=n_rep)

    if state.events_active:
        _record_events(
            state,
            rep_of_prop,
            article_ids,
            local_proposers,
            prop_constructive,
            accepted,
            for_weight,
            required,
            voter_counts,
            newly_banned,
            punished,
        )


def _record_events(
    state: SimState,
    rep_of_prop: np.ndarray,
    article_ids: np.ndarray,
    local_proposers: np.ndarray,
    prop_constructive: np.ndarray,
    accepted: np.ndarray,
    for_weight: np.ndarray,
    required: np.ndarray,
    voter_counts: np.ndarray,
    newly_banned: np.ndarray,
    punished: np.ndarray,
) -> None:
    """Mirror the per-proposal diagnostics into each logging lane's log.

    Only the logging lanes' proposals and punished slots are visited, so a
    wide batch with one logging lane loops over that lane's records alone.
    """
    n = state.n_agents
    logs = state.events
    has_log = np.array([log is not None for log in logs])
    for p in np.flatnonzero(has_log[rep_of_prop]):
        logs[rep_of_prop[p]].record_edit(
            EditEvent(
                step=state.step_count,
                article_id=int(article_ids[p]),
                editor_id=int(local_proposers[p]),
                constructive=bool(prop_constructive[p]),
                accepted=bool(accepted[p]),
                for_weight=float(for_weight[p]),
                required_majority=float(required[p]),
                n_voters=int(voter_counts[p]),
            )
        )
    for peers, kind in ((newly_banned, "vote_ban"), (punished, "reputation_reset")):
        for peer in peers[has_log[peers // n]]:
            logs[peer // n].record_punishment(
                PunishmentEvent(state.step_count, int(peer) % n, kind)
            )
