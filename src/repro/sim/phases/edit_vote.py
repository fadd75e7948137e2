"""Edit/vote phase: proposals, batched weighted voting rounds, punishment.

All proposals of one step — across *all* replicates — are settled
simultaneously against the step-start reputation snapshot: candidate
voters are gathered from the lane-stacked article store in one ragged
pass and filtered, voter weights are normalized per proposal with the
same grouped-share kernel the bandwidth allocator uses, and outcomes are
scattered back with ``np.add.at`` and booked into the store in one call.
Only the RNG draws (proposer masks, article picks, subsample keys) run
in per-replicate loops — each replicate consumes its own stream exactly
as a solo run would.

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
from ..state import SimState
from .adversary import collusion_votes

__all__ = ["edit_vote_phase", "proposal_key_order"]

#: Proposals one packed sort handles: ids must fit the 11 bits above a
#: 53-bit key.
_SORT_BLOCK = 2047


def proposal_key_order(cand_prop: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``np.lexsort((keys, cand_prop))`` for proposal-grouped candidates.

    ``cand_prop`` is non-decreasing and every key is a uniform from
    ``[0, 1)`` on the 2**-53 grid (or 0), so ``key * 2**53`` is an exact
    integer below 2**53.  Packing ``(proposal << 53) | key * 2**53`` into
    one uint64 turns the two-key lexsort into one stable argsort, block
    by block of at most :data:`_SORT_BLOCK` proposals; ties keep their
    input order, as in the lexsort.
    """
    code = (keys * 2.0**53).astype(np.uint64)
    code |= (cand_prop % _SORT_BLOCK).astype(np.uint64) << np.uint64(53)
    n_blocks = int(cand_prop[-1]) // _SORT_BLOCK + 1 if cand_prop.size else 0
    bounds = cand_prop.searchsorted(np.arange(n_blocks + 1) * _SORT_BLOCK).tolist()
    order = np.empty(cand_prop.size, dtype=np.int64)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        order[lo:hi] = code[lo:hi].argsort(kind="stable") + lo
    return order


def edit_vote_phase(state: SimState, cfg: SimulationConfig) -> None:
    """Draw proposals per replicate, decide them all, book the outcomes.

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
        may_edit = online.copy()
    n = state.n_agents
    n_rep = state.n_replicates
    # Per-replicate proposer draws (stream parity), flat thresholding.
    u = sc.proposer_u
    for r in range(n_rep):
        u[r] = state.rngs[r].random(n)
    proposer_mask = may_edit & (u.reshape(-1) < lanes.edit_attempt_prob)
    proposers = np.flatnonzero(proposer_mask)
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
    can_vote = scheme.may_vote() & state.peers.online
    all_can_vote = bool(can_vote.all())
    max_voters = lanes.max_voters  # scalar, or (R,) for mixed-config lanes

    n_prop = proposers.size
    rep_of_prop = proposers // n
    local_proposers = proposers - rep_of_prop * n
    # Article picks per replicate (stream parity).
    article_ids = np.empty(n_prop, dtype=np.int64)
    lo = 0
    for r, k in enumerate(np.bincount(rep_of_prop).tolist()):
        if k:
            article_ids[lo : lo + k] = state.rngs[r].integers(
                0, store.n_articles, size=k
            )
            lo += k
    rows = rep_of_prop * store.n_articles + article_ids

    # One ragged filter over every proposal's candidate voters, processed
    # in chunks of at most ``scale.chunk_size`` candidates (voter pools
    # grow with accepted edits, so unchunked temporaries would scale with
    # pool size, not population).  Chunk boundaries fall between
    # proposals and every step below is elementwise, so the kept voters
    # are identical to a single-pass filter for any chunk size.
    cand_local, counts = store.gather(rows)
    if cand_local.size:
        flat_voters, cand_prop = KERNELS.filter_vote_candidates(
            cand_local,
            counts,
            local_proposers,
            rep_of_prop,
            can_vote,
            all_can_vote,
            n,
            state.config.scale.chunk_size,
        )
        voter_counts = np.bincount(cand_prop, minlength=n_prop)
    else:
        flat_voters = np.empty(0, dtype=np.int64)
        cand_prop = np.empty(0, dtype=np.int64)
        voter_counts = np.zeros(n_prop, dtype=np.int64)

    max_of_prop = take(max_voters, rep_of_prop)  # scalar or (n_prop,)
    if np.any(voter_counts > max_of_prop):
        # Subsample oversubscribed proposals by the random-keys method:
        # one uniform key per candidate, keep each proposal's
        # ``max_voters`` smallest keys — a uniform without-replacement
        # draw.  Keys are drawn per replicate (stream parity: a replicate
        # draws exactly when it has a proposal oversubscribed against
        # *its own* limit, sized to its kept-candidate count), then one
        # stable sort by (proposal, key) selects within every proposal;
        # replicates that drew no keys keep their original candidate
        # order under key 0.
        keys = np.zeros(flat_voters.size)
        cand_rep = rep_of_prop[cand_prop]
        over_reps = np.unique(rep_of_prop[voter_counts > max_of_prop])
        cand_per_rep = np.bincount(cand_rep, minlength=state.n_replicates)
        rep_bounds = np.concatenate(([0], np.cumsum(cand_per_rep)))
        for r in over_reps.tolist():
            keys[rep_bounds[r] : rep_bounds[r + 1]] = state.rngs[r].random(
                int(cand_per_rep[r])
            )
        order = proposal_key_order(cand_prop, keys)
        rank = np.arange(flat_voters.size) - np.repeat(
            np.cumsum(voter_counts) - voter_counts, voter_counts
        )
        # Per-position limit: sorted positions group by proposal in
        # proposal order, so repeating each proposal's limit by its
        # candidate count aligns with ``rank``.
        limit = (
            np.repeat(max_of_prop, voter_counts)
            if isinstance(max_of_prop, np.ndarray)
            else max_of_prop
        )
        keep_sel = order[rank < limit]
        flat_voters = flat_voters[keep_sel]
        voter_counts = np.minimum(voter_counts, max_of_prop)

    flat_prop = np.repeat(np.arange(n_prop), voter_counts)
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
    if state.colluder_mask.any() and flat_voters.size:
        votes_for = collusion_votes(
            state, flat_voters, proposers[flat_prop], votes_for
        )
    for_weight = KERNELS.tally_votes(flat_prop, weights, votes_for, n_prop)
    quorum = voter_counts >= take(lanes.min_voters, rep_of_prop)
    accepted = quorum & (for_weight >= required)
    majority_for = for_weight >= 0.5
    successful = votes_for == majority_for[flat_prop]

    np.add.at(sc.succ_votes, flat_voters[successful], 1.0)
    newly_banned = scheme.record_vote_outcomes(flat_voters, successful)
    punished = scheme.record_edit_outcomes(proposers, accepted)

    types = state.peers.types[proposers]
    cons_idx = prop_constructive.astype(np.int64)
    np.add.at(sc.proposals_count, (rep_of_prop, types, cons_idx), 1)
    acc = np.flatnonzero(accepted)
    np.add.at(sc.accepted_count, (rep_of_prop[acc], types[acc], cons_idx[acc]), 1)
    np.add.at(sc.acc_edits, proposers[acc], 1.0)
    if acc.size:
        # A proposer already holds a voting right on its article exactly
        # when it is among its own (unfiltered, step-start) candidates.
        own = cand_local == local_proposers.repeat(counts)
        held = np.zeros(n_prop, dtype=bool)
        held[np.arange(n_prop).repeat(counts)[own]] = True
        store.book(
            rows[acc], local_proposers[acc], prop_constructive[acc], ~held[acc]
        )

    # Per-replicate step counters.
    if flat_voters.size:
        rep_of_voter = rep_of_prop[flat_prop]
        np.add.at(sc.votes_cast, rep_of_voter, 1.0)
        np.add.at(sc.votes_successful, rep_of_voter[successful], 1.0)
    if newly_banned.size:
        np.add.at(sc.vote_bans, newly_banned // n, 1.0)
    if punished.size:
        np.add.at(sc.reputation_resets, punished // n, 1.0)

    if state.events.count(None) != len(state.events):  # any lane logs
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
