"""The engine's kernel set: the hot inner loops behind the phases.

The per-step work funnels through eight kernels over the flat
``SimState`` slot arrays:

===========================  =====================================================
kernel                       hot loop it implements
===========================  =====================================================
``grouped_shares``           the shared group-normalized allocator behind
                             bandwidth settlement, voting weights and
                             collusion renormalization
``match_sources``            download matching: post-draw source fix-ups
                             (self-hit shift / lone-sharer drop)
``settle_downloads``         bandwidth settlement: per-request transfer
                             amounts scattered into received/served
``filter_vote_candidates``   edit-vote candidate filtering over the ragged
                             per-proposal voter gathers
``tally_votes``              weighted vote accumulation per proposal
``ledger_lookup``            tit-for-tat sparse-ledger reads
``ledger_add``               tit-for-tat sparse-ledger accumulate/insert/evict
``q_update``                 the vectorized tabular Q-learning TD backup
===========================  =====================================================

**No RNG.**  Kernels never draw random numbers; all sampling stays in
the per-replicate stream loops of the phases, so a kernel can never
shift a lane's stream.

Every call site looks its kernel up on the one :data:`KERNELS` instance
at call time (``KERNELS.q_update(...)`` or ``self.kernels.q_update(...)``
on an object holding it), never through a module-level alias of a bound
method.  Wrapping a kernel by setting an instance attribute therefore
reaches every call, which is how profilers and the kernel seam test
observe the kernels; :func:`get_backend` hands them the instance.
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = ["KERNELS", "NumpyKernels", "get_backend"]


class NumpyKernels:
    """Vectorized NumPy implementation of the eight kernels.

    Stateless and shared: the engine uses the one :data:`KERNELS`
    instance.  Schemes, ledgers and learners hold it, so it pickles by
    name (:meth:`__reduce__`): an unpickled snapshot or process-pool
    payload binds to the receiving process's instance, never a copy.
    """

    def __reduce__(self):
        return (get_backend, ("numpy",))

    def grouped_shares(
        self, group_ids: np.ndarray, weights: np.ndarray, n_groups: int
    ) -> np.ndarray:
        """Group-normalized shares via one scatter-add."""
        group_ids = np.asarray(group_ids)
        weights = np.asarray(weights, dtype=np.float64)
        if group_ids.shape != weights.shape:
            raise ValueError("group_ids and weights must have the same shape")
        if group_ids.size == 0:
            return np.zeros(0, dtype=np.float64)
        if np.any((group_ids < 0) | (group_ids >= n_groups)):
            raise ValueError("group ids out of range")
        if np.any(weights < 0):
            raise ValueError("weights must be non-negative")

        totals = np.zeros(n_groups, dtype=np.float64)
        np.add.at(totals, group_ids, weights)
        counts = np.bincount(group_ids, minlength=n_groups)

        shares = np.empty_like(weights)
        group_total = totals[group_ids]
        degenerate = group_total <= 0.0
        # Normal case: proportional share.
        np.divide(weights, group_total, out=shares, where=~degenerate)
        # Degenerate case (all weights zero in a group): equal split.
        if np.any(degenerate):
            shares[degenerate] = 1.0 / counts[group_ids[degenerate]]
        return shares

    def match_sources(
        self,
        downloaders: np.ndarray,
        choice_idx: np.ndarray,
        sources_flat: np.ndarray,
        req_start: np.ndarray,
        req_n_s: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Source fix-ups exactly as the batch sampler always applied them."""
        chosen = sources_flat[req_start + choice_idx]
        self_hit = chosen == downloaders
        if np.any(self_hit):
            # With several sharers shift to the next one; a lone sharer
            # cannot download from itself.
            shift = self_hit & (req_n_s > 1)
            if np.any(shift):
                chosen[shift] = sources_flat[
                    req_start[shift] + (choice_idx[shift] + 1) % req_n_s[shift]
                ]
            drop = self_hit & (req_n_s == 1)
            if np.any(drop):
                keep = ~drop
                downloaders, chosen = downloaders[keep], chosen[keep]
        return downloaders, chosen

    def settle_downloads(
        self,
        downloader_ids: np.ndarray,
        source_ids: np.ndarray,
        shares: np.ndarray,
        offered_bandwidth: np.ndarray,
        upload_capacity: np.ndarray,
        n_peers: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """One gather + two scatters, preserving per-source input order."""
        received = np.zeros(n_peers, dtype=np.float64)
        served = np.zeros(n_peers, dtype=np.float64)
        if downloader_ids.size == 0:
            return received, served
        capacity = offered_bandwidth[source_ids] * upload_capacity[source_ids]
        amount = capacity * shares
        # A downloader can issue at most one request per step, so a plain
        # scatter is enough for `received`; sources may serve many requests.
        received[downloader_ids] = amount
        np.add.at(served, source_ids, amount)
        return received, served

    def filter_vote_candidates(
        self,
        cand_local: np.ndarray,
        counts: np.ndarray,
        local_proposers: np.ndarray,
        rep_of_prop: np.ndarray,
        can_vote: np.ndarray,
        all_can_vote: bool,
        n_agents: int,
        chunk_size: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Chunked ragged filter (chunks bound temporaries, never results)."""
        n_prop = counts.size
        csum = np.cumsum(counts)
        kept_voters: list[np.ndarray] = []
        kept_props: list[np.ndarray] = []
        start = 0
        while start < n_prop:
            base = int(csum[start - 1]) if start else 0
            end = int(np.searchsorted(csum, base + chunk_size, side="right"))
            if end <= start:
                end = start + 1  # one oversized pool still processes alone
            chunk_cand = cand_local[base : int(csum[end - 1])]
            prop_of_cand = np.repeat(np.arange(start, end), counts[start:end])
            keep = chunk_cand != local_proposers[prop_of_cand]
            flat_cand = chunk_cand + rep_of_prop[prop_of_cand] * n_agents
            if not all_can_vote:
                keep &= can_vote[flat_cand]
            kept_voters.append(flat_cand[keep])
            kept_props.append(prop_of_cand[keep])
            start = end
        if not kept_voters:
            empty = np.empty(0, dtype=np.int64)
            return empty, np.empty(0, dtype=np.int64)
        return np.concatenate(kept_voters), np.concatenate(kept_props)

    def tally_votes(
        self,
        flat_prop: np.ndarray,
        weights: np.ndarray,
        votes_for: np.ndarray,
        n_prop: int,
    ) -> np.ndarray:
        """Masked scatter-add; ``np.add.at`` accumulates in input order."""
        for_weight = np.zeros(n_prop)
        np.add.at(for_weight, flat_prop[votes_for], weights[votes_for])
        return for_weight

    def ledger_lookup(
        self,
        partners: np.ndarray,
        amounts: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
        chunk_size: int,
    ) -> np.ndarray:
        """Chunked first-match row scans over the capped ledger rows.

        ``partners``/``amounts`` may be views of the leading live columns
        (:meth:`~repro.core.sparse.SparseInteractionLedger.lookup` passes
        the widest live row's width): rows are compact, so no column past
        it can match.
        """
        out = np.zeros(rows.size, dtype=np.float64)
        for lo in range(0, rows.size, chunk_size):
            r = rows[lo : lo + chunk_size]
            hit, pos = _first_match(partners[r] == cols[lo : lo + chunk_size, None])
            vals = amounts[r, pos]
            out[lo : lo + chunk_size] = np.where(hit, vals, 0.0)
        return out

    def ledger_add(
        self,
        partners: np.ndarray,
        amounts: np.ndarray,
        counts: np.ndarray,
        row_cap: Any,
        rows: np.ndarray,
        cols: np.ndarray,
        add_amounts: np.ndarray,
        chunk_size: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Chunked classify/accumulate/insert with decay-eviction.

        Per chunk: classification against the chunk-start state, hits
        accumulated first, then misses inserted (evicting the smallest
        stored amount of any full row).  Eviction choices depend on
        this order.  Classification scans only the chunk's live width
        (its widest row, at least 1): rows are compact, so no column past
        it can match.
        """
        ev_rows: list[np.ndarray] = []
        ev_amts: list[np.ndarray] = []
        for lo in range(0, rows.size, chunk_size):
            r = rows[lo : lo + chunk_size]
            c = cols[lo : lo + chunk_size]
            a = add_amounts[lo : lo + chunk_size]
            live = a != 0.0  # dense cells ignore +0.0; don't spend capacity
            if not live.all():
                r, c, a = r[live], c[live], a[live]
            if not r.size:
                continue
            w = max(int(counts[r].max()), 1)
            hit, pos = _first_match(partners[r, :w] == c[:, None])
            if hit.any():
                # (row, pos) targets are distinct within a call (pairs are
                # unique), so fancy-index accumulation is exact.
                amounts[r[hit], pos[hit]] += a[hit]
            miss = ~hit
            if miss.any():
                got = self._ledger_insert(
                    partners, amounts, counts, row_cap, r[miss], c[miss], a[miss]
                )
                if got is not None:
                    ev_rows.append(got[0])
                    ev_amts.append(got[1])
        if not ev_rows:
            empty = np.empty(0, dtype=np.int64)
            return empty, np.empty(0, dtype=np.float64)
        return np.concatenate(ev_rows), np.concatenate(ev_amts)

    @staticmethod
    def _ledger_insert(
        partners: np.ndarray,
        amounts: np.ndarray,
        counts: np.ndarray,
        row_cap: Any,
        rows: np.ndarray,
        cols: np.ndarray,
        add_amounts: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Append new partners; evict the smallest entry of any full row."""
        from ..core.params import gather_param

        order = np.argsort(rows, kind="stable")
        sr = rows[order]
        # Within-call rank of each insert in its row: repeated rows (one
        # source meeting several new partners in one settlement) claim
        # consecutive slots after the row's current count.
        new_run = np.empty(sr.size, dtype=bool)
        new_run[0] = True
        np.not_equal(sr[1:], sr[:-1], out=new_run[1:])
        run_start = np.flatnonzero(new_run)
        run_len = np.diff(np.append(run_start, sr.size))
        rank = np.arange(sr.size) - np.repeat(run_start, run_len)
        slot = counts[sr] + rank
        ok = slot < gather_param(row_cap, sr)
        if ok.any():
            src = order[ok]
            partners[sr[ok], slot[ok]] = cols[src]
            amounts[sr[ok], slot[ok]] = add_amounts[src]
            np.add.at(counts, sr[ok], 1)
        overflow = np.flatnonzero(~ok)
        if not overflow.size:
            return None
        # Decay-eviction (rare; the approximation regime): replace the
        # smallest stored amount — stale partners have decayed furthest.
        ev_rows = np.empty(overflow.size, dtype=np.int64)
        ev_amts = np.empty(overflow.size, dtype=np.float64)
        for k, i in enumerate(overflow):
            row = int(sr[i])
            j = int(np.argmin(amounts[row, : counts[row]]))
            ev_rows[k] = row
            ev_amts[k] = amounts[row, j]
            partners[row, j] = cols[order[i]]
            amounts[row, j] = add_amounts[order[i]]
        return ev_rows, ev_amts

    def q_update(
        self,
        q: np.ndarray,
        idx: np.ndarray,
        states: np.ndarray,
        actions: np.ndarray,
        rewards: np.ndarray,
        next_states: np.ndarray,
        learning_rate: Any,
        discount: Any,
    ) -> None:
        """The TD backup over row ids ``agent * S + state``, in place.

        The next-state rows are gathered from the ``(n * S, A)`` view of
        ``q`` and folded by columns for their maximum.  The visited cells
        are read and written through flat ids ``row * A + action`` with
        ``take``/``put``, which index ``q`` in C order whatever its memory
        layout, so the write lands in ``q`` itself.  The values are those
        of the fancy-indexed backup ``q[idx, s, a] = (1 - lr) q[idx, s, a]
        + lr (r + gamma q[idx, s'].max(axis=1))``; the fold may only pick
        the other sign of a zero maximum, which the target sees only when
        a reward is exactly -0.0.
        """
        n, s, a = q.shape
        rows = np.take(q.reshape(n * s, a), idx * s + next_states, axis=0)
        best_next = rows[:, 0].copy()
        for j in range(1, a):
            np.maximum(best_next, rows[:, j], out=best_next)
        target = rewards + discount * best_next
        cells = (idx * s + states) * a + actions
        current = q.take(cells)
        q.put(cells, (1.0 - learning_rate) * current + learning_rate * target)


def _first_match(match: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of a C-contiguous boolean block: any True, first True's column.

    ``hit`` reads the cell at ``argmax`` (the first True, or column 0 of
    a row with none), which equals ``match.any(axis=1)`` at a fraction of
    a short-row reduction's cost.
    """
    pos = match.argmax(axis=1)
    hit = match.reshape(-1).take(np.arange(pos.size) * match.shape[1] + pos)
    return hit, pos


#: The engine's one kernel instance.
KERNELS = NumpyKernels()


def get_backend(name: str = "numpy") -> NumpyKernels:
    """Resolve ``name`` to the kernel instance; ``"numpy"`` is the only one.

    Tools reach the kernels through this (and pickles revive through
    it); any other name raises ``ValueError``.
    """
    if name != "numpy":
        raise ValueError(f"unknown kernel backend {name!r} (the only one is 'numpy')")
    return KERNELS
