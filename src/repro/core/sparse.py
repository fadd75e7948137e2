"""Sparse capped interaction ledgers: O(N·cap) pairwise state for large N.

The engine's one quadratic structure is the tit-for-tat private-history
matrix ``given[i, j]`` — ``(R, N, N)`` floats that cap populations at a
few thousand peers (50k agents would need 20 GB for the matrix alone).
At scale a peer only ever interacts with a vanishing fraction of the
population, so almost every cell is a structural zero; this module stores
only the lived interactions.

:class:`SparseInteractionLedger` keeps, per *slot* (peer × replicate), a
capped row of ``(partner, amount)`` entries in flat preallocated arrays —
CSR-style fixed-width rows, no per-step Python dicts:

* ``partners``: ``(n_slots, cap)`` int64 local peer ids, ``-1`` = empty;
* ``amounts``:  ``(n_slots, cap)`` float64 accumulated values;
* ``counts``:   ``(n_slots,)`` live entries per row (rows are compact:
  entries occupy positions ``[0, counts[i])``, the tail stays
  ``(-1, 0.0)``).

Memory is ``n_slots * cap * 16`` bytes — ``O(N)`` for a fixed cap — and
every operation is vectorized and **chunked**: lookups and accumulations
process at most ``chunk_size`` rows at a time, so the peak working set is
bounded by the chunk, not the request count.  Their ``(m, w)``
temporaries span only the *live width* ``w``: the widest live row of the
ledger (lookups) or of the chunk (accumulations), at least 1.  Rows are
compact, so no column past it can match; decay still scales the full
width, which is faster than a strided live-width view.  Neither chunking
nor the live width changes results (all per-chunk work is elementwise or
row-local, and chunks are processed in input order).

Exactness contract
------------------
As long as no row exceeds its cap, the ledger reproduces a dense matrix
**bit for bit**: each ``(row, col)`` cell accumulates with the same
floating-point additions in the same order (``add`` requires the
``(row, col)`` pairs of one call to be unique — the engine guarantees
this because a downloader issues at most one request per step), decay
multiplies exactly the stored values a dense row-scale would, and
``lookup`` returns the stored cell or exactly ``0.0``.  Zero-amount
additions are dropped on insert (a dense matrix cell stays 0.0 either
way), so capacity is never spent on structural zeros.

When a full row meets a new partner, the entry with the **smallest
stored amount** is evicted (decay-eviction: stale partners decay toward
zero and age out first).  Eviction is the one approximation of the scale
path; callers get the evicted entries back so derived aggregates can
stay consistent.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SparseInteractionLedger"]


class SparseInteractionLedger:
    """Capped per-row (partner, amount) store over ``R * N`` flat slots.

    Parameters
    ----------
    n_local:
        Peers per replicate (``N``); partner ids are local to a replicate.
    n_replicates:
        Stacked replicate count (``R``); rows = ``R * N`` slots.
    cap:
        Allocated entries per row.  May be a per-slot ``(R * N,)`` array
        (lane batching lifts the cap like any other per-lane knob); the
        allocation width is then ``max(cap)`` and each row evicts at its
        own cap, exactly as a solo ledger with that scalar cap would.
    chunk_size:
        Rows per vectorized chunk in ``lookup``/``add`` — bounds the
        ``(chunk, live width)`` temporaries; pure execution knob, results
        are identical for any positive value.
    """

    def __init__(
        self,
        n_local: int,
        n_replicates: int = 1,
        cap: int | np.ndarray = 64,
        chunk_size: int = 32_768,
    ) -> None:
        if n_local < 1 or n_replicates < 1:
            raise ValueError("need n_local >= 1 and n_replicates >= 1")
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        cap_arr = np.asarray(cap)
        if np.any(cap_arr < 1):
            raise ValueError("ledger cap must be >= 1")
        self.n_local = int(n_local)
        self.n_replicates = int(n_replicates)
        self.n_slots = self.n_local * self.n_replicates
        # A row can never hold more than N - 1 distinct partners (no
        # self-interactions), so clip the allocation to what small
        # populations can actually fill.
        width = int(min(int(cap_arr.max()), max(self.n_local - 1, 1)))
        self.cap = width
        self.row_cap: int | np.ndarray = (
            np.minimum(cap_arr, width).astype(np.int64)
            if cap_arr.ndim
            else min(int(cap_arr), width)
        )
        if isinstance(self.row_cap, np.ndarray) and self.row_cap.shape != (
            self.n_slots,
        ):
            raise ValueError("per-slot cap must have shape (n_slots,)")
        self.chunk_size = int(chunk_size)
        # The engine's kernel instance, imported late (repro.sim imports
        # this module); ``lookup``/``add`` run its ledger kernels.
        from ..sim.backends import KERNELS

        self.kernels = KERNELS
        self.partners = np.full((self.n_slots, width), -1, dtype=np.int64)
        self.amounts = np.zeros((self.n_slots, width), dtype=np.float64)
        self.counts = np.zeros(self.n_slots, dtype=np.int64)

    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Resident bytes of the ledger arrays."""
        return self.partners.nbytes + self.amounts.nbytes + self.counts.nbytes

    def lookup(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Stored amount at each ``(row, col)``, ``0.0`` where absent.

        The kernel scans views of the live width only (the widest row,
        at least 1 so an empty ledger still has a column to scan).
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        w = max(int(self.counts.max()), 1)
        return self.kernels.ledger_lookup(
            self.partners[:, :w], self.amounts[:, :w], rows, cols, self.chunk_size
        )

    def add(
        self, rows: np.ndarray, cols: np.ndarray, amounts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Accumulate ``amounts`` into the ``(row, col)`` cells.

        The ``(row, col)`` pairs of one call must be unique (rows may
        repeat with different cols).  Returns ``(evicted_rows,
        evicted_amounts)`` — the entries displaced by cap overflow, empty
        on the exact path — so callers can keep derived totals in sync.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        amounts = np.asarray(amounts, dtype=np.float64)
        return self.kernels.ledger_add(
            self.partners,
            self.amounts,
            self.counts,
            self.row_cap,
            rows,
            cols,
            amounts,
            self.chunk_size,
        )

    # ------------------------------------------------------------------
    def decay_rows(self, decay: float | np.ndarray) -> None:
        """Scale every stored amount (all replicates) by ``decay``."""
        self.amounts *= decay

    def decay_replicates(self, rep_ids: np.ndarray, decay) -> None:
        """Scale the stored amounts of the given replicates only."""
        a3 = self.amounts.reshape(self.n_replicates, self.n_local, self.cap)
        if isinstance(decay, np.ndarray):
            a3[rep_ids] *= decay[rep_ids, None, None]
        else:
            a3[rep_ids] *= decay

    def clear_rows(self, rows: np.ndarray) -> None:
        """Wipe entire rows (a discarded identity forgets what it gave)."""
        self.partners[rows] = -1
        self.amounts[rows] = 0.0
        self.counts[rows] = 0

    def remove_partner(
        self, rep: int, local: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Drop every entry naming ``local`` within replicate ``rep``.

        Returns ``(rows, removed_amounts)`` so the caller can subtract the
        forgotten service from derived totals.  Rows stay compact via a
        swap-with-last delete (entry order inside a row carries no
        numeric meaning), and the scan covers only the block's live width
        (its widest row, at least 1).
        """
        lo = rep * self.n_local
        hi = lo + self.n_local
        # Rows are compact, so only the block's live width can match.
        w = max(int(self.counts[lo:hi].max()), 1)
        hits = np.flatnonzero(self.partners[lo:hi, :w] == local)
        if not hits.size:
            empty = np.empty(0, dtype=np.int64)
            return empty, np.empty(0, dtype=np.float64)
        rel, pos = np.divmod(hits, w)  # unique pairs: one hit per row
        rows = rel + lo
        removed = self.amounts[rows, pos].copy()
        last = self.counts[rows] - 1
        self.partners[rows, pos] = self.partners[rows, last]
        self.amounts[rows, pos] = self.amounts[rows, last]
        self.partners[rows, last] = -1
        self.amounts[rows, last] = 0.0
        self.counts[rows] = last
        return rows, removed

    def reset(self) -> None:
        """Forget everything (the protocol's phase-boundary wipe)."""
        self.partners.fill(-1)
        self.amounts.fill(0.0)
        self.counts.fill(0)

    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Materialize the ``(R, N, N)`` matrix (the tft ``given`` view)."""
        dense = np.zeros(
            (self.n_replicates, self.n_local, self.n_local), dtype=np.float64
        )
        valid = self.partners >= 0
        row, _ = np.nonzero(valid)
        dense[
            row // self.n_local, row % self.n_local, self.partners[valid]
        ] = self.amounts[valid]
        return dense
