"""Lane-stacked article store: quality books and voting rights as arrays.

The collaboration network's documents.  Each article tracks

* a *quality* score (constructive accepted edits raise it, destructive
  accepted edits lower it — this is what the incentive scheme is supposed
  to protect),
* its version count and accepted constructive/destructive edit counts,
* the peers holding **voting rights** on the article.  Per the paper
  "only successful editors of an article will get the right to vote on
  changes of that article"; at network birth the *founders* seed these
  rights (the paper's conclusion: "the first users, e.g. the founders of
  the network, are expected to have a strong interest to ensure the
  quality").

One :class:`ArticleStore` holds the articles of ``R`` stacked lanes
(:mod:`repro.sim.state`): row ``r * A + a`` is article ``a`` of lane
``r``.  The books are flat ``(R·A,)`` arrays, and voting rights are a
padded ``(R·A, W)`` int32 insertion log — founders first, then every
editor the first time an edit of theirs on the article is accepted —
``n_voters`` long per row.  The edit-vote phase reads and books whole
batches of proposals across all lanes at once (:meth:`ArticleStore.gather`,
:meth:`ArticleStore.book`); Python runs once per row that gains a voter,
never per article or proposal.

Gather order
------------
The order a row's voters are read in decides which candidates a voter
subsample keeps and the order of float sums, so it is part of every
trajectory.  It is the iteration order of a Python ``set`` filled by
inserting the row's log one voter at a time — the order of the
per-article voter sets this store replaced, so trajectories are
unchanged.  It is derived from the log whenever a row gains a voter and
stored beside it (``voter_order``): a snapshot restores it exactly,
where a set rebuilt on unpickling may iterate in another order.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

import numpy as np

__all__ = ["ArticleStore"]


class ArticleStore:
    """Every article of ``len(rngs)`` lanes, with founder bootstrapping.

    Founders are drawn lane by lane, article by article, one
    ``rng.choice`` per article from that lane's generator.
    """

    def __init__(
        self,
        n_articles: int,
        n_peers: int,
        rngs: Sequence,
        founders_per_article: int = 5,
    ) -> None:
        if n_articles < 1:
            raise ValueError("n_articles must be >= 1")
        if founders_per_article < 1:
            raise ValueError("founders_per_article must be >= 1")
        if founders_per_article > n_peers:
            raise ValueError("founders_per_article cannot exceed n_peers")
        if not rngs:
            raise ValueError("need one generator per lane")
        self.n_lanes = len(rngs)
        self.n_articles = int(n_articles)
        self.n_peers = int(n_peers)
        rows = self.n_lanes * self.n_articles
        self.quality = np.zeros(rows)
        self.n_versions = np.zeros(rows, dtype=np.int64)
        self.n_constructive = np.zeros(rows, dtype=np.int64)
        self.n_destructive = np.zeros(rows, dtype=np.int64)
        self.n_voters = np.full(rows, founders_per_article, dtype=np.int64)
        self.voter_log = np.empty((rows, founders_per_article), dtype=np.int32)
        for r, rng in enumerate(rngs):
            for a in range(self.n_articles):
                self.voter_log[r * self.n_articles + a] = rng.choice(
                    n_peers, size=founders_per_article, replace=False
                )
        self.voter_order = np.empty_like(self.voter_log)
        self._reorder(np.arange(rows))

    def row(self, lane: int, article: int) -> int:
        """Flat row of ``article`` in ``lane``."""
        return lane * self.n_articles + article

    def voters(self, lane: int, article: int) -> np.ndarray:
        """One article's voting-right holders, in gather order."""
        row = self.row(lane, article)
        return self.voter_order[row, : self.n_voters[row]]

    def gather(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The voters of ``rows``, concatenated in gather order, and counts."""
        cells, counts, _ = self._cells(rows)
        return self.voter_order.reshape(-1)[cells], counts

    def _cells(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat indices of the filled cells of ``rows``; counts; run ends."""
        counts = self.n_voters[rows]
        ends = counts.cumsum()
        total = int(ends[-1]) if ends.size else 0
        cells = np.arange(total) + (
            rows * self.voter_order.shape[1] - (ends - counts)
        ).repeat(counts)
        return cells, counts, ends

    def book(
        self,
        rows: np.ndarray,
        editors: np.ndarray,
        constructive: np.ndarray,
        first_time: np.ndarray,
    ) -> None:
        """Commit accepted edits, given in proposal order.

        ``editors`` are lane-local peer ids; ``first_time`` marks the
        editors who held no voting right on their row yet — they gain
        one, appended to the row's log in proposal order.
        """
        np.add.at(self.n_versions, rows, 1)
        np.add.at(self.quality, rows, np.where(constructive, 1.0, -1.0))
        np.add.at(self.n_constructive, rows, constructive)
        np.add.at(self.n_destructive, rows, ~constructive)
        if first_time.any():
            self._append(rows[first_time], editors[first_time])

    def _append(self, rows: np.ndarray, voters: np.ndarray) -> None:
        order = rows.argsort(kind="stable")
        rows, voters = rows[order], voters[order]
        # Within-call rank of each new voter in its row: several editors
        # gaining rights on one row take consecutive slots.
        new_run = np.empty(rows.size, dtype=bool)
        new_run[0] = True
        np.not_equal(rows[1:], rows[:-1], out=new_run[1:])
        starts = new_run.nonzero()[0]
        rank = np.arange(rows.size) - starts[new_run.cumsum() - 1]
        slot = self.n_voters[rows] + rank
        need = int(slot.max()) + 1
        if need > self.voter_log.shape[1]:
            self._widen(need)
        self.voter_log[rows, slot] = voters
        np.add.at(self.n_voters, rows, 1)
        self._reorder(rows[starts])

    def _widen(self, need: int) -> None:
        """Grow the padded width to at least ``need`` (at most ``n_peers``)."""
        width = self.voter_log.shape[1]
        pad = ((0, 0), (0, min(self.n_peers, max(need, 2 * width)) - width))
        self.voter_log = np.pad(self.voter_log, pad)
        self.voter_order = np.pad(self.voter_order, pad)

    def _reorder(self, rows: np.ndarray) -> None:
        """Re-derive the gather order of ``rows`` from their logs."""
        cells, counts, ends = self._cells(rows)
        logged = self.voter_log.reshape(-1)[cells].tolist()
        # set() inserts from an iterator one key at a time, as the
        # founders' generator and every later add() did.
        ordered = [
            set(iter(logged[lo:hi]))
            for lo, hi in zip((ends - counts).tolist(), ends.tolist())
        ]
        self.voter_order.reshape(-1)[cells] = np.fromiter(
            chain.from_iterable(ordered), dtype=np.int32, count=cells.size
        )

    # ------------------------------------------------------------------
    # Aggregate views per lane
    # ------------------------------------------------------------------
    def _lane(self, lane: int) -> slice:
        return slice(lane * self.n_articles, (lane + 1) * self.n_articles)

    def total_quality(self, lane: int = 0) -> float:
        return float(self.quality[self._lane(lane)].sum())

    def accepted_counts(self, lane: int = 0) -> tuple[int, int]:
        """(constructive, destructive) accepted edits across one lane."""
        rows = self._lane(lane)
        return (
            int(self.n_constructive[rows].sum()),
            int(self.n_destructive[rows].sum()),
        )
