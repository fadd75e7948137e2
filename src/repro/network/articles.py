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
padded ``(R·A, W)`` int32 table whose rows are kept sorted by peer id —
``n_voters`` real ids, then padding — with founders drawn at birth and
every editor added the first time an edit of theirs on the article is
accepted.  The edit-vote phase reads and books whole batches of
proposals across all lanes at once (:meth:`ArticleStore.gather`,
:meth:`ArticleStore.book`); no Python runs per article or proposal.

Voter order
-----------
Rows are read in ascending id order.  The order decides the order of
float sums over a proposal's voters, so it is part of every
trajectory; being a function of the row's contents alone, it survives
a snapshot unchanged.  Padding cells hold :data:`PAD`, above every id,
so sorting a whole row keeps its voters first.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["ArticleStore", "PAD"]

#: Padding cell of a voter row: above every peer id, so it sorts last.
PAD = np.iinfo(np.int32).max


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
        self.voter_ids = np.empty((rows, founders_per_article), dtype=np.int32)
        for r, rng in enumerate(rngs):
            for a in range(self.n_articles):
                self.voter_ids[r * self.n_articles + a] = rng.choice(
                    n_peers, size=founders_per_article, replace=False
                )
        self.voter_ids.sort(axis=1)

    def row(self, lane: int, article: int) -> int:
        """Flat row of ``article`` in ``lane``."""
        return lane * self.n_articles + article

    def voters(self, lane: int, article: int) -> np.ndarray:
        """One article's voting-right holders, in ascending id order."""
        row = self.row(lane, article)
        return self.voter_ids[row, : self.n_voters[row]]

    def gather(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The voters of ``rows``, concatenated row by row, and counts."""
        counts = self.n_voters[rows]
        ends = counts.cumsum()
        total = int(ends[-1]) if ends.size else 0
        cells = np.arange(total) + (
            rows * self.voter_ids.shape[1] - (ends - counts)
        ).repeat(counts)
        return self.voter_ids.reshape(-1)[cells], counts

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
        one, and each touched row is sorted again.  Every book
        moves by whole numbers, so per-row ``np.bincount`` totals add up
        to exactly what an element-by-element scatter-add would.
        """
        n_rows = self.quality.size
        versions = np.bincount(rows, minlength=n_rows)
        good = np.bincount(rows[constructive], minlength=n_rows)
        self.n_versions += versions
        self.n_constructive += good
        self.n_destructive += versions - good
        self.quality += 2 * good - versions
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
        if need > self.voter_ids.shape[1]:
            self._widen(need)
        self.voter_ids[rows, slot] = voters
        np.add.at(self.n_voters, rows, 1)
        touched = rows[starts]
        self.voter_ids[touched] = np.sort(self.voter_ids[touched], axis=1)

    def _widen(self, need: int) -> None:
        """Grow the padded width to at least ``need`` (at most ``n_peers``)."""
        width = self.voter_ids.shape[1]
        pad = ((0, 0), (0, min(self.n_peers, max(need, 2 * width)) - width))
        self.voter_ids = np.pad(self.voter_ids, pad, constant_values=PAD)

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
