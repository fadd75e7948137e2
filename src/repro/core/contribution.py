"""Contribution-value accounting (paper section III-B).

Every peer carries two contribution values:

* ``C_S`` for *sharing* — weighted sum of shared articles and shared
  bandwidth, minus a per-step decay ``d_S``;
* ``C_E`` for *editing/voting* — weighted sum of successful votes and
  accepted edits, minus a per-step decay ``d_E``.

A vote is *successful* iff it is cast with the (weighted) majority; an edit
is *accepted* iff the weighted majority votes for it.  Both ledgers are
floored at zero (``C >= 0`` by definition in the paper).

The ledger is a struct-of-arrays container over the whole population so the
simulation engine can update all peers with a handful of vectorized
operations per step.  It counts the mutations of each book
(:attr:`ContributionLedger.sharing_version` and
:attr:`ContributionLedger.editing_version`), so a reputation view derived
from a book can be reused until that book next changes.
"""

from __future__ import annotations

import numpy as np

from .params import ContributionParams

__all__ = ["ContributionLedger"]


class ContributionLedger:
    """Vectorized ``C_S``/``C_E`` accounting for ``n_peers`` peers."""

    def __init__(self, n_peers: int, params: ContributionParams | None = None):
        if n_peers < 1:
            raise ValueError("n_peers must be >= 1")
        self.n_peers = int(n_peers)
        self.params = params if params is not None else ContributionParams()
        # Lane batches pass a duck-typed params bundle whose leaves are
        # per-slot arrays; all uses below are elementwise, so each slot
        # behaves bit-identically to a ledger built with its own scalars.
        # Multiplying by a retention of exactly 1.0 is an IEEE identity,
        # so one any() gate covers mixed-retention batches too.
        self._apply_retention = bool(np.any(np.asarray(self.params.retention) < 1.0))
        self._c_s = np.zeros(self.n_peers, dtype=np.float64)
        self._c_e = np.zeros(self.n_peers, dtype=np.float64)
        #: Mutation counts of the ``C_S`` and ``C_E`` books: every method
        #: below that writes a book bumps its count first.
        self.sharing_version = 0
        self.editing_version = 0

    # ------------------------------------------------------------------
    # Views (read-only by convention; engine treats these as snapshots)
    # ------------------------------------------------------------------
    @property
    def sharing(self) -> np.ndarray:
        """Current ``C_S`` per peer (do not mutate)."""
        return self._c_s

    @property
    def editing(self) -> np.ndarray:
        """Current ``C_E`` per peer (do not mutate)."""
        return self._c_e

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def record_sharing(
        self,
        shared_articles: np.ndarray,
        shared_bandwidth: np.ndarray,
        apply_decay: bool = True,
    ) -> None:
        """Accrue one step of sharing contributions.

        ``shared_articles`` and ``shared_bandwidth`` are per-peer amounts
        for this step (the engine passes the offered fractions).  The
        update is ``C <- retention * C + inflow - d_s`` floored at zero:
        with ``retention < 1`` the ledger is an exponential average with a
        bounded steady state (see :class:`ContributionParams.retention`),
        with ``retention = 1`` it is the paper's literal constant-decay
        rule.  Either way an inactive peer's ``C_S`` decays towards zero.
        """
        p = self.params
        self._check(shared_articles, "shared_articles")
        self._check(shared_bandwidth, "shared_bandwidth")
        self.sharing_version += 1
        if self._apply_retention:
            self._c_s *= p.retention
        self._c_s += p.alpha_s * shared_articles
        self._c_s += p.beta_s * shared_bandwidth
        if apply_decay:
            self._c_s -= p.d_s
        np.maximum(self._c_s, 0.0, out=self._c_s)

    def record_editing(
        self,
        successful_votes: np.ndarray,
        accepted_edits: np.ndarray,
        apply_decay: bool = True,
    ) -> None:
        """Accrue one step of editing/voting contributions (same contract)."""
        p = self.params
        self._check(successful_votes, "successful_votes")
        self._check(accepted_edits, "accepted_edits")
        self.editing_version += 1
        if self._apply_retention:
            self._c_e *= p.retention
        self._c_e += p.alpha_e * successful_votes
        self._c_e += p.beta_e * accepted_edits
        if apply_decay:
            self._c_e -= p.d_e
        np.maximum(self._c_e, 0.0, out=self._c_e)

    def reset_peers(self, indices: np.ndarray, sharing: bool = True, editing: bool = True) -> None:
        """Reset contributions of punished peers to zero (reputation -> R_min).

        Used by the malicious-editor punishment: "its sharing reputation is
        set to the minimum value ... the editing reputation drops to the
        minimum value as well".
        """
        if sharing:
            self.sharing_version += 1
            self._c_s[indices] = 0.0
        if editing:
            self.editing_version += 1
            self._c_e[indices] = 0.0

    def reset_all(self) -> None:
        """Zero every ledger — used between the training and evaluation
        phases ("the reputation values are reset but the agents keep their
        Q-Matrices")."""
        self.sharing_version += 1
        self.editing_version += 1
        self._c_s.fill(0.0)
        self._c_e.fill(0.0)

    # ------------------------------------------------------------------
    def _check(self, arr: np.ndarray, name: str) -> None:
        if arr.shape != (self.n_peers,):
            raise ValueError(
                f"{name} must have shape ({self.n_peers},), got {arr.shape}"
            )
        if (arr < 0).any():
            raise ValueError(f"{name} must be non-negative")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ContributionLedger(n_peers={self.n_peers}, "
            f"mean_c_s={self._c_s.mean():.3f}, mean_c_e={self._c_e.mean():.3f})"
        )
