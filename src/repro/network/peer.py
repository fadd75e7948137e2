"""Peer population state (struct-of-arrays).

The simulation treats the population as parallel NumPy arrays rather than a
list of peer objects — the per-step kernels then vectorize over all peers.
Behaviour *types* (rational / altruistic / irrational) are integer codes so
masks like ``types == RATIONAL`` stay cheap.

Capacities follow the paper's normalization: every peer has upload and
download bandwidth 1 and every file has size 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RATIONAL", "ALTRUISTIC", "IRRATIONAL", "TYPE_NAMES", "PeerArrays"]

RATIONAL = 0
ALTRUISTIC = 1
IRRATIONAL = 2
TYPE_NAMES = {RATIONAL: "rational", ALTRUISTIC: "altruistic", IRRATIONAL: "irrational"}


@dataclass
class PeerArrays:
    """Mutable per-peer state advanced by the engine every step.

    With ``n_replicates > 1`` the arrays hold ``R`` stacked independent
    populations flattened to ``R * N`` slots (replicate ``r`` owns slots
    ``[r*N, (r+1)*N)``).  Every elementwise kernel works on the flat view
    unchanged; per-replicate kernels reshape to ``(R, N)`` — a zero-copy
    view, so the single-run case (``R = 1``) is byte-identical to the
    historical layout.
    """

    types: np.ndarray  # int8 behaviour codes
    online: np.ndarray  # bool, churn support
    upload_capacity: np.ndarray  # float64, normalized to 1
    max_files: np.ndarray  # float64, max shareable files (paper: 100)
    # Current actions (set by the behaviour policies each step):
    offered_bandwidth: np.ndarray  # float64 fraction in [0, 1]
    offered_files: np.ndarray  # float64 fraction in [0, 1] of max_files
    n_replicates: int = 1

    @classmethod
    def create(
        cls,
        types: np.ndarray,
        upload_capacity: float = 1.0,
        max_files: float = 100.0,
    ) -> "PeerArrays":
        """Build a population from type codes.

        ``types`` is ``(N,)`` for a single run or ``(R, N)`` for ``R``
        stacked replicates (one row per replicate's shuffled population).
        """
        types = np.asarray(types, dtype=np.int8)
        if types.ndim == 2:
            n_replicates = types.shape[0]
            types = types.reshape(-1)
        elif types.ndim == 1:
            n_replicates = 1
        else:
            raise ValueError("types must be 1-D (one run) or 2-D (replicates)")
        if types.size == 0:
            raise ValueError("types must be non-empty")
        if not np.isin(types, (RATIONAL, ALTRUISTIC, IRRATIONAL)).all():
            raise ValueError("unknown behaviour type code present")
        n = types.size
        return cls(
            types=types.copy(),
            online=np.ones(n, dtype=bool),
            upload_capacity=np.full(n, float(upload_capacity)),
            max_files=np.full(n, float(max_files)),
            offered_bandwidth=np.zeros(n, dtype=np.float64),
            offered_files=np.zeros(n, dtype=np.float64),
            n_replicates=n_replicates,
        )

    @property
    def n(self) -> int:
        """Total number of peer slots (``R * N``; equals ``N`` when R=1)."""
        return self.types.size

    @property
    def n_per_replicate(self) -> int:
        return self.types.size // self.n_replicates

    def mask(self, type_code: int) -> np.ndarray:
        """Boolean mask selecting one behaviour type."""
        return self.types == type_code

    def counts(self) -> dict[str, int]:
        """Number of peers per behaviour type (for reporting)."""
        return {
            name: int(np.count_nonzero(self.types == code))
            for code, name in TYPE_NAMES.items()
        }

    def sharing_mask(self) -> np.ndarray:
        """Peers currently offering at least one file while online."""
        return self.online & (self.offered_files > 0.0)

    def set_actions(
        self, offered_bandwidth: np.ndarray, offered_files: np.ndarray
    ) -> None:
        """Install this step's sharing actions (validated, in-place)."""
        ob = np.asarray(offered_bandwidth, dtype=np.float64)
        of = np.asarray(offered_files, dtype=np.float64)
        if ob.shape != (self.n,) or of.shape != (self.n,):
            raise ValueError("action arrays must have shape (n_peers,)")
        if ((ob < 0) | (ob > 1)).any() or ((of < 0) | (of > 1)).any():
            raise ValueError("action fractions must lie in [0, 1]")
        self.offered_bandwidth[:] = ob
        self.offered_files[:] = of
