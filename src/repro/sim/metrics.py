"""Per-step metric collection and windowed summaries.

The collector preallocates one float64 row per step for every series (no
appends in the hot loop) and exposes the quantities the paper's Figures 3-7
report:

* fraction of shared articles / bandwidth, overall and per behaviour type;
* constructive vs destructive edit proposals by rational agents;
* acceptance counts per (behaviour, constructiveness);
* mean reputations per type (diagnostics).

``summary(start, end)`` reduces a step window into a plain dict of floats —
the unit every experiment, benchmark and test consumes.

Replicate axis
--------------
With ``n_replicates = R > 1`` the collector records ``R`` stacked
independent runs at once: per-peer inputs arrive as flat ``(R * N,)`` (or
``(R, N)``) arrays, counters as ``(R,)`` arrays, and every series becomes
``(R, n_steps)``.  All reductions are row-wise over contiguous memory, so
replicate ``r``'s recorded values — and therefore its ``summary`` — are
bit-identical to collecting that replicate alone.  For ``R = 1`` the
public series stay 1-D (read-only properties returning row 0), preserving
the historical single-run API exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..network.peer import ALTRUISTIC, IRRATIONAL, RATIONAL, TYPE_NAMES

__all__ = ["StepStats", "MetricsCollector"]


@dataclass
class StepStats:
    """Everything the engine hands the collector after one step.

    Per-peer arrays are ``(N,)`` for a single run or flat ``(R * N,)`` /
    ``(R, N)`` for stacked replicates; the count matrices are ``(3, 2)``
    or ``(R, 3, 2)``; the scalar counters become ``(R,)`` arrays.
    """

    offered_files: np.ndarray  # per peer, [0, 1]
    offered_bandwidth: np.ndarray  # per peer, [0, 1]
    reputation_s: np.ndarray
    reputation_e: np.ndarray
    sharing_utility: np.ndarray
    editing_utility: np.ndarray
    # Edit-proposal counts for this step, keyed by behaviour type code:
    # shape (3, 2): [type, constructive? 1 : 0] -> proposals
    proposals: np.ndarray
    accepted: np.ndarray  # same shape: accepted proposals
    votes_cast: int | np.ndarray
    votes_successful: int | np.ndarray
    vote_bans: int | np.ndarray
    reputation_resets: int | np.ndarray


class MetricsCollector:
    """Fixed-size store of per-step series (optionally replicate-stacked).

    The 12 per-type series (files, bandwidth, R_S and R_E, by behaviour
    type) live in one ``(4, R, 3, steps)`` array and are recorded by one
    weighted ``np.bincount`` over a precomputed (quantity, lane, type)
    label per value: each label's sum runs over its lane's members in
    slot order, so a lane's values equal a solo run's bit for bit at
    every population size.  A type with no members in a lane divides by
    NaN and records NaN there.
    """

    _TYPES = (RATIONAL, ALTRUISTIC, IRRATIONAL)

    def __init__(
        self,
        n_steps: int,
        types: np.ndarray,
        n_replicates: int = 1,
    ):
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        types = np.asarray(types, dtype=np.int8)
        if types.ndim == 2:
            n_replicates = types.shape[0]
        elif types.ndim != 1:
            raise ValueError("types must be 1-D or (n_replicates, n_agents)")
        if n_replicates < 1 or types.size % n_replicates:
            raise ValueError("types must split evenly into n_replicates rows")
        self.n_steps = int(n_steps)
        self.n_replicates = int(n_replicates)
        self.types = types.reshape(-1)
        self._n_per_rep = self.types.size // self.n_replicates
        self._cursor = 0

        R = self.n_replicates
        nt = len(self._TYPES)
        shape = (R, self.n_steps)
        self._files_all = np.zeros(shape)
        self._bandwidth_all = np.zeros(shape)
        #: (quantity, replicate, type, step): files, bandwidth, R_S, R_E.
        self._by_type = np.zeros((4, R, nt, self.n_steps))
        self._utility_s_all = np.zeros(shape)
        self._utility_e_all = np.zeros(shape)
        # (replicate, steps, type, constructive) proposal/acceptance counts.
        self._proposals = np.zeros((R, self.n_steps, 3, 2))
        self._accepted = np.zeros((R, self.n_steps, 3, 2))
        self._votes_cast = np.zeros(shape)
        self._votes_successful = np.zeros(shape)
        self._vote_bans = np.zeros(shape)
        self._reputation_resets = np.zeros(shape)
        # One (quantity, replicate, type) label per recorded value, in
        # the order the stacked per-peer rows arrive (type codes are the
        # positions in _TYPES).
        lane_type = (
            np.repeat(np.arange(R, dtype=np.intp), self._n_per_rep) * nt + self.types
        )
        self._labels = (
            np.arange(4, dtype=np.intp)[:, None] * (R * nt) + lane_type
        ).reshape(-1)
        counts = np.bincount(lane_type, minlength=R * nt).reshape(R, nt)
        #: Members per (replicate, type); NaN where a type has none.
        self._type_counts = np.where(counts > 0, counts, np.nan)

    # ------------------------------------------------------------------
    # Public series: single runs see the historical 1-D (row-0) arrays,
    # stacked runs the (R, steps) arrays.  Read-only properties, so a
    # pickled collector never holds a view detached from its base.
    # ------------------------------------------------------------------
    def _first(self, arr: np.ndarray) -> np.ndarray:
        return arr[0] if self.n_replicates == 1 else arr

    @property
    def files_all(self) -> np.ndarray:
        return self._first(self._files_all)

    @property
    def bandwidth_all(self) -> np.ndarray:
        return self._first(self._bandwidth_all)

    def _typed(self, quantity: int) -> dict[int, np.ndarray]:
        """One quantity's per-type series, built on access (never stored)."""
        return {t: self._first(self._by_type[quantity, :, t]) for t in self._TYPES}

    @property
    def files_by_type(self) -> dict[int, np.ndarray]:
        return self._typed(0)

    @property
    def bandwidth_by_type(self) -> dict[int, np.ndarray]:
        return self._typed(1)

    @property
    def rep_s_by_type(self) -> dict[int, np.ndarray]:
        return self._typed(2)

    @property
    def rep_e_by_type(self) -> dict[int, np.ndarray]:
        return self._typed(3)

    @property
    def utility_s_all(self) -> np.ndarray:
        return self._first(self._utility_s_all)

    @property
    def utility_e_all(self) -> np.ndarray:
        return self._first(self._utility_e_all)

    @property
    def proposals(self) -> np.ndarray:
        return self._first(self._proposals)

    @property
    def accepted(self) -> np.ndarray:
        return self._first(self._accepted)

    @property
    def votes_cast(self) -> np.ndarray:
        return self._first(self._votes_cast)

    @property
    def votes_successful(self) -> np.ndarray:
        return self._first(self._votes_successful)

    @property
    def vote_bans(self) -> np.ndarray:
        return self._first(self._vote_bans)

    @property
    def reputation_resets(self) -> np.ndarray:
        return self._first(self._reputation_resets)

    # ------------------------------------------------------------------
    def record(self, stats: StepStats) -> None:
        i = self._cursor
        if i >= self.n_steps:
            raise RuntimeError("metrics store is full")
        R, N = self.n_replicates, self._n_per_rep
        # One stacked copy of the six per-peer rows (axis=None flattens
        # each input, whichever per-peer shape it has).  The first four
        # feed the per-type means; files, bandwidth, U_S and U_E the
        # all-peer means, each np.add.reduce over one lane's N contiguous
        # values divided by N, which is what np.mean computes.
        stacked = np.concatenate(
            (
                stats.offered_files,
                stats.offered_bandwidth,
                stats.reputation_s,
                stats.reputation_e,
                stats.sharing_utility,
                stats.editing_utility,
            ),
            axis=None,
            dtype=np.float64,
        ).reshape(6, R, N)
        means = np.add.reduce(stacked, axis=2) / N
        self._files_all[:, i] = means[0]
        self._bandwidth_all[:, i] = means[1]
        self._utility_s_all[:, i] = means[4]
        self._utility_e_all[:, i] = means[5]
        typed = np.bincount(
            self._labels, weights=stacked[:4].reshape(-1), minlength=12 * R
        ).reshape(4, R, 3)
        typed /= self._type_counts
        self._by_type[..., i] = typed
        self._proposals[:, i] = np.asarray(stats.proposals).reshape(R, 3, 2)
        self._accepted[:, i] = np.asarray(stats.accepted).reshape(R, 3, 2)
        self._votes_cast[:, i] = np.asarray(stats.votes_cast)
        self._votes_successful[:, i] = np.asarray(stats.votes_successful)
        self._vote_bans[:, i] = np.asarray(stats.vote_bans)
        self._reputation_resets[:, i] = np.asarray(stats.reputation_resets)
        self._cursor += 1

    @property
    def steps_recorded(self) -> int:
        return self._cursor

    # ------------------------------------------------------------------
    def summary(
        self, start: int, end: int | None = None, replicate: int | None = None
    ) -> dict[str, float]:
        """Reduce the window ``[start, end)`` into scalar metrics.

        ``replicate`` selects the row of a stacked collector; single-run
        collectors default to their only replicate.
        """
        if replicate is None:
            if self.n_replicates != 1:
                raise ValueError(
                    "stacked collector: pass replicate= (or use summaries())"
                )
            replicate = 0
        if not 0 <= replicate < self.n_replicates:
            raise ValueError(f"replicate {replicate} out of range")
        r = replicate
        end = self._cursor if end is None else end
        if not 0 <= start < end <= self._cursor:
            raise ValueError(f"bad window [{start}, {end}) with {self._cursor} steps")
        sl = slice(start, end)
        out: dict[str, float] = {
            "shared_files": float(self._files_all[r, sl].mean()),
            "shared_bandwidth": float(self._bandwidth_all[r, sl].mean()),
            "utility_sharing": float(self._utility_s_all[r, sl].mean()),
            "utility_editing": float(self._utility_e_all[r, sl].mean()),
            "votes_cast_per_step": float(self._votes_cast[r, sl].mean()),
            "vote_success_rate": _safe_ratio(
                self._votes_successful[r, sl].sum(), self._votes_cast[r, sl].sum()
            ),
            "vote_bans": float(self._vote_bans[r, sl].sum()),
            "reputation_resets": float(self._reputation_resets[r, sl].sum()),
        }
        typed = self._by_type[:, r, :, sl]  # (quantity, type, window)
        for t in self._TYPES:
            name = TYPE_NAMES[t]
            out[f"shared_files_{name}"] = _nanmean(typed[0, t])
            out[f"shared_bandwidth_{name}"] = _nanmean(typed[1, t])
            out[f"reputation_s_{name}"] = _nanmean(typed[2, t])
            out[f"reputation_e_{name}"] = _nanmean(typed[3, t])

        props = self._proposals[r, sl].sum(axis=0)  # (3, 2)
        accs = self._accepted[r, sl].sum(axis=0)
        for t in self._TYPES:
            name = TYPE_NAMES[t]
            good, bad = props[t, 1], props[t, 0]
            out[f"edits_constructive_{name}"] = float(good)
            out[f"edits_destructive_{name}"] = float(bad)
            out[f"edit_constructive_fraction_{name}"] = _safe_ratio(good, good + bad)
            out[f"accepted_constructive_{name}"] = float(accs[t, 1])
            out[f"accepted_destructive_{name}"] = float(accs[t, 0])
            out[f"edit_accept_rate_{name}"] = _safe_ratio(
                accs[t].sum(), props[t].sum()
            )
        total_good = props[:, 1].sum()
        total_bad = props[:, 0].sum()
        out["edit_constructive_fraction"] = _safe_ratio(
            total_good, total_good + total_bad
        )
        out["accepted_constructive_rate"] = _safe_ratio(
            accs[:, 1].sum(), props[:, 1].sum()
        )
        out["accepted_destructive_rate"] = _safe_ratio(
            accs[:, 0].sum(), props[:, 0].sum()
        )
        return out

    def summaries(self, start: int, end: int | None = None) -> list[dict[str, float]]:
        """Per-replicate summaries of the window, in replicate order."""
        return [
            self.summary(start, end, replicate=r) for r in range(self.n_replicates)
        ]

    def series(self, name: str) -> np.ndarray:
        """A recorded per-step series (trimmed to recorded length).

        Single-run collectors return the historical 1-D (or
        ``(steps, 3, 2)``) shape; stacked collectors prepend the
        replicate axis.
        """
        arr = getattr(self, name, None)
        if not isinstance(arr, np.ndarray):
            raise KeyError(name)
        if self.n_replicates == 1:
            return arr[: self._cursor]
        return arr[:, : self._cursor]


def _safe_ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else float("nan")


def _nanmean(values: np.ndarray) -> float:
    finite = values[~np.isnan(values)]
    return float(finite.mean()) if finite.size else float("nan")
