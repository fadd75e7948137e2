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

    ``streaming=True`` switches the per-type reductions from gather
    buffers (copy each type's members, then row means) to one-pass
    segment sums (``np.bincount`` over a precomputed ``(replicate,
    type)`` label array).  The streaming path allocates nothing
    per-peer beyond the label vector — the scale engine flips it on
    above ``scale.stream_metrics_threshold`` agents, where the four
    ``(4, R·k)`` gather scratch buffers stop being free.  Recorded
    means are statistically identical; they are bitwise identical to
    the gather path only for single-member types (the accumulation
    tree differs), which is why the threshold default leaves small
    populations on the historical path.
    """

    _TYPES = (RATIONAL, ALTRUISTIC, IRRATIONAL)

    def __init__(
        self,
        n_steps: int,
        types: np.ndarray,
        n_replicates: int = 1,
        streaming: bool = False,
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
        types2d = self.types.reshape(self.n_replicates, self._n_per_rep)
        self.streaming = bool(streaming)
        self._cursor = 0

        R = self.n_replicates
        shape = (R, self.n_steps)
        self._files_all = np.zeros(shape)
        self._bandwidth_all = np.zeros(shape)
        self._files_by_type = {t: np.zeros(shape) for t in self._TYPES}
        self._bandwidth_by_type = {t: np.zeros(shape) for t in self._TYPES}
        self._rep_s_by_type = {t: np.zeros(shape) for t in self._TYPES}
        self._rep_e_by_type = {t: np.zeros(shape) for t in self._TYPES}
        self._utility_s_all = np.zeros(shape)
        self._utility_e_all = np.zeros(shape)
        # (replicate, steps, type, constructive) proposal/acceptance counts.
        self._proposals = np.zeros((R, self.n_steps, 3, 2))
        self._accepted = np.zeros((R, self.n_steps, 3, 2))
        self._votes_cast = np.zeros(shape)
        self._votes_successful = np.zeros(shape)
        self._vote_bans = np.zeros(shape)
        self._reputation_resets = np.zeros(shape)
        if self.streaming:
            # One (replicate, type) label per slot: per-type means become
            # bincount segment sums — no per-peer gather buffers at all.
            pos = np.full(self.types.size, -1, dtype=np.int64)
            for k, t in enumerate(self._TYPES):
                pos[self.types == t] = k
            reps = np.repeat(np.arange(R, dtype=np.int64), self._n_per_rep)
            self._labels = reps * len(self._TYPES) + pos
            counts = np.bincount(
                self._labels, minlength=R * len(self._TYPES)
            ).reshape(R, len(self._TYPES))
            self._label_counts = counts.astype(np.float64)
            self._label_empty = counts == 0
        else:
            # Lanes whose type has the same member count k form one group:
            # its means are one reduction over (4, lanes, k) rows of a
            # single gather.  A type with no members in a lane records
            # NaN there, filled in once.
            self._groups: list[tuple[int, np.ndarray, int, slice]] = []
            flat_idx: list[np.ndarray] = []
            lo = 0
            for t in self._TYPES:
                members = [np.flatnonzero(row == t) for row in types2d]
                sizes = np.array([m.size for m in members])
                for series in (
                    self._files_by_type,
                    self._bandwidth_by_type,
                    self._rep_s_by_type,
                    self._rep_e_by_type,
                ):
                    series[t][sizes == 0] = np.nan
                for k in sorted(set(sizes[sizes > 0].tolist())):
                    group = np.flatnonzero(sizes == k)
                    flat_idx.extend(members[r] + r * self._n_per_rep for r in group)
                    self._groups.append((t, group, k, slice(lo, lo + group.size * k)))
                    lo += group.size * k
            self._flat_idx = np.concatenate(flat_idx)
            # Scratch: the four per-peer series stacked so one gather
            # serves every group, and that gather's target.
            self._type_buf = np.empty((4, self.types.size))
            self._gather_buf = np.empty((4, self._flat_idx.size))

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

    @property
    def files_by_type(self) -> dict[int, np.ndarray]:
        return {t: self._first(a) for t, a in self._files_by_type.items()}

    @property
    def bandwidth_by_type(self) -> dict[int, np.ndarray]:
        return {t: self._first(a) for t, a in self._bandwidth_by_type.items()}

    @property
    def rep_s_by_type(self) -> dict[int, np.ndarray]:
        return {t: self._first(a) for t, a in self._rep_s_by_type.items()}

    @property
    def rep_e_by_type(self) -> dict[int, np.ndarray]:
        return {t: self._first(a) for t, a in self._rep_e_by_type.items()}

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
        # The four all-peer means in one reduction over a stacked copy
        # (axis=None flattens each input, whichever per-peer shape it
        # has): each is np.add.reduce over one lane's N contiguous values
        # divided by N, which is what np.mean computes.
        stacked = np.concatenate(
            (
                stats.offered_files,
                stats.offered_bandwidth,
                stats.sharing_utility,
                stats.editing_utility,
            ),
            axis=None,
            dtype=np.float64,
        ).reshape(4, R, N)
        means = np.add.reduce(stacked, axis=2) / N
        self._files_all[:, i] = means[0]
        self._bandwidth_all[:, i] = means[1]
        self._utility_s_all[:, i] = means[2]
        self._utility_e_all[:, i] = means[3]
        files, bw = stacked[0], stacked[1]
        rep_s = np.asarray(stats.reputation_s).reshape(R, N)
        rep_e = np.asarray(stats.reputation_e).reshape(R, N)
        if self.streaming:
            self._record_types_streaming(i, files, bw, rep_s, rep_e)
        else:
            self._record_types_gathered(i, files, bw, rep_s, rep_e)
        self._proposals[:, i] = np.asarray(stats.proposals).reshape(R, 3, 2)
        self._accepted[:, i] = np.asarray(stats.accepted).reshape(R, 3, 2)
        self._votes_cast[:, i] = np.asarray(stats.votes_cast)
        self._votes_successful[:, i] = np.asarray(stats.votes_successful)
        self._vote_bans[:, i] = np.asarray(stats.vote_bans)
        self._reputation_resets[:, i] = np.asarray(stats.reputation_resets)
        self._cursor += 1

    def _record_types_streaming(self, i, files, bw, rep_s, rep_e) -> None:
        """Per-type means as one-pass label-segment sums (large N)."""
        R = self.n_replicates
        nt = len(self._TYPES)
        for series, arr in (
            (self._files_by_type, files),
            (self._bandwidth_by_type, bw),
            (self._rep_s_by_type, rep_s),
            (self._rep_e_by_type, rep_e),
        ):
            sums = np.bincount(
                self._labels, weights=arr.reshape(-1), minlength=R * nt
            ).reshape(R, nt)
            means = np.divide(
                sums,
                self._label_counts,
                out=np.full((R, nt), np.nan),
                where=~self._label_empty,
            )
            for k, t in enumerate(self._TYPES):
                series[t][:, i] = means[:, k]

    def _record_types_gathered(self, i, files, bw, rep_s, rep_e) -> None:
        """Per-type means, one reduction per (type, member count) group.

        Each mean is ``np.add.reduce`` over a contiguous row of the
        group's k members divided by k — what ``np.mean`` computes — so
        every lane's values equal a solo run's bit for bit.
        """
        buf = self._type_buf
        buf[0] = files.reshape(-1)
        buf[1] = bw.reshape(-1)
        buf[2] = rep_s.reshape(-1)
        buf[3] = rep_e.reshape(-1)
        g = np.take(buf, self._flat_idx, axis=1, out=self._gather_buf)
        for t, lanes, k, cols in self._groups:
            m = np.add.reduce(g[:, cols].reshape(4, lanes.size, k), axis=2) / k
            self._files_by_type[t][lanes, i] = m[0]
            self._bandwidth_by_type[t][lanes, i] = m[1]
            self._rep_s_by_type[t][lanes, i] = m[2]
            self._rep_e_by_type[t][lanes, i] = m[3]

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
        for t in self._TYPES:
            name = TYPE_NAMES[t]
            out[f"shared_files_{name}"] = _nanmean(self._files_by_type[t][r, sl])
            out[f"shared_bandwidth_{name}"] = _nanmean(
                self._bandwidth_by_type[t][r, sl]
            )
            out[f"reputation_s_{name}"] = _nanmean(self._rep_s_by_type[t][r, sl])
            out[f"reputation_e_{name}"] = _nanmean(self._rep_e_by_type[t][r, sl])

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
