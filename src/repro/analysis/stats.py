"""Summary statistics across replicated runs."""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MeanCI",
    "mean_ci",
    "bootstrap_ci",
    "relative_change",
    "welch_t_test",
    "hedges_g",
    "holm_reject",
    "PairTest",
    "EQUIVALENCE_ALPHA",
    "EQUIVALENCE_RTOL",
    "ensemble_equivalence",
]

#: Family-wise error rate of :func:`ensemble_equivalence`'s Holm step.
EQUIVALENCE_ALPHA = 0.05
#: Relative tolerance under which :func:`ensemble_equivalence` calls two
#: means equal without a test.
EQUIVALENCE_RTOL = 1e-9


@dataclass(frozen=True)
class MeanCI:
    """Mean with a symmetric confidence half-width."""

    mean: float
    half_width: float
    n: int

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.mean:.4f} ± {self.half_width:.4f} (n={self.n})"


def mean_ci(values: np.ndarray | list[float], z: float = 1.96) -> MeanCI:
    """Normal-approximation CI of the mean (ddof=1); NaNs are dropped."""
    arr = np.asarray(values, dtype=np.float64)
    arr = arr[~np.isnan(arr)]
    n = arr.size
    if n == 0:
        return MeanCI(mean=float("nan"), half_width=float("nan"), n=0)
    if n == 1:
        return MeanCI(mean=float(arr[0]), half_width=0.0, n=1)
    sem = float(arr.std(ddof=1)) / np.sqrt(n)
    return MeanCI(mean=float(arr.mean()), half_width=z * sem, n=n)


def bootstrap_ci(
    values: np.ndarray | list[float],
    rng: np.random.Generator,
    n_resamples: int = 2000,
    confidence: float = 0.95,
) -> tuple[float, float]:
    """Percentile bootstrap CI of the mean (vectorized resampling)."""
    arr = np.asarray(values, dtype=np.float64)
    arr = arr[~np.isnan(arr)]
    if arr.size == 0:
        return float("nan"), float("nan")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    idx = rng.integers(0, arr.size, size=(n_resamples, arr.size))
    means = arr[idx].mean(axis=1)
    lo = (1.0 - confidence) / 2.0
    return (
        float(np.quantile(means, lo)),
        float(np.quantile(means, 1.0 - lo)),
    )


def relative_change(baseline: float, treatment: float) -> float:
    """(treatment - baseline) / baseline; NaN for a zero baseline."""
    if baseline == 0:
        return float("nan")
    return (treatment - baseline) / baseline


def welch_t_test(
    a: np.ndarray | list[float], b: np.ndarray | list[float]
) -> tuple[float, float]:
    """Welch's unequal-variance t-test: returns (t statistic, p value).

    The Figure 3 experiment uses it to attach significance to the
    incentive-vs-baseline comparisons; NaNs are dropped.
    """
    from scipy import stats as sps

    xa = np.asarray(a, dtype=np.float64)
    xb = np.asarray(b, dtype=np.float64)
    xa = xa[~np.isnan(xa)]
    xb = xb[~np.isnan(xb)]
    if xa.size < 2 or xb.size < 2:
        return float("nan"), float("nan")
    with warnings.catch_warnings():
        # Near-identical samples trip scipy's catastrophic-cancellation
        # note; the resulting p ~ 1 is exactly the right answer there.
        warnings.filterwarnings(
            "ignore", message=".*catastrophic cancellation.*", category=RuntimeWarning
        )
        t, p = sps.ttest_ind(xa, xb, equal_var=False)
    return float(t), float(p)


def hedges_g(a: np.ndarray | list[float], b: np.ndarray | list[float]) -> float:
    """Hedges' g of ``b`` against ``a``: the bias-corrected standardized
    mean difference over the pooled standard deviation; NaNs are dropped.

    NaN when either side has fewer than two values or both are constant.
    """
    xa = np.asarray(a, dtype=np.float64)
    xb = np.asarray(b, dtype=np.float64)
    xa = xa[~np.isnan(xa)]
    xb = xb[~np.isnan(xb)]
    na, nb = xa.size, xb.size
    if na < 2 or nb < 2:
        return float("nan")
    pooled = ((na - 1) * xa.var(ddof=1) + (nb - 1) * xb.var(ddof=1)) / (na + nb - 2)
    if pooled == 0.0:
        return float("nan")
    correction = 1.0 - 3.0 / (4.0 * (na + nb) - 9.0)
    return float(correction * (xb.mean() - xa.mean()) / np.sqrt(pooled))


def holm_reject(p_values: np.ndarray | list[float], alpha: float = 0.05) -> np.ndarray:
    """Holm-Bonferroni step-down: which hypotheses the family rejects.

    The k-th smallest of ``m`` p values (k from 0) is rejected when it
    and every smaller one satisfy ``p <= alpha / (m - k)``; the first
    that fails stops the procedure, and everything after it stands.
    Controls the family-wise error rate at ``alpha``.
    """
    p = np.asarray(p_values, dtype=np.float64)
    reject = np.zeros(p.size, dtype=bool)
    for k, i in enumerate(np.argsort(p, kind="stable")):
        if not p[i] <= alpha / (p.size - k):
            break
        reject[i] = True
    return reject


@dataclass(frozen=True)
class PairTest:
    """One (config, metric) comparison of two seed ensembles."""

    config: str
    metric: str
    mean_a: float
    mean_b: float
    #: Welch's two-sided p; NaN when the pair was decided equal untested.
    p: float
    #: Hedges' g of side b against side a (NaN when undefined).
    g: float
    #: Decided equal without a test: both all-NaN, or means within
    #: :data:`EQUIVALENCE_RTOL`.
    equal: bool
    #: Rejected by Holm-Bonferroni across every tested pair.
    reject: bool


def _pair(config, metric, a, b) -> PairTest:
    xa = np.asarray(a, dtype=np.float64)
    xb = np.asarray(b, dtype=np.float64)
    fa, fb = xa[~np.isnan(xa)], xb[~np.isnan(xb)]
    mean_a = float(fa.mean()) if fa.size else float("nan")
    mean_b = float(fb.mean()) if fb.size else float("nan")
    g = hedges_g(fa, fb)
    if not fa.size and not fb.size:
        return PairTest(config, metric, mean_a, mean_b, float("nan"), g, True, False)
    if not fa.size or not fb.size:
        # Defined on one side only: a difference no test is needed for.
        return PairTest(config, metric, mean_a, mean_b, 0.0, g, False, False)
    if abs(mean_a - mean_b) <= EQUIVALENCE_RTOL * max(abs(mean_a), abs(mean_b)):
        return PairTest(config, metric, mean_a, mean_b, float("nan"), g, True, False)
    _, p = welch_t_test(fa, fb)
    if np.isnan(p):
        # Too few values, or both sides constant, and the means differ.
        p = 0.0
    return PairTest(config, metric, mean_a, mean_b, p, g, False, False)


def ensemble_equivalence(
    a: dict[str, dict[str, list[float]]],
    b: dict[str, dict[str, list[float]]],
) -> list[PairTest]:
    """Compare two seed ensembles per (config, summary metric).

    ``a`` and ``b`` map a config name to ``{metric: per-seed values}``;
    both must name the same configs and metrics.  A pair is equal when
    both sides are all-NaN or their means agree within the relative
    tolerance :data:`EQUIVALENCE_RTOL` (a reordered float sum moves a
    constant metric by a few ULPs, which no test should see).  Every
    other pair gets Welch's two-sided p (:func:`welch_t_test`; a metric
    defined on one side only, or constant on both sides at different
    values, gets p = 0) and Hedges' g (:func:`hedges_g`).
    Holm-Bonferroni then runs across all tested pairs of all configs
    together, at family-wise :data:`EQUIVALENCE_ALPHA`
    (:func:`holm_reject`).  Rows come back sorted by config and metric.
    """
    if sorted(a) != sorted(b):
        raise ValueError("the ensembles must name the same configs")
    rows: list[PairTest] = []
    for config in sorted(a):
        if sorted(a[config]) != sorted(b[config]):
            raise ValueError(f"{config}: the ensembles must name the same metrics")
        rows.extend(
            _pair(config, metric, a[config][metric], b[config][metric])
            for metric in sorted(a[config])
        )
    tested = [i for i, row in enumerate(rows) if not row.equal]
    rejected = holm_reject([rows[i].p for i in tested], EQUIVALENCE_ALPHA)
    for i, reject in zip(tested, rejected):
        rows[i] = dataclasses.replace(rows[i], reject=bool(reject))
    return rows
