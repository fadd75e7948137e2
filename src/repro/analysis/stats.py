"""Summary statistics across replicated runs."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

__all__ = ["MeanCI", "mean_ci", "bootstrap_ci", "relative_change", "welch_t_test"]


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
