"""Tests for summary statistics."""

import numpy as np
import pytest

from repro.analysis.stats import MeanCI, bootstrap_ci, mean_ci, relative_change


class TestMeanCI:
    def test_basic(self):
        ci = mean_ci([1.0, 2.0, 3.0])
        assert ci.mean == pytest.approx(2.0)
        assert ci.n == 3
        assert ci.low < 2.0 < ci.high

    def test_single_value(self):
        ci = mean_ci([5.0])
        assert ci.mean == 5.0
        assert ci.half_width == 0.0

    def test_empty(self):
        ci = mean_ci([])
        assert np.isnan(ci.mean)
        assert ci.n == 0

    def test_nans_dropped(self):
        ci = mean_ci([1.0, float("nan"), 3.0])
        assert ci.mean == pytest.approx(2.0)
        assert ci.n == 2

    def test_width_shrinks_with_n(self):
        rng = np.random.default_rng(0)
        small = mean_ci(rng.normal(size=10))
        large = mean_ci(rng.normal(size=1000))
        assert large.half_width < small.half_width

    def test_interval_bounds(self):
        ci = MeanCI(mean=1.0, half_width=0.2, n=5)
        assert ci.low == pytest.approx(0.8)
        assert ci.high == pytest.approx(1.2)


class TestBootstrapCI:
    def test_contains_true_mean(self, rng):
        data = rng.normal(loc=3.0, size=200)
        lo, hi = bootstrap_ci(data, rng)
        assert lo < 3.0 < hi

    def test_deterministic_given_rng(self, rng_factory):
        data = np.arange(20, dtype=float)
        a = bootstrap_ci(data, rng_factory(1))
        b = bootstrap_ci(data, rng_factory(1))
        assert a == b

    def test_empty(self, rng):
        lo, hi = bootstrap_ci([], rng)
        assert np.isnan(lo) and np.isnan(hi)

    def test_confidence_validation(self, rng):
        with pytest.raises(ValueError):
            bootstrap_ci([1.0, 2.0], rng, confidence=1.5)

    def test_wider_confidence_wider_interval(self, rng_factory):
        data = rng_factory(0).normal(size=100)
        lo1, hi1 = bootstrap_ci(data, rng_factory(1), confidence=0.5)
        lo2, hi2 = bootstrap_ci(data, rng_factory(1), confidence=0.99)
        assert (hi2 - lo2) > (hi1 - lo1)


class TestWelchTTest:
    def test_detects_separation(self):
        from repro.analysis.stats import welch_t_test

        t, p = welch_t_test([1.0, 1.1, 0.9, 1.05], [2.0, 2.1, 1.9, 2.05])
        assert p < 0.01
        assert t < 0  # first sample smaller

    def test_identical_samples_insignificant(self):
        from repro.analysis.stats import welch_t_test

        rng = np.random.default_rng(0)
        x = rng.normal(size=30)
        y = rng.normal(size=30)
        _, p = welch_t_test(x, y)
        assert p > 0.05

    def test_too_small_returns_nan(self):
        from repro.analysis.stats import welch_t_test

        t, p = welch_t_test([1.0], [2.0, 3.0])
        assert np.isnan(t) and np.isnan(p)

    def test_nans_dropped(self):
        from repro.analysis.stats import welch_t_test

        t, p = welch_t_test([1.0, np.nan, 1.1, 0.9], [2.0, 2.1, np.nan, 1.9])
        assert np.isfinite(t)


class TestRelativeChange:
    def test_increase(self):
        assert relative_change(1.0, 1.1) == pytest.approx(0.1)

    def test_decrease(self):
        assert relative_change(2.0, 1.0) == pytest.approx(-0.5)

    def test_zero_baseline(self):
        assert np.isnan(relative_change(0.0, 1.0))


class TestEnsembleEquivalence:
    @staticmethod
    def _ensemble(rng, shift=0.0, n=20):
        return {
            "cfg-a": {
                "x": (rng.normal(size=n) + shift).tolist(),
                "y": rng.normal(size=n).tolist(),
            },
            "cfg-b": {"x": rng.normal(size=n).tolist()},
        }

    def test_rejects_a_shifted_ensemble(self):
        from repro.analysis.stats import ensemble_equivalence

        a = self._ensemble(np.random.default_rng(1))
        b = self._ensemble(np.random.default_rng(2), shift=2.0)
        rows = {(r.config, r.metric): r for r in ensemble_equivalence(a, b)}
        shifted = rows["cfg-a", "x"]
        assert shifted.reject and shifted.p < 1e-6
        assert shifted.g > 1.5  # b sits about two sds above a
        assert not rows["cfg-a", "y"].reject and not rows["cfg-b", "x"].reject

    def test_identical_ensembles_pass(self):
        from repro.analysis.stats import ensemble_equivalence

        a = self._ensemble(np.random.default_rng(3))
        rows = ensemble_equivalence(a, a)
        assert all(r.equal and not r.reject and np.isnan(r.p) for r in rows)

    def test_constants_a_few_ulps_apart_are_equal(self):
        from repro.analysis.stats import ensemble_equivalence

        c = 0.7123456789
        near = c
        for _ in range(3):
            near = np.nextafter(near, 1.0)
        rows = ensemble_equivalence({"c": {"m": [c] * 20}}, {"c": {"m": [near] * 20}})
        assert rows[0].equal and not rows[0].reject
        # Beyond the tolerance, two different constants are a difference.
        far = ensemble_equivalence({"c": {"m": [c] * 20}}, {"c": {"m": [c * 1.001] * 20}})
        assert far[0].p < 1e-12 and far[0].reject

    def test_all_nan_metrics_are_equal_and_one_sided_nan_rejects(self):
        from repro.analysis.stats import ensemble_equivalence

        nan = [float("nan")] * 20
        rows = ensemble_equivalence({"c": {"m": nan}}, {"c": {"m": list(nan)}})
        assert rows[0].equal and not rows[0].reject
        rows = ensemble_equivalence({"c": {"m": nan}}, {"c": {"m": [0.5] * 20}})
        assert rows[0].p == 0.0 and rows[0].reject

    def test_mismatched_ensembles_raise(self):
        from repro.analysis.stats import ensemble_equivalence

        with pytest.raises(ValueError, match="configs"):
            ensemble_equivalence({"a": {"m": [1.0]}}, {"b": {"m": [1.0]}})
        with pytest.raises(ValueError, match="metrics"):
            ensemble_equivalence({"a": {"m": [1.0]}}, {"a": {"n": [1.0]}})

    def test_holm_steps_down_in_order(self):
        from repro.analysis.stats import holm_reject

        # m = 4: 0.001 <= 0.05/4 and 0.012 <= 0.05/3 and 0.02 <= 0.05/2
        # reject (Bonferroni would stop at 0.0125); 0.9 > 0.05 stands.
        assert holm_reject([0.9, 0.012, 0.001, 0.02]).tolist() == [False, True, True, True]
        # 0.03 > 0.05/3 stops the procedure: 0.04 <= 0.05/2 stands anyway.
        assert holm_reject([0.01, 0.04, 0.03, 0.2]).tolist() == [True, False, False, False]
        assert holm_reject([]).tolist() == []

    def test_holm_spans_every_config(self):
        """One family across configs: a p that one config alone would
        reject is kept when the family is large."""
        from repro.analysis.stats import ensemble_equivalence

        rng = np.random.default_rng(5)
        a = {f"c{i}": {"m": rng.normal(size=20).tolist()} for i in range(40)}
        b = {f"c{i}": {"m": rng.normal(size=20).tolist()} for i in range(40)}
        b["c0"]["m"] = (np.asarray(a["c0"]["m"]) + 0.8).tolist()
        rows = ensemble_equivalence(a, b)
        c0 = next(r for r in rows if r.config == "c0")
        assert c0.p < 0.05 and not c0.reject

    def test_hedges_g(self):
        from repro.analysis.stats import hedges_g

        a, b = [0.0, 1.0, 2.0], [1.0, 2.0, 3.0]
        # Pooled sd 1, raw difference 1, small-sample factor 1 - 3/15.
        assert hedges_g(a, b) == pytest.approx(0.8)
        assert hedges_g(b, a) == pytest.approx(-0.8)
        assert np.isnan(hedges_g([1.0], [2.0, 3.0]))
        assert np.isnan(hedges_g([1.0, 1.0], [2.0, 2.0]))
