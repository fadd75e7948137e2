"""Directional reproduction tests for the paper's headline claims.

These run reduced-scale simulations (smaller population, shorter horizon)
with fixed seeds, asserting the *direction* of each effect the paper
reports.  Checking the magnitudes at the paper's full horizon is
ROADMAP item 2.
"""

import numpy as np
import pytest

from repro.agents.population import PopulationMix
from repro.sim.config import SimulationConfig
from repro.sim._sweep import run_sweep


def cfg(**overrides) -> SimulationConfig:
    defaults = dict(
        n_agents=60,
        n_articles=15,
        training_steps=900,
        eval_steps=500,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


SEEDS = (101, 202, 303)


@pytest.fixture(scope="module")
def fig3_results():
    configs = [cfg(incentives_enabled=True, seed=s) for s in SEEDS] + [
        cfg(incentives_enabled=False, seed=s) for s in SEEDS
    ]
    results = run_sweep(configs, executor="process")
    return results[:3], results[3:]


class TestFig3IncentiveEffect:
    def test_incentives_increase_bandwidth_sharing(self, fig3_results):
        with_inc, without = fig3_results
        inc = np.mean([r.summary["shared_bandwidth"] for r in with_inc])
        base = np.mean([r.summary["shared_bandwidth"] for r in without])
        assert inc > base

    def test_incentives_increase_article_sharing(self, fig3_results):
        with_inc, without = fig3_results
        inc = np.mean([r.summary["shared_files"] for r in with_inc])
        base = np.mean([r.summary["shared_files"] for r in without])
        assert inc > base

    def test_gain_is_moderate_not_extreme(self, fig3_results):
        """The paper stresses the scheme is only 'moderately effective'."""
        with_inc, without = fig3_results
        inc = np.mean([r.summary["shared_bandwidth"] for r in with_inc])
        base = np.mean([r.summary["shared_bandwidth"] for r in without])
        assert (inc - base) / base < 1.0  # nowhere near a 2x takeover


class TestFig7MajorityFollowing:
    def test_rational_follow_altruistic_majority(self):
        results = run_sweep(
            [
                cfg(
                    mix=PopulationMix(0.15, 0.70, 0.15),
                    enforce_edit_threshold=False,
                    seed=s,
                )
                for s in SEEDS
            ],
            executor="process",
        )
        fracs = [r.summary["edit_constructive_fraction_rational"] for r in results]
        assert np.mean(fracs) > 0.6

    def test_rational_follow_irrational_majority(self):
        results = run_sweep(
            [
                cfg(
                    mix=PopulationMix(0.15, 0.15, 0.70),
                    enforce_edit_threshold=False,
                    seed=s,
                )
                for s in SEEDS
            ],
            executor="process",
        )
        fracs = [r.summary["edit_constructive_fraction_rational"] for r in results]
        assert np.mean(fracs) < 0.4

    def test_acceptance_tracks_majority(self):
        good = run_sweep(
            [
                cfg(
                    mix=PopulationMix(0.15, 0.70, 0.15),
                    enforce_edit_threshold=False,
                    seed=SEEDS[0],
                )
            ]
        )[0]
        bad = run_sweep(
            [
                cfg(
                    mix=PopulationMix(0.15, 0.15, 0.70),
                    enforce_edit_threshold=False,
                    seed=SEEDS[0],
                )
            ]
        )[0]
        assert good.summary["accepted_constructive_rate"] > 0.9
        assert bad.summary["accepted_destructive_rate"] > 0.9


class TestSchemeStrongerThanPaperSimulated:
    def test_edit_gate_protects_against_irrational_majority(self):
        """Reproduction finding: with the designed theta gate enforced,
        free-riding vandals cannot enter voter pools and the constructive
        camp prevails even against a 70 % irrational population."""
        res = run_sweep(
            [
                cfg(
                    mix=PopulationMix(0.15, 0.15, 0.70),
                    enforce_edit_threshold=True,
                    seed=SEEDS[0],
                )
            ]
        )[0]
        assert res.summary["accepted_constructive_rate"] > 0.8
        assert res.summary["edits_destructive_irrational"] == 0.0


class TestFig4NetworkScaling:
    def test_sharing_scales_with_population_mix(self):
        lo_alt = cfg(mix=PopulationMix(0.4, 0.2, 0.4), seed=SEEDS[0])
        hi_alt = cfg(mix=PopulationMix(0.4, 0.4, 0.2), seed=SEEDS[0])
        results = run_sweep([lo_alt, hi_alt], executor="process")
        assert (
            results[1].summary["shared_files"] > results[0].summary["shared_files"]
        )
        assert (
            results[1].summary["shared_bandwidth"]
            > results[0].summary["shared_bandwidth"]
        )


class TestFig5RationalStability:
    def test_rational_sharing_insensitive_to_mix(self):
        """Paper: rational behaviour is nearly flat across mixes."""
        mixes = [PopulationMix(0.3, 0.5, 0.2), PopulationMix(0.3, 0.2, 0.5)]
        results = run_sweep(
            [cfg(mix=m, seed=s) for m in mixes for s in SEEDS[:2]],
            executor="process",
        )
        a = np.mean(
            [r.summary["shared_bandwidth_rational"] for r in results[:2]]
        )
        b = np.mean(
            [r.summary["shared_bandwidth_rational"] for r in results[2:]]
        )
        # Within a modest band, not scaling with the 30-point mix change.
        assert abs(a - b) < 0.15

    def test_bandwidth_shared_more_than_articles(self):
        """Paper Figure 5: bandwidth ~0.54-0.68 vs articles ~0.21-0.29."""
        res = run_sweep([cfg(mix=PopulationMix(0.4, 0.3, 0.3), seed=SEEDS[1])])[0]
        assert (
            res.summary["shared_bandwidth_rational"]
            > res.summary["shared_files_rational"]
        )
