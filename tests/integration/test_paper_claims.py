"""Directional reproduction tests for the paper's headline claims.

These run reduced-scale simulations (smaller population, shorter horizon)
with fixed seeds, asserting the *direction* of each effect the paper
reports.  The classes run at :func:`cfg`'s scale; the per-figure checks
after them (Figures 4-6 and the two ablations) regenerate one figure
each at :func:`short_cfg`'s shorter horizon.  Checking the magnitudes at
the paper's full horizon is ROADMAP item 2.
"""

import numpy as np
import pytest

from repro.agents.population import PopulationMix, mixture_sweep
from repro.core.params import PaperConstants, ReputationParams, ServiceParams
from repro.sim.config import SimulationConfig
from repro.sim.engine import run_replicates
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


def short_cfg(**overrides) -> SimulationConfig:
    defaults = dict(
        n_agents=50,
        n_articles=10,
        training_steps=400,
        eval_steps=250,
        seed=9,
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
        """Paper Figure 5: bandwidth ~0.54-0.68 vs articles ~0.21-0.29.

        A mean over 12 seeds, run as one lane batch: a single seed's
        margin is positive in only 18 of 20 seeds (100-119; mean 0.087,
        sd 0.072), so one seed cannot carry the claim.
        """
        results = run_sweep(
            [cfg(mix=PopulationMix(0.4, 0.3, 0.3), seed=s) for s in range(200, 212)]
        )
        bw = np.mean([r.summary["shared_bandwidth_rational"] for r in results])
        files = np.mean([r.summary["shared_files_rational"] for r in results])
        assert bw > files


def test_fig4_population_mix():
    """Sharing rises with the altruistic share and falls with the
    irrational share (three points per curve)."""
    series = {}
    for vary in ("altruistic", "irrational"):
        configs = [
            short_cfg(mix=mix, seed=7) for mix in mixture_sweep(vary, [20, 50, 80])
        ]
        results = run_sweep(configs, executor="process", workers=3)
        series[vary] = [r.summary["shared_files"] for r in results]
    alt = series["altruistic"]
    irr = series["irrational"]
    assert alt[-1] > alt[0], "sharing must rise with altruistic share"
    assert irr[-1] < irr[0], "sharing must fall with irrational share"


def test_fig5_rational_stability():
    """Rational sharing is insensitive to the population mix.

    Each mix is averaged over two seed replicates: a single
    reduced-horizon run leaves the per-mix estimate too noisy for a band
    assertion.  The paper's second observation (bandwidth shared more
    than articles) only separates at full horizon, so this asserts the
    robust part: rational peers settle on substantial-but-partial
    sharing in every mix rather than full sharing or free-riding.
    """
    points = []
    for vary in ("altruistic", "irrational"):
        for mix in mixture_sweep(vary, [20, 80]):
            results = run_replicates(short_cfg(mix=mix, seed=11), 2)
            points.append(
                (
                    np.mean([r.summary["shared_files_rational"] for r in results]),
                    np.mean(
                        [r.summary["shared_bandwidth_rational"] for r in results]
                    ),
                )
            )
    bw = np.array([p[1] for p in points])
    files = np.array([p[0] for p in points])
    # Stability: the rational bandwidth band stays narrow across mixes.
    assert bw.max() - bw.min() < 0.25
    # Partial sharing: every mix lands between free-riding and all-in.
    assert np.all((bw > 0.2) & (bw < 0.8))
    assert np.all((files > 0.2) & (files < 0.8))


def test_fig6_edit_coin_flip():
    """At a 50/50 split of the fixed camps rational edits are a coin flip.

    One mid-grid point over three seeds: the outcome stays undetermined
    on average (neither camp captures every seed), the signature of the
    paper's "completely random" regime.
    """
    mix = PopulationMix(rational=0.4, altruistic=0.3, irrational=0.3)
    configs = [
        short_cfg(mix=mix, enforce_edit_threshold=False, seed=s)
        for s in (5, 17, 29)
    ]
    results = run_sweep(configs, executor="process", workers=3)
    fracs = np.array(
        [r.summary["edit_constructive_fraction_rational"] for r in results]
    )
    fracs = fracs[~np.isnan(fracs)]
    assert fracs.size == 3
    assert np.all(fracs >= 0.0) and np.all(fracs <= 1.0)
    assert 0.05 < fracs.mean() < 0.95


def test_ablation_reputation_function():
    """Every reputation-function family runs to bounded sharing (the
    paper's future work compares them)."""
    families = ("logistic", "linear", "power")
    results = run_sweep(
        [short_cfg(reputation_fn_s=f, seed=23) for f in families],
        executor="process",
        workers=3,
    )
    table = {
        f: (r.summary["shared_files"], r.summary["shared_bandwidth"])
        for f, r in zip(families, results)
    }
    assert set(table) == set(families)
    for files, bw in table.values():
        assert 0.0 <= files <= 1.0
        assert 0.0 <= bw <= 1.0


def test_ablation_rmin_whitewash_pressure():
    """Section III-A: "A high R_min provides incentives for whitewashing".

    The reputation a steady contributor forfeits by resetting to R_min
    (the deterrent) must shrink as R_min grows; both points run with
    identity-reset churn enabled.
    """
    loss = {}
    for r_min in (0.05, 0.40):
        constants = PaperConstants().with_overrides(
            reputation_s=ReputationParams(r_min=r_min),
            service=ServiceParams(edit_threshold=r_min + 0.05),
        )
        config = short_cfg(constants=constants, whitewash_rate=0.002, seed=3)
        res = run_sweep([config])[0]
        loss[r_min] = res.summary["reputation_s_rational"] - r_min
    assert loss[0.05] > loss[0.40]
