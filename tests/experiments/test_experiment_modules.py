"""Fast structural tests of the simulation-backed experiment drivers.

These run the drivers at tiny scale (serial backend, reduced steps) and
verify the FigureData contracts — the directional assertions live in
the benchmarks, and full-scale numbers are ROADMAP item 2.
"""

from collections import defaultdict

import numpy as np
import pytest

from repro.experiments import (
    _common,
    adversary_panel,
    fig3_incentive_effect,
    fig4_population_mix,
    fig6_edit_coin_flip,
    fig7_majority_following,
    scheme_comparison,
)
from repro.sim import scenarios
from repro.sim.engine import SimulationResult
from repro.store.hashing import config_hash
from repro.store.registry import expand_scenario

TINY = dict(training_steps=40, eval_steps=30)


@pytest.fixture(autouse=True)
def tiny_scale(monkeypatch):
    """Shrink the 'fast' scenario constants so drivers finish in seconds."""
    monkeypatch.setattr(scenarios, "FAST_TRAINING_STEPS", 40)
    monkeypatch.setattr(scenarios, "FAST_EVAL_STEPS", 30)


class TestSharedStoreEntries:
    """The figure modules run exactly the configs of the ``paper/`` packs,
    so ``repro-experiments`` and ``repro run paper/...`` share store
    entries."""

    @pytest.mark.parametrize("fast", [True, False], ids=["fast", "full"])
    def test_figure_grids_hash_like_scenario_packs(self, monkeypatch, fast):
        ran = []

        def capture(configs, **_):
            ran.extend(configs)
            summary = defaultdict(lambda: 0.5)
            return [SimulationResult(c, summary, {}, 0.0) for c in configs]

        monkeypatch.setattr(fig3_incentive_effect, "run_sweep", capture)
        monkeypatch.setattr(_common, "run_sweep", capture)
        for module, pack in (
            (fig3_incentive_effect, "paper/fig3"),
            (fig4_population_mix, "paper/fig4"),
            (fig6_edit_coin_flip, "paper/fig6"),
        ):
            ran.clear()
            module.run(fast=fast, n_seeds=2, backend="serial")
            expanded = expand_scenario(pack, fast=fast, n_seeds=2)
            assert len(ran) == len(expanded)
            assert {config_hash(c) for c in ran} == {
                config_hash(c) for c in expanded
            }


class TestFig3Driver:
    def test_figure_contract(self):
        figs = fig3_incentive_effect.run(fast=True, n_seeds=2, backend="serial")
        fig = figs[0]
        assert fig.name == "fig3"
        assert set(fig.series) == {"incentive", "no_incentive"}
        assert fig.x.size == 2
        assert "gain_articles" in fig.meta
        assert "p_bandwidth" in fig.meta


class TestMixtureDrivers:
    def test_fig4_and_5_from_one_sweep(self):
        figs = fig4_population_mix.run_fig4_and_fig5(
            fast=True, n_seeds=1, backend="serial", percentages=[20, 80]
        )
        names = {f.name for f in figs}
        assert names == {
            "fig4_files",
            "fig4_bandwidth",
            "fig5_files",
            "fig5_bandwidth",
        }
        for f in figs:
            assert f.x.tolist() == [20.0, 80.0]
            assert set(f.series) == {"altruistic", "irrational"}

    def test_fig4_alone(self):
        figs = fig4_population_mix.run(
            fast=True, n_seeds=1, backend="serial", percentages=[50]
        )
        assert {f.name for f in figs} == {"fig4_files", "fig4_bandwidth"}


class TestFig6Driver:
    def test_figure_contract(self):
        figs = fig6_edit_coin_flip.run(
            fast=True, n_seeds=2, backend="serial", percentages=[40]
        )
        fig = figs[0]
        assert fig.name == "fig6"
        assert "constructive" in fig.series
        assert "constructive_std" in fig.series
        cons = fig.series["constructive"]
        dest = fig.series["destructive"]
        assert np.allclose(cons + dest, 1.0, atol=1e-9)


class TestFig7Driver:
    def test_two_panels(self):
        figs = fig7_majority_following.run(
            fast=True, n_seeds=1, backend="serial", percentages=[30]
        )
        assert {f.name for f in figs} == {"fig7_altruistic", "fig7_irrational"}


class TestSchemeComparison:
    def test_all_schemes_covered(self):
        figs = scheme_comparison.run(fast=True, n_seeds=1, backend="serial")
        fig = figs[0]
        assert fig.meta["schemes"] == "none,tft,karma,reputation"
        assert fig.series["articles"].size == 4
        assert np.all(fig.series["bandwidth"] >= 0.0)
        assert np.all(fig.series["bandwidth"] <= 1.0)


class TestAdversaryPanel:
    def test_schemes_times_attacks_grid(self):
        figs = adversary_panel.run(fast=True, n_seeds=1, backend="serial")
        fig = figs[0]
        assert fig.name == "adversary_panel"
        assert set(fig.series) == {"collusion", "sybil"}
        assert fig.meta["schemes"] == "none,tft,karma,reputation"
        for attack in ("collusion", "sybil"):
            assert fig.series[attack].size == 4
            assert np.all(fig.series[attack] >= 0.0)
            assert np.all(fig.series[attack] <= 1.0)
