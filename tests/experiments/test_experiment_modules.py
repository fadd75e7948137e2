"""Fast structural tests of the figure renderers over their packs.

These render each figure at tiny scale (serial executor, reduced steps)
and verify the FigureData contracts — the directional assertions live in
the benchmarks, and full-scale numbers are ROADMAP item 2.
"""

import numpy as np
import pytest

from repro.experiments.runner import run_figures
from repro.sim import scenarios
from repro.sim._sweep import run_sweep


@pytest.fixture(autouse=True)
def tiny_scale(monkeypatch):
    """Shrink the 'fast' scenario constants so drivers finish in seconds."""
    monkeypatch.setattr(scenarios, "FAST_TRAINING_STEPS", 40)
    monkeypatch.setattr(scenarios, "FAST_EVAL_STEPS", 30)


def render(*names, n_seeds=1, **params):
    """The named figures' FigureData, from one tiny serial sweep."""
    figures = run_figures(
        list(names),
        sweep=lambda configs: run_sweep(configs, executor="serial"),
        fast=True,
        n_seeds=n_seeds,
        **params,
    )
    return [fig for figs in figures.values() for fig in figs]


class TestFig3Driver:
    def test_figure_contract(self):
        fig = render("fig3", n_seeds=2)[0]
        assert fig.name == "fig3"
        assert set(fig.series) == {"incentive", "no_incentive"}
        assert fig.x.size == 2
        assert "gain_articles" in fig.meta
        assert "p_bandwidth" in fig.meta


class TestMixtureDrivers:
    def test_fig4_and_5_from_one_sweep(self):
        figs = render("fig4", "fig5", percentages=[20, 80])
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
        figs = render("fig4", percentages=[50])
        assert {f.name for f in figs} == {"fig4_files", "fig4_bandwidth"}


class TestFig6Driver:
    def test_figure_contract(self):
        fig = render("fig6", n_seeds=2, percentages=[40])[0]
        assert fig.name == "fig6"
        assert "constructive" in fig.series
        assert "constructive_std" in fig.series
        cons = fig.series["constructive"]
        dest = fig.series["destructive"]
        assert np.allclose(cons + dest, 1.0, atol=1e-9)


class TestFig7Driver:
    def test_two_panels(self):
        figs = render("fig7", percentages=[30])
        assert {f.name for f in figs} == {"fig7_altruistic", "fig7_irrational"}


class TestSchemeComparison:
    def test_all_schemes_covered(self):
        fig = render("scheme-comparison")[0]
        assert fig.meta["schemes"] == "none,tft,karma,reputation"
        assert fig.series["articles"].size == 4
        assert np.all(fig.series["bandwidth"] >= 0.0)
        assert np.all(fig.series["bandwidth"] <= 1.0)


class TestAdversaryPanel:
    def test_schemes_times_attacks_grid(self):
        fig = render("adversary-panel")[0]
        assert fig.name == "adversary_panel"
        assert set(fig.series) == {"collusion", "sybil"}
        assert fig.meta["schemes"] == "none,tft,karma,reputation"
        for attack in ("collusion", "sybil"):
            assert fig.series[attack].size == 4
            assert np.all(fig.series[attack] >= 0.0)
            assert np.all(fig.series[attack] <= 1.0)
