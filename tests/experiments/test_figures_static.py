"""Tests for the simulation-free figure drivers (Figures 1 and 2)."""

import numpy as np
import pytest

from repro.experiments import fig1_reputation, fig2_boltzmann


class TestFig1:
    def test_four_paper_betas(self):
        figs = fig1_reputation.run()
        assert len(figs) == 1
        fig = figs[0]
        assert len(fig.series) == 4
        assert set(fig.series) == {
            "beta=0.3",
            "beta=0.2",
            "beta=0.15",
            "beta=0.1",
        }

    def test_curves_start_at_r_min(self):
        fig = fig1_reputation.run()[0]
        for values in fig.series.values():
            assert values[0] == pytest.approx(0.05)

    def test_curves_monotone(self):
        fig = fig1_reputation.run()[0]
        for values in fig.series.values():
            assert np.all(np.diff(values) >= 0)

    def test_steeper_beta_higher_at_midrange(self):
        fig = fig1_reputation.run()[0]
        mid = np.searchsorted(fig.x, 15.0)
        assert fig.series["beta=0.3"][mid] > fig.series["beta=0.1"][mid]

    def test_fast_mode_fewer_points(self):
        fast = fig1_reputation.run(fast=True)[0]
        full = fig1_reputation.run()[0]
        assert fast.x.size < full.x.size


class TestFig2:
    def test_two_temperatures(self):
        figs = fig2_boltzmann.run()
        assert len(figs) == 2
        assert figs[0].meta["T"] == 2.0
        assert figs[1].meta["T"] == 1000.0

    def test_distributions_sum_to_one(self):
        for fig in fig2_boltzmann.run():
            assert fig.series["p"].sum() == pytest.approx(1.0)

    def test_t2_concentrates_t1000_flat(self):
        low_t, high_t = fig2_boltzmann.run()
        assert low_t.series["p"][-1] > 0.3
        assert np.all(np.abs(high_t.series["p"] - 0.1) < 0.01)

    def test_monotone_increasing_in_x(self):
        for fig in fig2_boltzmann.run():
            assert np.all(np.diff(fig.series["p"]) > 0)


def test_fig1_reputation_curves():
    fig = fig1_reputation.run()[0]
    assert len(fig.series) == 4
    assert fig.x.size == 101
    for curve in fig.series.values():
        assert curve[0] == np.float64(0.05) or abs(curve[0] - 0.05) < 1e-12
        assert np.all(np.diff(curve) >= 0)


def test_fig2_boltzmann_distributions():
    figs = fig2_boltzmann.run()
    assert len(figs) == 2
    low_t, high_t = figs
    assert low_t.series["p"].sum() == np.float64(1.0) or abs(
        low_t.series["p"].sum() - 1.0
    ) < 1e-12
    assert low_t.series["p"][-1] > 0.3  # T=2 concentrates
    assert np.all(np.abs(high_t.series["p"] - 0.1) < 0.01)  # T=1000 flat
