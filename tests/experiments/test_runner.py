"""Tests for the figure table and its front end, ``repro figures``."""

import re
from collections import defaultdict
from pathlib import Path

import pytest

from repro.experiments.runner import (
    EXPERIMENTS,
    EXTRA_EXPERIMENTS,
    PAPER_FIGURES,
    run_figures,
)
from repro.sim import scenarios
from repro.sim._sweep import run_sweep
from repro.sim.engine import SimulationResult
from repro.store import cli
from repro.store._runstore import RunStore
from repro.store.cli import build_parser, main
from repro.store.hashing import config_hash

FAMILY_VALUE = {"linear": 1.0, "power": 2.0, "step": 3.0}


class SweepRecorder:
    """A sweep that records each call's configs and returns fake results.

    A result's ``shared_files`` is its sharing beta for logistic configs
    and a per-family constant otherwise, so renderers' grouping shows.
    """

    def __init__(self):
        self.calls = []

    def __call__(self, configs, **_):
        self.calls.append(list(configs))
        results = []
        for c in configs:
            summary = defaultdict(lambda: 0.5)
            summary["shared_files"] = FAMILY_VALUE.get(
                c.reputation_fn_s, c.constants.reputation_s.beta
            )
            results.append(SimulationResult(c, summary, {}, 0.0))
        return results


@pytest.fixture
def recorded_sweeps(monkeypatch):
    """A :class:`SweepRecorder` that also stands in for the CLI's sweep."""
    recorder = SweepRecorder()
    monkeypatch.setattr(cli, "run_sweep", recorder)
    return recorder


class TestParser:
    def test_all_figures_registered(self):
        for name in PAPER_FIGURES:
            assert name in EXPERIMENTS

    def test_ablations_registered(self):
        assert "ablation-repfunc" in EXPERIMENTS
        assert "ablation-rmin" in EXPERIMENTS

    def test_parser_defaults(self):
        args = build_parser().parse_args(["figures", "fig1"])
        assert args.names == ["fig1"]
        assert not args.fast
        assert args.executor == "process"

    def test_parser_rejects_unknown(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["figures", "fig99", "--no-store", "--out", str(tmp_path)])

    def test_parser_rejects_backend_flag(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figures", "fig1", "--backend", "serial"])

    def test_extras_are_registered_experiments(self):
        for name in EXTRA_EXPERIMENTS:
            assert name in EXPERIMENTS
            assert name not in PAPER_FIGURES

    def test_parser_store_and_extras(self):
        args = build_parser().parse_args(
            ["figures", "all", "--extras", "--store", "cache"]
        )
        assert args.extras
        assert str(args.store) == "cache"
        assert build_parser().parse_args(["figures", "fig1"]).store == Path("runstore")


class TestMain:
    def test_fig1_end_to_end(self, tmp_path, capsys):
        rc = main(["figures", "fig1", "--fast", "--no-store", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "fig1.csv").exists()
        assert (tmp_path / "fig1.json").exists()
        out = capsys.readouterr().out
        assert "fig1" in out

    def test_fig2_end_to_end(self, tmp_path):
        rc = main(["figures", "fig2", "--fast", "--no-store", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "fig2_T2.csv").exists()
        assert (tmp_path / "fig2_T1000.csv").exists()

    def test_analytic_figures_open_no_store(self, tmp_path, capsys):
        store = tmp_path / "cache"
        argv = ["figures", "fig1", "fig2", "--fast", "--store", str(store),
                "--out", str(tmp_path / "out")]
        assert main(argv) == 0
        assert not store.exists()
        out = capsys.readouterr().out
        assert "distinct configs" not in out
        assert "cache:" not in out


class TestOneSweep:
    @pytest.mark.parametrize(
        "argv, n_configs", [(["all"], 110), (["all", "--extras"], 168)]
    )
    def test_each_distinct_config_runs_once(
        self, recorded_sweeps, tmp_path, argv, n_configs
    ):
        assert main(["figures", *argv, "--no-store", "--out", str(tmp_path)]) == 0
        (configs,) = recorded_sweeps.calls
        assert len({config_hash(c) for c in configs}) == len(configs) == n_configs

    def test_ablation_panels_share_the_default_logistic_arm(self, recorded_sweeps):
        beta, family = run_figures(
            ["ablation-repfunc"], sweep=recorded_sweeps, n_seeds=2
        )["ablation-repfunc"]
        # 4 betas + 4 families at 2 seeds, the beta = 0.2 arm being the
        # logistic family's: 14 distinct configs.
        assert len(recorded_sweeps.calls[0]) == 14
        assert beta.x.tolist() == [0.1, 0.15, 0.2, 0.3]
        assert beta.series["articles"].tolist() == [0.1, 0.15, 0.2, 0.3]
        assert family.meta["families"] == "logistic,linear,power,step"
        assert family.series["articles"].tolist() == [0.2, 1.0, 2.0, 3.0]

    def test_zero_seeds_rejected(self, recorded_sweeps):
        with pytest.raises(ValueError, match="n_seeds must be >= 1"):
            run_figures(["fig3"], sweep=recorded_sweeps, n_seeds=0)
        assert recorded_sweeps.calls == []

    def test_rmin_axis(self, recorded_sweeps):
        (fig,) = run_figures(
            ["ablation-rmin"], sweep=recorded_sweeps, n_seeds=1
        )["ablation-rmin"]
        assert fig.x.tolist() == [0.02, 0.05, 0.1, 0.2, 0.4]
        assert fig.meta["whitewash_rate"] == 0.002


class TestStoreIntegration:
    @pytest.fixture(autouse=True)
    def tiny_scale(self, monkeypatch):
        monkeypatch.setattr(scenarios, "FAST_TRAINING_STEPS", 40)
        monkeypatch.setattr(scenarios, "FAST_EVAL_STEPS", 30)

    def test_cache_line_printed_and_later_sweeps_leave_the_store_alone(
        self, tmp_path, capsys
    ):
        argv = [
            "figures",
            "fig3",
            "--fast",
            "--seeds",
            "1",
            "--executor",
            "serial",
            "--out",
            str(tmp_path / "out"),
            "--store",
            str(tmp_path / "cache"),
        ]
        assert main(argv) == 0
        assert "cache: 0 hits / 2 misses" in capsys.readouterr().out
        assert main(argv) == 0
        assert "cache: 2 hits / 0 misses" in capsys.readouterr().out
        # The store is passed to the command's sweep only: a later sweep
        # without one leaves it untouched.
        run_sweep([scenarios.base_config(True, seed=1)], executor="serial")
        assert len(RunStore(tmp_path / "cache")) == 2

    def test_rerun_serves_every_config_from_the_store_and_writes_the_same_files(
        self, tmp_path, capsys
    ):
        def figures(out):
            argv = ["figures", "fig1", "fig3", "fig7", "--fast", "--seeds", "1",
                    "--executor", "serial", "--quiet",
                    "--store", str(tmp_path / "cache"), "--out", str(out)]
            assert main(argv) == 0
            return capsys.readouterr().out

        first = re.search(r"cache: 0 hits / (\d+) misses", figures(tmp_path / "a"))
        n_configs = int(first.group(1))
        assert n_configs > 0
        assert f"cache: {n_configs} hits / 0 misses" in figures(tmp_path / "b")
        written = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert written == sorted(p.name for p in (tmp_path / "b").iterdir())
        assert {"fig1.csv", "fig3.json", "fig7_irrational.csv"} <= set(written)
        for name in written:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()
