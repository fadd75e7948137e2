"""Tests for the experiment CLI."""

from collections import defaultdict

import pytest

from repro.experiments import runner
from repro.experiments.runner import (
    EXPERIMENTS,
    EXTRA_EXPERIMENTS,
    PAPER_FIGURES,
    build_parser,
    main,
    run_figures,
)
from repro.sim import scenarios
from repro.sim._sweep import run_sweep
from repro.sim.engine import SimulationResult
from repro.store._runstore import RunStore
from repro.store.hashing import config_hash

FAMILY_VALUE = {"linear": 1.0, "power": 2.0, "step": 3.0}


@pytest.fixture
def recorded_sweeps(monkeypatch):
    """Replace the runner's sweep with a recorder returning fake results.

    A result's ``shared_files`` is its sharing beta for logistic configs
    and a per-family constant otherwise, so renderers' grouping shows.
    """
    calls = []

    def record(configs, **_):
        calls.append(list(configs))
        results = []
        for c in configs:
            summary = defaultdict(lambda: 0.5)
            summary["shared_files"] = FAMILY_VALUE.get(
                c.reputation_fn_s, c.constants.reputation_s.beta
            )
            results.append(SimulationResult(c, summary, {}, 0.0))
        return results

    monkeypatch.setattr(runner, "run_sweep", record)
    return calls


class TestParser:
    def test_all_figures_registered(self):
        for name in PAPER_FIGURES:
            assert name in EXPERIMENTS

    def test_ablations_registered(self):
        assert "ablation-repfunc" in EXPERIMENTS
        assert "ablation-rmin" in EXPERIMENTS

    def test_parser_defaults(self):
        args = build_parser().parse_args(["fig1"])
        assert args.experiment == "fig1"
        assert not args.fast
        assert args.executor == "process"

    def test_parser_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_parser_rejects_backend_flag(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig1", "--backend", "serial"])

    def test_extras_are_registered_experiments(self):
        for name in EXTRA_EXPERIMENTS:
            assert name in EXPERIMENTS
            assert name not in PAPER_FIGURES

    def test_parser_store_and_extras(self):
        args = build_parser().parse_args(["all", "--extras", "--store", "cache"])
        assert args.extras
        assert str(args.store) == "cache"
        assert build_parser().parse_args(["fig1"]).store is None


class TestMain:
    def test_fig1_end_to_end(self, tmp_path, capsys):
        rc = main(["fig1", "--fast", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "fig1.csv").exists()
        assert (tmp_path / "fig1.json").exists()
        out = capsys.readouterr().out
        assert "fig1" in out

    def test_fig2_end_to_end(self, tmp_path):
        rc = main(["fig2", "--fast", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "fig2_T2.csv").exists()
        assert (tmp_path / "fig2_T1000.csv").exists()


class TestOneSweep:
    @pytest.mark.parametrize(
        "argv, n_configs", [(["all"], 110), (["all", "--extras"], 168)]
    )
    def test_each_distinct_config_runs_once(
        self, recorded_sweeps, tmp_path, argv, n_configs
    ):
        assert main([*argv, "--out", str(tmp_path)]) == 0
        (configs,) = recorded_sweeps
        assert len({config_hash(c) for c in configs}) == len(configs) == n_configs

    def test_ablation_panels_share_the_default_logistic_arm(self, recorded_sweeps):
        beta, family = run_figures(["ablation-repfunc"], n_seeds=2)["ablation-repfunc"]
        # 4 betas + 4 families at 2 seeds, the beta = 0.2 arm being the
        # logistic family's: 14 distinct configs.
        assert len(recorded_sweeps[0]) == 14
        assert beta.x.tolist() == [0.1, 0.15, 0.2, 0.3]
        assert beta.series["articles"].tolist() == [0.1, 0.15, 0.2, 0.3]
        assert family.meta["families"] == "logistic,linear,power,step"
        assert family.series["articles"].tolist() == [0.2, 1.0, 2.0, 3.0]

    def test_zero_seeds_rejected(self, recorded_sweeps):
        with pytest.raises(ValueError, match="n_seeds must be >= 1"):
            run_figures(["fig3"], n_seeds=0)
        assert recorded_sweeps == []

    def test_rmin_axis(self, recorded_sweeps):
        (fig,) = run_figures(["ablation-rmin"], n_seeds=1)["ablation-rmin"]
        assert fig.x.tolist() == [0.02, 0.05, 0.1, 0.2, 0.4]
        assert fig.meta["whitewash_rate"] == 0.002


class TestStoreIntegration:
    def test_store_line_printed_and_ambient_reset(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(scenarios, "FAST_TRAINING_STEPS", 40)
        monkeypatch.setattr(scenarios, "FAST_EVAL_STEPS", 30)
        argv = [
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
        # The store is passed to the runner's sweep only: a later sweep
        # without one leaves it untouched.
        run_sweep([scenarios.base_config(True, seed=1)], backend="serial")
        assert len(RunStore(tmp_path / "cache")) == 2
