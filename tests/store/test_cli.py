"""Tests for the unified ``repro`` CLI."""

import pytest

import repro.sim._sweep as sweep_mod
from repro.store.cli import build_parser, main
from repro.store._runstore import RunStore

#: CLI overrides shrinking any scenario to a smoke-test horizon.
TINY_SETS = [
    "--set", "n_agents=20",
    "--set", "n_articles=5",
    "--set", "training_steps=30",
    "--set", "eval_steps=20",
]


def run_tiny(store_dir, scenario="capacity/heterogeneous", extra=()):
    return main(
        [
            "run", scenario,
            "--fast", "--seeds", "1",
            "--executor", "serial",
            "--store", str(store_dir),
            *TINY_SETS,
            *extra,
        ]
    )


class TestParser:
    def test_subcommands_registered(self):
        parser = build_parser()
        for argv in (
            ["scenarios"],
            ["run", "paper/fig3"],
            ["figures", "all"],
            ["sweep"],
            ["profile", "base/default"],
            ["ls"],
            ["report"],
            ["trace", "base/default"],
            ["stats"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bad_set_field(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["sweep", "--set", "no_such_field=1", "--store", str(tmp_path)])

    def test_bad_set_syntax(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["sweep", "--set", "n_agents", "--store", str(tmp_path)])

    def test_structured_fields_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["sweep", "--set", "mix=1", "--store", str(tmp_path)])

    def test_special_float_values_parse(self):
        from repro.store.cli import _parse_value

        assert _parse_value("inf") == float("inf")
        assert _parse_value("-inf") == float("-inf")
        assert _parse_value("NaN") != _parse_value("NaN")  # genuine nan
        assert _parse_value("0.5") == 0.5
        assert _parse_value("karma") == "karma"

    def test_where_rejects_non_leaf_structured_field(self, tmp_path):
        with pytest.raises(SystemExit, match="structured field"):
            main(["report", "--store", str(tmp_path), "--where", "mix=0.5"])

    def test_seeds_and_seed_axis_mutually_exclusive(self, tmp_path):
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(
                [
                    "sweep",
                    "--seeds", "5",
                    "--set", "seed=1,2",
                    "--store", str(tmp_path),
                ]
            )


class TestScenarios:
    def test_lists_packs(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "paper/fig3" in out
        assert "schemes/shootout" in out

    def test_tag_filter(self, capsys):
        assert main(["scenarios", "--tag", "churn"]) == 0
        out = capsys.readouterr().out
        assert "churn/storm" in out
        assert "paper/fig3" not in out

    def test_lists_modifiers(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "+adversary/sybil" in out
        assert "+churn/storm" in out


class TestRun:
    def test_run_populates_store(self, tmp_path, capsys):
        assert run_tiny(tmp_path) == 0
        out = capsys.readouterr().out
        assert "0 hits / 3 misses" in out
        assert len(RunStore(tmp_path)) == 3

    def test_run_composed_spec(self, tmp_path, capsys):
        # base/default (1 config/seed) x churn/spike (1 variant) = 1 run.
        assert run_tiny(tmp_path, scenario="base/default+churn/spike") == 0
        out = capsys.readouterr().out
        assert "base/default+churn/spike: 1 configs" in out
        assert len(RunStore(tmp_path)) == 1

    def test_run_unknown_modifier_errors(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown modifier"):
            run_tiny(tmp_path, scenario="base/default+no/such")

    def test_second_run_all_cache_hits(self, tmp_path, capsys, monkeypatch):
        run_tiny(tmp_path)
        capsys.readouterr()
        monkeypatch.setattr(
            sweep_mod, "_task_worker", _raise_worker, raising=True
        )  # any execution would blow up
        assert run_tiny(tmp_path) == 0
        out = capsys.readouterr().out
        assert "3 hits / 0 misses" in out

    def test_unknown_scenario_clean_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit, match="unknown scenario"):
            main(["run", "no/such", "--store", str(tmp_path)])

    def test_no_store_flag(self, tmp_path, capsys):
        assert run_tiny(tmp_path, extra=("--no-store",)) == 0
        out = capsys.readouterr().out
        assert "cache:" not in out
        assert len(RunStore(tmp_path)) == 0


class TestSweep:
    def test_grid_expansion(self, tmp_path, capsys):
        rc = main(
            [
                "sweep",
                "--seeds", "1",
                "--executor", "serial",
                "--store", str(tmp_path),
                "--quiet",
                *TINY_SETS,
                "--set", "scheme=karma,tft",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "scheme=karma" in out
        assert "scheme=tft" in out
        assert len(RunStore(tmp_path)) == 2


class TestProfile:
    def test_profile_prints_hot_functions(self, capsys):
        rc = main(
            [
                "profile", "base/default",
                "--fast", "--limit", "5",
                *TINY_SETS,
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "profiling base/default" in out
        assert "cumulative time" in out
        assert "run_simulation" in out

    def test_profile_sort_key_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["profile", "base/default", "--sort", "no-such-key"]
            )

    def test_profile_unknown_scenario_clean_error(self):
        with pytest.raises(SystemExit, match="unknown scenario"):
            main(["profile", "no/such"])


class TestLsReport:
    """`ls` and `report` must render without executing any simulation."""

    @pytest.fixture()
    def populated(self, tmp_path, capsys):
        run_tiny(tmp_path)
        capsys.readouterr()
        return tmp_path

    def test_ls_renders_runs(self, populated, capsys, monkeypatch):
        monkeypatch.setattr(sweep_mod, "_task_worker", _raise_worker)
        monkeypatch.setattr("repro.sim.engine.run_simulation", _raise_worker)
        assert main(["ls", "--store", str(populated)]) == 0
        out = capsys.readouterr().out
        assert "3 runs" in out
        assert "shared_files=" in out

    def test_ls_empty_store(self, tmp_path, capsys):
        assert main(["ls", "--store", str(tmp_path / "empty")]) == 0
        assert "empty" in capsys.readouterr().out

    def test_report_aggregates(self, populated, capsys, monkeypatch):
        monkeypatch.setattr(sweep_mod, "_task_worker", _raise_worker)
        monkeypatch.setattr("repro.sim.engine.run_simulation", _raise_worker)
        assert main(["report", "--store", str(populated)]) == 0
        out = capsys.readouterr().out
        assert "capacity_sigma" in out
        assert "shared_files" in out

    def test_report_where_filter(self, populated, capsys):
        rc = main(
            ["report", "--store", str(populated), "--where", "capacity_sigma=0.5"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "base" in out  # single group left after filtering

    def test_report_custom_metric(self, populated, capsys):
        rc = main(
            ["report", "--store", str(populated), "--metric", "utility_sharing"]
        )
        assert rc == 0
        assert "utility_sharing" in capsys.readouterr().out


class TestTrace:
    def trace_tiny(self, store_dir, extra=()):
        return main(
            [
                "trace", "base/default",
                "--fast",
                "--store", str(store_dir),
                *TINY_SETS,
                *extra,
            ]
        )

    def test_trace_prints_breakdown_and_persists(self, tmp_path, capsys):
        assert self.trace_tiny(tmp_path) == 0
        out = capsys.readouterr().out
        assert "tracing base/default" in out
        assert "edit_vote" in out
        assert "phase coverage" in out
        store = RunStore(tmp_path)
        assert len(store) == 1  # the traced run itself is cached
        (key,) = store.telemetry_hashes()
        payload = store.get_telemetry(key)
        assert payload["meta"]["scenario"] == "base/default"
        assert any(
            s["name"] == "phase/edit_vote" for s in payload["spans"]
        )

    def test_trace_json_is_machine_readable(self, tmp_path, capsys):
        import json

        assert self.trace_tiny(tmp_path, extra=("--json",)) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config_hash"] == RunStore(tmp_path).telemetry_hashes()[0]
        rows = doc["breakdown"]["phases"]
        assert {r["name"] for r in rows} >= {"phase/act", "phase/edit_vote"}
        assert doc["breakdown"]["coverage"] >= 0.95

    def test_trace_jsonl_exports_events(self, tmp_path, capsys):
        import json

        path = tmp_path / "events.jsonl"
        assert self.trace_tiny(tmp_path, extra=("--jsonl", str(path))) == 0
        lines = path.read_text("utf-8").splitlines()
        assert lines
        event = json.loads(lines[0])
        assert set(event) == {"name", "start_s", "duration_s"}

    def test_trace_no_store(self, tmp_path, capsys):
        assert self.trace_tiny(tmp_path, extra=("--no-store",)) == 0
        store = RunStore(tmp_path)
        assert len(store) == 0
        assert store.telemetry_hashes() == []

    def test_trace_unknown_scenario_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="unknown scenario"):
            main(["trace", "no/such", "--store", str(tmp_path)])


class TestStats:
    def test_stats_empty_store(self, tmp_path, capsys):
        assert main(["stats", "--store", str(tmp_path)]) == 0
        assert "no telemetry" in capsys.readouterr().out

    def test_stats_aggregates_without_simulating(self, tmp_path, capsys, monkeypatch):
        assert TestTrace().trace_tiny(tmp_path) == 0
        capsys.readouterr()
        monkeypatch.setattr(sweep_mod, "_task_worker", _raise_worker)
        monkeypatch.setattr("repro.sim.engine.run_simulation", _raise_worker)
        assert main(["stats", "--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "phase/edit_vote" in out
        assert "1 telemetry artifacts" in out

    def test_stats_json(self, tmp_path, capsys):
        import json

        assert TestTrace().trace_tiny(tmp_path) == 0
        capsys.readouterr()
        assert main(["stats", "--store", str(tmp_path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"] == 1
        assert any(row["name"] == "engine/train" for row in doc["spans"])


class TestDispatchCLI:
    SWEEP_TINY = [
        "sweep", "--fast", "--seeds", "1", "--executor", "serial",
        "--set", "n_agents=8,10", "--set", "n_articles=2",
        "--set", "founders_per_article=2",
        "--set", "training_steps=5", "--set", "eval_steps=5",
    ]

    def test_serve_takes_the_shared_dispatch_flag(self, capsys):
        parser = build_parser()
        assert parser.parse_args(["serve", "--dispatch", "store"]).dispatch == "store"
        assert parser.parse_args(["serve"]).dispatch is None
        with pytest.raises(SystemExit):
            parser.parse_args(["serve", "--dispatch-store"])
        assert "unrecognized arguments: --dispatch-store" in capsys.readouterr().err

    def test_sweep_worker_registered(self):
        args = build_parser().parse_args(["sweep-worker", "rs"])
        assert callable(args.func)

    def test_dispatch_store_requires_store(self, tmp_path):
        with pytest.raises(SystemExit, match="dispatch=store"):
            main([*self.SWEEP_TINY, "--dispatch", "store", "--no-store",
                  "--store", str(tmp_path)])

    def test_publish_only_requires_store(self, tmp_path):
        with pytest.raises(SystemExit, match="publish-only"):
            main([*self.SWEEP_TINY, "--publish-only", "--no-store",
                  "--store", str(tmp_path)])

    def test_publish_only_writes_manifest_without_running(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr(sweep_mod, "_task_worker", _raise_worker)
        assert main([*self.SWEEP_TINY, "--publish-only",
                     "--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "published grid" in out
        store = RunStore(tmp_path)
        assert len(store.grid_keys()) == 1
        assert len(store) == 0  # nothing computed

    def test_dispatch_sweep_then_worker_finds_nothing_left(
        self, tmp_path, capsys
    ):
        assert main([*self.SWEEP_TINY, "--dispatch", "store",
                     "--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "dispatch:" in out and "computed" in out
        assert main(["sweep-worker", str(tmp_path)]) == 0
        assert "no undrained grids" in capsys.readouterr().out

    def test_sweep_worker_drains_published_grid(self, tmp_path, capsys):
        assert main([*self.SWEEP_TINY, "--publish-only",
                     "--store", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["sweep-worker", str(tmp_path), "--summary-json",
                     "--quiet"]) == 0
        import json as _json

        summary = _json.loads(capsys.readouterr().out.splitlines()[-1])
        assert summary["computed"] == 2
        store = RunStore(tmp_path)
        assert len(store) == 2

    def test_sweep_worker_trace_persists_grid_telemetry(self, tmp_path, capsys):
        assert main([*self.SWEEP_TINY, "--publish-only",
                     "--store", str(tmp_path)]) == 0
        store = RunStore(tmp_path)
        key = store.grid_keys()[0]
        assert main(["sweep-worker", str(tmp_path), "--trace", "--quiet"]) == 0
        telemetry = store.get_telemetry(key)
        assert telemetry is not None
        assert telemetry["meta"]["kind"] == "sweep-worker"
        assert any(
            s["name"].startswith("dispatch/") for s in telemetry["spans"]
        )

    def test_sweep_worker_unknown_grid_errors(self, tmp_path):
        RunStore(tmp_path)
        with pytest.raises(SystemExit, match="no grid"):
            main(["sweep-worker", str(tmp_path), "--grid", "feedbeef"])


def _raise_worker(*args, **kwargs):  # pragma: no cover - must never run
    raise AssertionError("a simulation executed where none was allowed")


class TestExecutorFlag:
    """``--executor`` picks the sweep parallelization; ``--backend`` is gone."""

    def test_executor_flag_replaces_old_spelling(self, tmp_path, capsys):
        assert main([
            "run", "capacity/heterogeneous",
            "--fast", "--seeds", "1",
            "--executor", "serial",
            "--store", str(tmp_path),
            *TINY_SETS,
        ]) == 0
        assert "deprecated" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "base/default"],
            ["sweep"],
            ["chaos", "base/default", "--plan", "{}"],
            ["trace", "base/default"],
            ["profile", "base/default"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_backend_flag_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([*argv, "--backend", "serial"])
        assert "unrecognized arguments: --backend" in capsys.readouterr().err
