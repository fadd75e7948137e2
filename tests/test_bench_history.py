"""The bench-history tool over a stubbed bench run: seed and check modes."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_history", ROOT / "tools" / "bench_history.py"
)
bench_history = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_history)

MACHINE = {"machine": "x86_64", "cpu": {"count": 2}, "python_version": "3.11.7"}


def bench(name, median, bench_file="test_bench_kernels"):
    return {
        "name": name,
        "fullname": f"benchmarks/{bench_file}.py::{name}",
        "stats": {"median": median},
    }


@pytest.fixture
def stub_run(monkeypatch, tmp_path):
    """Stub pytest: write ``benches`` as its JSON and exit ``returncode``."""
    monkeypatch.setattr(bench_history, "BASELINE", tmp_path / "BENCH_engine.json")

    def install(benches, returncode):
        def run(cmd, **_):
            (arg,) = [a for a in cmd if a.startswith("--benchmark-json=")]
            payload = {"machine_info": MACHINE, "benchmarks": benches}
            Path(arg.split("=", 1)[1]).write_text(json.dumps(payload))
            return subprocess.CompletedProcess(cmd, returncode)

        monkeypatch.setattr(bench_history.subprocess, "run", run)

    return install


def seed_baseline(stub_run, benches):
    stub_run(benches, 0)
    assert bench_history.main([]) == 0
    return json.loads(bench_history.BASELINE.read_text())


class TestSeed:
    def test_writes_every_median(self, stub_run):
        baseline = seed_baseline(
            stub_run, [bench("k", 1e-3), bench("e", 2.0, "test_bench_engine")]
        )
        assert baseline["benchmarks"]["k"] == {"median_s": 1e-3, "group": "kernel"}
        assert baseline["benchmarks"]["e"]["group"] == "engine"

    def test_refuses_a_failed_run(self, stub_run):
        stub_run([bench("k", 1e-3)], 1)
        with pytest.raises(SystemExit, match="bench run failed with exit code 1"):
            bench_history.main([])
        assert not bench_history.BASELINE.exists()


class TestCheck:
    def test_passing_run_within_the_gate(self, stub_run, capsys):
        seed_baseline(stub_run, [bench("k", 1e-3)])
        stub_run([bench("k", 1.5e-3)], 0)
        assert bench_history.main(["--check"]) == 0
        assert "no kernel bench regression" in capsys.readouterr().out

    def test_regression_fails_the_gate(self, stub_run, capsys):
        seed_baseline(stub_run, [bench("k", 1e-3)])
        stub_run([bench("k", 3e-3)], 0)
        assert bench_history.main(["--check"]) == 1
        assert "k: 3.00x > 2.0x" in capsys.readouterr().err

    def test_failed_run_still_compares_every_median(self, stub_run, capsys):
        seed_baseline(
            stub_run,
            [bench("a", 1e-3), bench("b", 1e-3), bench("gate", 1.0, "test_bench_sweep")],
        )
        # The sweep gate failed and "b" wrote no median; "a" and the
        # failed gate's own median are still compared.
        stub_run([bench("a", 1.1e-3), bench("gate", 1.2, "test_bench_sweep")], 1)
        assert bench_history.main(["--check"]) == 1
        out, err = capsys.readouterr()
        assert "kernel   a: 1.100e-03s vs 1.000e-03s (1.10x)" in out
        assert "sweep    gate:" in out
        assert "MISSING  b: no fresh median" in out
        assert "bench run failed with exit code 1: pytest benchmarks/" in err
