"""Tier-1 collects ``tests/`` only; ``benchmarks/`` holds timings only.

Correctness checks belong under ``tests/``, where no wall clock can fail
them.  ``benchmarks/`` keeps the kernel microbenchmarks, which CI
compares against the base commit, and the bounded timing gates; the CI
bench-smoke job runs that tree.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

KEPT_BENCHMARKS = {
    "benchmarks/test_bench_kernels.py::test_boltzmann_probabilities",
    "benchmarks/test_bench_kernels.py::test_categorical_sampling",
    "benchmarks/test_bench_kernels.py::test_action_selection_end_to_end",
    "benchmarks/test_bench_kernels.py::test_q_update",
    "benchmarks/test_bench_kernels.py::test_bandwidth_allocation",
    "benchmarks/test_bench_kernels.py::test_download_round",
    "benchmarks/test_bench_kernels.py::test_engine_step",
    "benchmarks/test_bench_kernels.py::test_engine_training_step_uniform",
    "benchmarks/test_bench_engine.py::test_engine_batched_speedup",
    "benchmarks/test_bench_engine.py::test_engine_lane_batched_grid_speedup",
    "benchmarks/test_bench_adversary.py::test_adversary_overhead_bounded",
    "benchmarks/test_bench_obs.py::test_obs_disabled_overhead",
    "benchmarks/test_bench_obs.py::test_obs_enabled_overhead",
    "benchmarks/test_bench_obs.py::test_obs_traced_breakdown",
    "benchmarks/test_bench_sweep.py::test_sweep_dispatch_cooperative_two_workers",
}


def collected(*args) -> list[str]:
    """Node ids ``pytest --collect-only -q`` prints from the repo root.

    The outer run's ``PYTEST_ADDOPTS`` (a ``-k`` filter, a report path)
    is dropped, so only the repo's own configuration decides.
    """
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("PYTEST_ADDOPTS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", *args, "--collect-only", "-q",
         "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return [line for line in proc.stdout.splitlines() if "::" in line]


def test_tier1_collects_tests_only():
    ids = collected()
    assert ids
    assert [i for i in ids if not i.startswith("tests/")] == []
    assert set(collected("benchmarks")) == KEPT_BENCHMARKS
