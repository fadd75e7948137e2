"""Bench SWEEP: two sweep-worker processes drain one grid cooperatively.

The same compute-bound grid is drained once alone through the
dispatcher, then published once and drained by two real
``repro sweep-worker`` processes.  Always asserts the
distributed-correctness properties (disjoint computed sets whose union
is the whole grid — zero duplicate computation); on machines with at
least two usable cores it additionally gates the headline property: two
cooperating processes finish in <= 0.6x the single-invocation drain
wall clock.

Wall clocks compare drain loops (``DispatchStats.wall_s``), not process
lifetimes, so interpreter startup does not pollute the ratio.  The core
gate is skipped on single-core runners, where two compute-bound
processes cannot beat one by construction; the dispatcher's cooperative
wall-clock behaviour is still proven there by the sleep-bound tests in
``tests/store/test_dispatch.py``, and the single drain's counts by
``tests/sim/test_sweep_dispatch.py::test_sweep_dispatch_single_drain``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import bench_config
from repro.sim._sweep import run_sweep
from repro.store.dispatch import last_dispatch_stats, publish_sweep_grid
from repro.store.hashing import config_hash
from repro.store._runstore import RunStore

#: Compute-bound dispatch grid: 16 distinct seeds, one task per config,
#: each a ~0.5 s simulation — coarse enough that lease overhead is
#: negligible, fine enough that two workers balance to within one task.
N_CONFIGS = 16
SWEEP_CFG = dict(n_agents=50, n_articles=10, training_steps=400, eval_steps=250)


def sweep_grid():
    return [bench_config(**SWEEP_CFG, seed=s) for s in range(N_CONFIGS)]


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _single_drain_wall(store_root) -> float:
    """Drain the grid alone through the dispatcher; returns drain wall."""
    run_sweep(
        sweep_grid(),
        executor="serial",
        store=RunStore(store_root),
        dispatch="store",
        lane_width=1,
    )
    return last_dispatch_stats().wall_s


def test_sweep_dispatch_cooperative_two_workers(benchmark, tmp_path):
    """Two sweep-worker processes split one grid with zero duplication.

    The <= 0.6x wall-clock gate only runs with >= 2 usable cores; the
    zero-duplicate and completeness assertions always run.
    """
    grid = sweep_grid()
    single_wall = _single_drain_wall(tmp_path / "solo")

    store = RunStore(tmp_path / "coop")
    publish_sweep_grid(store, grid, lane_width=1)
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
    }
    cmd = [
        sys.executable, "-m", "repro.store.cli", "sweep-worker",
        str(store.root), "--summary-json", "--quiet",
    ]

    def cooperative_drain():
        procs = [
            subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
            for _ in range(2)
        ]
        outs = [p.communicate(timeout=600)[0] for p in procs]
        assert all(p.returncode == 0 for p in procs)
        return [json.loads(out.splitlines()[-1]) for out in outs]

    summaries = benchmark.pedantic(cooperative_drain, rounds=1, iterations=1)

    computed = [set(s["computed_hashes"]) for s in summaries]
    assert not (computed[0] & computed[1]), (
        f"duplicate computation: {computed[0] & computed[1]}"
    )
    assert computed[0] | computed[1] == {config_hash(c) for c in grid}
    store.refresh()
    assert all(store.contains(c) for c in grid)

    # Cooperative drain wall: each worker's drain only returns once the
    # whole grid is in the store, so the max spans join -> completion.
    coop_wall = max(
        g["wall_s"] for s in summaries for g in s["grids"].values()
    )
    speedup = single_wall / coop_wall if coop_wall > 0 else float("inf")
    benchmark.extra_info["speedup_x"] = speedup
    benchmark.extra_info["single_wall_s"] = single_wall
    benchmark.extra_info["coop_wall_s"] = coop_wall
    if _usable_cores() >= 2:
        assert coop_wall <= 0.6 * single_wall, (
            f"cooperative drain {coop_wall:.2f}s not <= 0.6x "
            f"single-invocation {single_wall:.2f}s"
        )
