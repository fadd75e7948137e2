"""Bench ENGINE: the lane axis must pay for itself.

Two speedup gates at a fig3-sized configuration (100 agents, 30
articles, a bench-scale horizon), both as CPU time, median of
back-to-back paired rounds, which is robust to the throttling and clock
changes of shared CI runners; the batched engine holds one core, so CPU
time ~ wall time:

* 8 seed replicates batched beat 8 in-process sequential runs by >= 3x;
* a *heterogeneous* grid of 8 distinct configs (different temperatures,
  workload intensities, population mixes) lane-batched as one
  ``BatchedSimulation`` beats running the same grid sequentially by
  >= 2.5x — the sweep axis itself vectorizes, not just the seed axis.

The sweep-layer round trip over the same grid is
``tests/sim/test_lane_batching.py::test_engine_lane_batched_sweep_roundtrip``.
"""

import statistics
import time

from conftest import bench_config
from repro.agents.population import PopulationMix
from repro.sim.engine import BatchedSimulation, run_replicates, run_simulation
from repro.sim.rng import spawn_seeds
from repro.sim._sweep import plan_lane_batches

#: Fig3-sized population/workload at a bench-scale horizon.
ENGINE_CFG = dict(
    n_agents=100,
    n_articles=30,
    training_steps=150,
    eval_steps=100,
    seed=5,
)
N_REPLICATES = 8


def engine_config(**overrides):
    cfg = dict(ENGINE_CFG)
    cfg.update(overrides)
    return bench_config(**cfg)


def _cpu_time(fn) -> float:
    t0 = time.process_time()
    fn()
    return time.process_time() - t0


def _median_paired_speedup(run_sequential, run_batched, rounds: int = 5) -> float:
    """Median of per-round sequential/batched CPU-time ratios.

    Shared runners throttle and change clocks on sub-second timescales,
    so single timings of either side are unreliable.  Pair the two sides
    back to back within each round (adjacent in time -> same machine
    state) and take the median of the per-round ratios, which is robust
    to drift and to a bad round.
    """
    ratios = []
    for _ in range(rounds):
        sequential = _cpu_time(run_sequential)
        batched = _cpu_time(run_batched)
        ratios.append(sequential / batched)
    return statistics.median(ratios)


def test_engine_batched_speedup(benchmark):
    """run_replicates(cfg, 8) must be >= 3x faster than 8 sequential runs."""
    cfg = engine_config()
    seeds = spawn_seeds(cfg.seed, N_REPLICATES)

    speedup = benchmark.pedantic(
        lambda: _median_paired_speedup(
            lambda: [run_simulation(cfg.with_(seed=s)) for s in seeds],
            lambda: run_replicates(cfg, N_REPLICATES),
        ),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["speedup_x"] = speedup
    assert speedup >= 3.0, f"batched speedup {speedup:.2f}x below the 3x floor"


def _lane_grid() -> list:
    """Eight *distinct* configs spanning the lane-liftable axes: eval
    temperature, download intensity, edit-proposal rate and population
    mix all differ, yet every config shares one structural key."""
    base = engine_config()
    grid = [
        base.with_(seed=11),
        base.with_(seed=12, t_eval=0.5),
        base.with_(seed=13, t_eval=2.0, download_probability=0.7),
        base.with_(seed=14, edit_attempt_prob=0.05),
        base.with_(seed=15, edit_attempt_prob=0.12, t_eval=0.8),
        base.with_(seed=16, mix=PopulationMix(0.8, 0.1, 0.1)),
        base.with_(seed=17, mix=PopulationMix(0.6, 0.2, 0.2),
                   download_probability=0.8),
        base.with_(seed=18, learning_rate=0.2, t_eval=1.5),
    ]
    assert len({hash(c) for c in grid}) == len(grid)
    return grid


def test_engine_lane_batched_grid_speedup(benchmark):
    """A mixed-config grid lane-batched in one process must beat the same
    grid run sequentially by >= 2.5x median CPU time."""
    grid = _lane_grid()
    tasks = plan_lane_batches([(c, [i]) for i, c in enumerate(grid)])
    assert len(tasks) == 1, "bench grid must lane-batch into one task"

    speedup = benchmark.pedantic(
        lambda: _median_paired_speedup(
            lambda: [run_simulation(c) for c in grid],
            lambda: BatchedSimulation(grid).run(),
        ),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["lane_speedup_x"] = speedup
    assert speedup >= 2.5, (
        f"lane-batched grid speedup {speedup:.2f}x below the 2.5x floor"
    )
