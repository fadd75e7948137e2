"""Benchmark-suite configuration.

``benchmarks/`` holds timings only: the kernel microbenchmarks, which
the CI bench-smoke job compares against the same benches at the base
commit, and the bounded speedup and overhead gates.  Correctness checks
live under ``tests/``; tier-1 collects that tree alone.

Gate benches run ``benchmark.pedantic`` with a single round (each
takes its own paired repeats), while the kernel benches use the default
calibration.
"""

import numpy as np
import pytest

#: Reduced scale for simulation-backed benches.
BENCH_AGENTS = 50
BENCH_ARTICLES = 10
BENCH_TRAIN = 400
BENCH_EVAL = 250


def bench_config(**overrides):
    from repro.sim.config import SimulationConfig

    defaults = dict(
        n_agents=BENCH_AGENTS,
        n_articles=BENCH_ARTICLES,
        training_steps=BENCH_TRAIN,
        eval_steps=BENCH_EVAL,
        seed=9,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


@pytest.fixture
def rng():
    return np.random.default_rng(2008)
