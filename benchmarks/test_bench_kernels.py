"""Microbenchmarks of the hot vectorized kernels.

These are the per-step building blocks of the engine: Boltzmann action
selection, the Q-learning backup, bandwidth allocation and settlement,
and one full engine step.  pytest-benchmark calibrates rounds itself.
"""

from itertools import count

import numpy as np

from conftest import bench_config
from repro.agents.qlearning import (
    VectorQLearner,
    boltzmann_probabilities,
    sample_categorical,
)
from repro.sim.backends import KERNELS
from repro.sim.engine import CollaborationSimulation
from repro.sim.phases.download import sample_download_requests_batch
from repro.sim.rng import CounterDraws

N_AGENTS = 100  # paper scale


def test_boltzmann_probabilities(benchmark, rng):
    q = rng.normal(size=(N_AGENTS, 9))
    p = benchmark(boltzmann_probabilities, q, 1.0)
    assert np.allclose(p.sum(axis=1), 1.0)


def test_categorical_sampling(benchmark, rng):
    p = boltzmann_probabilities(rng.normal(size=(N_AGENTS, 9)), 1.0)
    samples = benchmark(sample_categorical, p, rng)
    assert samples.shape == (N_AGENTS,)


def test_action_selection_end_to_end(benchmark, rng):
    ql = VectorQLearner(N_AGENTS, 10, 9)
    ql.q[:] = rng.normal(size=ql.q.shape)
    states = rng.integers(0, 10, size=N_AGENTS)

    def select():
        return ql.select_actions(states, 1.0, rng)

    actions = benchmark(select)
    assert actions.shape == (N_AGENTS,)


def test_q_update(benchmark, rng):
    ql = VectorQLearner(N_AGENTS, 10, 9)
    states = rng.integers(0, 10, size=N_AGENTS)
    actions = rng.integers(0, 9, size=N_AGENTS)
    rewards = rng.normal(size=N_AGENTS)
    next_states = rng.integers(0, 10, size=N_AGENTS)

    def update():
        ql.update(states, actions, rewards, next_states)

    benchmark(update)


def test_bandwidth_allocation(benchmark, rng):
    sources = rng.integers(0, N_AGENTS, size=N_AGENTS)
    reps = rng.uniform(0.05, 1.0, size=N_AGENTS)
    shares = benchmark(KERNELS.grouped_shares, sources, reps, N_AGENTS)
    assert shares.shape == (N_AGENTS,)


def test_download_round(benchmark, rng):
    sharing = (rng.random(N_AGENTS) < 0.6)[None, :]
    offered = rng.random(N_AGENTS)
    capacity = np.ones(N_AGENTS)
    draws = CounterDraws(rng.integers(0, 2**64, size=1, dtype=np.uint64), N_AGENTS)
    steps = count()

    def round_():
        req = sample_download_requests_batch(draws, next(steps), sharing, 1.0)
        reps = np.full(req.n, 0.5)
        shares = KERNELS.grouped_shares(req.source_ids, reps, N_AGENTS)
        return KERNELS.settle_downloads(
            req.downloader_ids, req.source_ids, shares, offered, capacity, N_AGENTS
        )

    received, served = benchmark(round_)
    assert received.shape == (N_AGENTS,)


def _step_sim():
    # Oversized metrics store: the benchmark loop calls step() thousands
    # of times, far past a normal run's horizon.
    return CollaborationSimulation(
        bench_config(n_agents=N_AGENTS, training_steps=200_000, eval_steps=1)
    )


def test_engine_step(benchmark):
    sim = _step_sim()

    def step():
        sim.step(1.0, learn=True)

    benchmark(step)
    assert sim.step_count > 0


def test_engine_training_step_uniform(benchmark):
    sim = _step_sim()

    def step():
        sim.step(float("inf"), learn=True)

    benchmark(step)
