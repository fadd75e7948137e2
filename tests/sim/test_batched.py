"""Unit tests for the replicate-axis engine and its sweep/store routing."""

import numpy as np
import pytest

from repro.sim.config import SimulationConfig
from repro.sim.engine import (
    BatchedSimulation,
    run_replicates,
    run_simulation,
)
from repro.sim.rng import spawn_seeds
from repro.sim.state import build_sim_state
from repro.sim._sweep import replicate, run_sweep
from repro.store._runstore import RunStore


def tiny(seed=7, **overrides):
    params = dict(n_agents=12, n_articles=4, training_steps=15, eval_steps=10,
                  founders_per_article=2)
    params.update(overrides)
    return SimulationConfig(seed=seed, **params)


def same_summary(a: dict, b: dict) -> bool:
    """Dict equality where NaN == NaN (short runs leave NaN rate metrics)."""
    if set(a) != set(b):
        return False
    for k in a:
        va, vb = a[k], b[k]
        if isinstance(va, float) and isinstance(vb, float):
            if np.isnan(va) and np.isnan(vb):
                continue
        if va != vb:
            return False
    return True


class TestBuildState:
    def test_single_config_matches_historical_shapes(self):
        state = build_sim_state([tiny()])
        assert state.n_replicates == 1
        assert state.peers.types.shape == (12,)
        assert state.peers.n == 12
        assert len(state.rngs) == state.articles.n_lanes == 1
        assert state.articles.quality.shape == (tiny().n_articles,)

    def test_replicates_stack_flat(self):
        cfgs = replicate(tiny(), 3)
        state = build_sim_state(cfgs)
        assert state.n_replicates == 3
        assert state.peers.n == 36
        assert state.scheme.n_slots == 36
        assert state.metrics.n_replicates == 3
        assert len(state.rngs) == state.articles.n_lanes == 3
        assert state.articles.quality.shape == (3 * tiny().n_articles,)

    def test_rejects_structural_differences(self):
        with pytest.raises(ValueError, match="structural.*n_articles"):
            build_sim_state([tiny(seed=1), tiny(seed=2, n_articles=5)])

    def test_accepts_lane_varying_differences(self):
        state = build_sim_state(
            [tiny(seed=1), tiny(seed=2, t_eval=0.5, edit_attempt_prob=0.02)]
        )
        assert state.n_replicates == 2
        assert state.configs[1].t_eval == 0.5

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            build_sim_state([])


class TestBatchedSimulation:
    def test_run_returns_one_result_per_replicate(self):
        cfgs = replicate(tiny(), 3)
        results = BatchedSimulation(cfgs).run()
        assert len(results) == 3
        assert [r.config.seed for r in results] == [c.seed for c in cfgs]
        for r in results:
            assert 0.0 <= r.summary["shared_files"] <= 1.0
            assert r.training_summary  # training phase summarized too
            assert r.events is None

    def test_event_collection_logs_per_lane(self):
        logging = tiny(seed=1, collect_events=True)
        results = BatchedSimulation([logging, tiny(seed=2)]).run()
        assert results[1].events is None
        solo = run_simulation(logging).events
        assert results[0].events.edits == solo.edits
        assert results[0].events.punishments == solo.punishments

    def test_duplicate_seeds_allowed_and_identical(self):
        cfg = tiny(seed=9)
        a, b = BatchedSimulation([cfg, cfg]).run()
        assert same_summary(a.summary, b.summary)


class TestRunReplicates:
    def test_seeds_match_replicate_helper(self):
        results = run_replicates(tiny(), 3)
        assert [r.config.seed for r in results] == spawn_seeds(tiny().seed, 3)

    def test_single_replicate_runs_sequentially(self):
        (result,) = run_replicates(tiny(), 1)
        seed = spawn_seeds(tiny().seed, 1)[0]
        assert same_summary(
            result.summary, run_simulation(tiny().with_(seed=seed)).summary
        )

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            run_replicates(tiny(), 0)

    def test_event_configs_fall_back_to_sequential(self):
        results = run_replicates(tiny(collect_events=True), 2)
        assert all(r.events is not None for r in results)

    def test_store_roundtrip(self, tmp_path):
        store = RunStore(tmp_path / "rs")
        first = run_replicates(tiny(), 3, store=store)
        assert store.misses == 3 and store.hits == 0
        assert len(store) == 3
        again = run_replicates(tiny(), 3, store=store)
        assert store.hits == 3
        for a, b in zip(first, again):
            assert same_summary(a.summary, b.summary)

    def test_partial_cache_only_runs_missing(self, tmp_path):
        store = RunStore(tmp_path / "rs")
        seeds = spawn_seeds(tiny().seed, 3)
        # Pre-populate one replicate through the sequential path.
        store.put(run_simulation(tiny().with_(seed=seeds[1])))
        results = run_replicates(tiny(), 3, store=store)
        assert store.hits == 1  # the pre-populated slot was served
        assert len(store) == 3
        assert [r.config.seed for r in results] == seeds


class TestSweepBatching:
    def test_batched_sweep_matches_sequential_sweep(self):
        cfgs = replicate(tiny(), 3) + [tiny(seed=99, n_articles=5)]
        solo = [run_simulation(c) for c in cfgs]
        batched = run_sweep(cfgs, backend="serial")
        for a, b in zip(solo, batched):
            assert a.config == b.config
            assert same_summary(a.summary, b.summary)

    def test_batched_sweep_persists_individually(self, tmp_path):
        store = RunStore(tmp_path / "rs")
        cfgs = replicate(tiny(), 3)
        run_sweep(cfgs, backend="serial", store=store)
        assert len(store) == 3
        # A later per-seed sweep is served entirely from cache.
        run_sweep(cfgs, backend="serial", store=store)
        assert store.hits == 3

    def test_event_configs_stay_solo(self):
        cfgs = [tiny(collect_events=True, seed=s) for s in (1, 2)]
        results = run_sweep(cfgs, backend="serial")
        assert all(r.events is not None for r in results)

    def test_thread_backend_batches(self):
        cfgs = replicate(tiny(), 2) + replicate(tiny(seed=42, n_articles=5), 2)
        results = run_sweep(cfgs, backend="thread")
        assert len(results) == 4
        assert [r.config for r in results] == cfgs


class TestBehaviorRngModes:
    def test_single_run_behavior_accepts_its_own_rng(self):
        """The historical probe pattern: drive the behaviour engine with
        the simulation's own (buffered) stream or any raw generator."""
        from repro.sim.engine import CollaborationSimulation

        sim = CollaborationSimulation(tiny())
        states = np.zeros(sim.rational_idx.size, dtype=np.int64)
        for rng in (sim.rng, np.random.default_rng(0)):
            actions = sim.behavior.sharing_actions(states, np.inf, rng)
            assert actions.shape == (sim.config.n_agents,)


class TestWallTimeAmortization:
    def test_batched_wall_time_is_amortized(self):
        results = BatchedSimulation(replicate(tiny(), 2)).run()
        assert results[0].wall_time_s == results[1].wall_time_s
        assert results[0].wall_time_s > 0.0
