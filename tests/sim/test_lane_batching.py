"""Lane planner coverage: partitioning, fallbacks, dedupe and the store.

The planner (:func:`repro.sim._sweep.plan_lane_batches`) decides how a
sweep grid maps onto heterogeneous-lane batches; these tests pin its
contract — structural splits, event collectors batched like any lane,
one execution per duplicate config — and prove the store round-trip:
lane-batched results hash, persist and dedupe exactly like sequential
runs of the same grid.
"""

import numpy as np
import pytest

from repro.sim.config import SimulationConfig
from repro.sim.lanes import (
    assert_lane_compatible,
    lane_values,
    slot_values,
    structural_key,
    take,
)
import repro.sim._sweep as sweep_mod
from repro.sim.engine import replicate_configs, run_simulation
from repro.sim._sweep import plan_lane_batches, run_sweep
from repro.store.hashing import config_hash
from repro.store._runstore import RunStore


def tiny(seed=7, **overrides):
    params = dict(n_agents=12, n_articles=4, training_steps=15, eval_steps=10,
                  founders_per_article=2)
    params.update(overrides)
    return SimulationConfig(seed=seed, **params)


def plan(configs):
    return plan_lane_batches([(c, [i]) for i, c in enumerate(configs)])


def same_summary(a: dict, b: dict) -> bool:
    if set(a) != set(b):
        return False
    for k in a:
        va, vb = a[k], b[k]
        if isinstance(va, float) and isinstance(vb, float) and np.isnan(va):
            if np.isnan(vb):
                continue
        if va != vb:
            return False
    return True


class TestStructuralKeys:
    def test_lane_varying_fields_share_a_key(self):
        assert structural_key(tiny(seed=1)) == structural_key(
            tiny(seed=2, t_eval=0.5, download_probability=0.4,
                 learning_rate=0.3, leave_rate=0.1, join_rate=0.5)
        )

    @pytest.mark.parametrize(
        "change",
        [dict(n_agents=16), dict(n_articles=6), dict(training_steps=20),
         dict(scheme="karma"), dict(overlay_kind="random"),
         dict(enforce_edit_threshold=False), dict(n_states=5)],
    )
    def test_structural_fields_split_keys(self, change):
        assert structural_key(tiny()) != structural_key(tiny(**change))

    def test_auto_scheme_matches_resolved_spelling(self):
        assert structural_key(tiny(scheme="auto")) == structural_key(
            tiny(scheme="reputation")
        )
        assert structural_key(
            tiny(scheme="auto", incentives_enabled=False)
        ) == structural_key(tiny(scheme="none"))

    def test_assert_compatible_names_offenders(self):
        with pytest.raises(ValueError, match="n_agents"):
            assert_lane_compatible([tiny(), tiny(n_agents=16)])
        with pytest.raises(ValueError, match="scheme"):
            assert_lane_compatible([tiny(), tiny(scheme="tft")])


class TestLaneHelpers:
    def test_uniform_values_collapse_to_scalars(self):
        configs = [tiny(seed=s) for s in (1, 2, 3)]
        assert lane_values(configs, "t_eval") == 1.0
        assert slot_values(configs, "edit_attempt_prob", 12) == 0.08

    def test_heterogeneous_values_expand(self):
        configs = [tiny(seed=1), tiny(seed=2, t_eval=0.5)]
        t = lane_values(configs, "t_eval")
        assert isinstance(t, np.ndarray) and t.tolist() == [1.0, 0.5]
        per_slot = slot_values(configs, "t_eval", 3)
        assert per_slot.tolist() == [1.0, 1.0, 1.0, 0.5, 0.5, 0.5]

    def test_take_passes_scalars_and_gathers_arrays(self):
        idx = np.array([0, 2])
        assert take(5.0, idx) == 5.0
        assert take(np.array([1.0, 2.0, 3.0]), idx).tolist() == [1.0, 3.0]


class TestPlanner:
    def test_compatible_grid_is_one_batch(self):
        configs = [tiny(seed=s, t_eval=t) for s in (1, 2) for t in (0.5, 1.0)]
        tasks = plan(configs)
        assert len(tasks) == 1
        assert len(tasks[0]) == 4

    def test_incompatible_structural_dims_split(self):
        configs = [tiny(seed=1), tiny(seed=2, n_agents=16),
                   tiny(seed=3), tiny(seed=4, scheme="karma")]
        tasks = plan(configs)
        assert [len(t) for t in tasks] == [2, 1, 1]
        # Order follows first appearance; lanes 0 and 2 merged.
        assert [idx for _, (idx,) in ((c, i) for c, i in tasks[0])] == [0, 2]

    def test_lane_width_chunks_oversized_batches(self):
        configs = [tiny(seed=s) for s in range(5)]
        tasks = plan_lane_batches(
            [(c, [i]) for i, c in enumerate(configs)], lane_width=2
        )
        assert [len(t) for t in tasks] == [2, 2, 1]
        # Chunking preserves input order across the chunks.
        flat = [idx for t in tasks for _, (idx,) in t]
        assert flat == [0, 1, 2, 3, 4]

    def test_lane_width_validated(self):
        with pytest.raises(ValueError, match="lane_width"):
            plan_lane_batches([(tiny(), [0])], lane_width=0)

    def test_lane_width_sweep_matches_unchunked(self):
        configs = [tiny(seed=s, t_eval=t) for s in (1, 2) for t in (0.5, 1.0)]
        chunked = run_sweep(configs, executor="serial", lane_width=2)
        plain = run_sweep(configs, executor="serial")
        for a, b in zip(chunked, plain):
            assert same_summary(a.summary, b.summary)

    def test_event_collectors_join_their_structural_group(self):
        configs = [tiny(seed=1), tiny(seed=2, collect_events=True), tiny(seed=3)]
        tasks = plan(configs)
        assert [[cfg for cfg, _ in t] for t in tasks] == [configs]

    def test_event_collecting_sweep_still_yields_events(self):
        configs = [tiny(seed=s, collect_events=True) for s in (1, 2)]
        results = run_sweep(configs, executor="serial")
        assert all(r.events is not None for r in results)


class TestLaneSweeps:
    def test_lane_batched_sweep_matches_sequential_sweep(self):
        configs = [
            tiny(seed=1),
            tiny(seed=2, t_eval=0.5),
            tiny(seed=3, edit_attempt_prob=0.15),
            tiny(seed=4, n_agents=16),  # incompatible: second batch
        ]
        solo = [run_simulation(c) for c in configs]
        lane = run_sweep(configs, executor="serial")
        for a, b in zip(solo, lane):
            assert a.config == b.config
            assert same_summary(a.summary, b.summary)

    def test_lane_batch_subsumes_replicate_batching(self):
        configs = replicate_configs(tiny(), 3) + [tiny(seed=99, t_eval=0.5)]
        assert len(plan(configs)) == 1
        lane = run_sweep(configs, executor="serial")
        for a, b in zip((run_simulation(c) for c in configs), lane):
            assert same_summary(a.summary, b.summary)

    def test_thread_backend_lane_batches(self):
        configs = [tiny(seed=1, t_eval=t) for t in (0.5, 1.0)] + [
            tiny(seed=2, n_agents=16)
        ]
        results = run_sweep(configs, executor="thread")
        assert [r.config for r in results] == configs


def record_tasks(monkeypatch):
    """Record the configs of every task the sweep's per-task entry runs."""
    tasks = []
    original = sweep_mod._task_worker

    def recording(configs, snapshot=None):
        tasks.append(list(configs))
        return original(configs, snapshot)

    monkeypatch.setattr(sweep_mod, "_task_worker", recording)
    return tasks


class TestPoolFanOut:
    """Pools split the plan evenly across their workers."""

    @pytest.mark.parametrize("n_configs,workers", [(5, 2), (3, 4), (6, 4)])
    def test_thread_pool_plans_one_task_per_worker(
        self, monkeypatch, n_configs, workers
    ):
        tasks = record_tasks(monkeypatch)
        configs = [tiny(seed=s, t_eval=0.5 + 0.25 * s) for s in range(n_configs)]
        results = run_sweep(configs, executor="thread", workers=workers)
        n_tasks = min(workers, n_configs)
        assert len(tasks) == n_tasks
        assert max(len(t) for t in tasks) == -(-n_configs // n_tasks)
        assert sorted(c.seed for t in tasks for c in t) == list(range(n_configs))
        for cfg, result in zip(configs, results):
            assert result.config == cfg
            assert same_summary(result.summary, run_simulation(cfg).summary)

    def test_explicit_lane_width_overrides_worker_split(self, monkeypatch):
        tasks = record_tasks(monkeypatch)
        configs = [tiny(seed=s, t_eval=0.5 + 0.25 * s) for s in range(5)]
        results = run_sweep(configs, executor="thread", workers=4, lane_width=3)
        assert sorted(len(t) for t in tasks) == [2, 3]
        for cfg, result in zip(configs, results):
            assert same_summary(result.summary, run_simulation(cfg).summary)

    def test_planner_narrows_the_widest_batches_first(self):
        configs = [tiny(seed=s) for s in range(6)] + [
            tiny(seed=10 + s, n_agents=16) for s in range(2)
        ]
        pending = [(c, [i]) for i, c in enumerate(configs)]
        tasks = plan_lane_batches(pending, workers=4)
        assert [len(t) for t in tasks] == [2, 2, 2, 2]
        # Consecutive parts keep input order within each group.
        assert [idx for t in tasks for _, (idx,) in t] == list(range(8))
        assert len(plan_lane_batches(pending, workers=1)) == 2
        assert [len(t) for t in plan_lane_batches(pending, workers=20)] == [1] * 8

    def test_workers_validated(self):
        with pytest.raises(ValueError, match="workers"):
            plan_lane_batches([(tiny(), [0])], workers=0)


class TestStoreRoundTrip:
    def test_duplicates_execute_once(self, tmp_path):
        store = RunStore(tmp_path / "rs")
        dup = tiny(seed=5, t_eval=0.5)
        results = run_sweep(
            [dup, tiny(seed=6), dup], executor="serial", store=store,
        )
        assert store.misses == 2  # the duplicate slot never executed
        assert len(store) == 2
        assert same_summary(results[0].summary, results[2].summary)

    def test_lane_batched_results_dedupe_with_sequential(self, tmp_path):
        """Lane-batched and sequential spellings share cache entries."""
        store = RunStore(tmp_path / "rs")
        configs = [tiny(seed=1), tiny(seed=2, t_eval=0.5),
                   tiny(seed=3, download_probability=0.4)]
        lane = run_sweep(configs, executor="serial", store=store)
        assert store.misses == len(configs) and len(store) == len(configs)
        # A later unbatched sweep is served entirely from cache ...
        plain = run_sweep(configs, executor="serial", store=store)
        assert store.hits == len(configs)
        # ... and the payloads are the lane-batched results, bit for bit.
        for a, b in zip(lane, plain):
            assert config_hash(a.config) == config_hash(b.config)
            assert same_summary(a.summary, b.summary)

    def test_sequential_cache_serves_lane_batched_sweep(self, tmp_path):
        store = RunStore(tmp_path / "rs")
        configs = [tiny(seed=1), tiny(seed=2, t_eval=0.5)]
        run_sweep(configs, executor="serial", store=store)
        run_sweep(configs, executor="serial", store=store)
        assert store.hits == len(configs)
        assert len(store) == len(configs)

    def test_partial_cache_only_executes_missing_lanes(self, tmp_path):
        store = RunStore(tmp_path / "rs")
        configs = [tiny(seed=1), tiny(seed=2, t_eval=0.5), tiny(seed=3)]
        run_sweep([configs[1]], executor="serial", store=store)
        run_sweep(configs, executor="serial", store=store)
        assert store.hits == 1
        assert len(store) == 3
