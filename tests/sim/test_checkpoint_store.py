"""Resume snapshot <-> experiment store interplay.

A resume snapshot persists a task's whole in-flight state under the
store's ``checkpoints/`` directory; the run store persists finished
summaries keyed by config hash.  A checkpointing sweep that dies mid-run
resumes from its snapshot, stores the result under the config's hash
like any other run, and the next sweep serves it from cache.  A blob
that does not belong to the task is never restored: the task starts
from step 0 and still produces its config's result.
"""

import pickle
import zlib

import pytest

import repro.sim._sweep as sweep_mod
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    ResumableTask,
    clear_plan,
    encode_snapshot,
    inject_faults,
    snapshot_key,
)
from repro.resilience.snapshot import _MAGIC
from repro.sim.config import SimulationConfig
from repro.sim.engine import CollaborationSimulation, run_simulation
from repro.sim._sweep import SweepWorkerError, run_sweep
from repro.store.hashing import config_hash
from repro.store._runstore import RunStore
from tests.conftest import assert_summaries_equal


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    clear_plan()
    yield
    clear_plan()


def make_config(seed=9, **kw):
    base = dict(
        n_agents=20, n_articles=5, training_steps=60, eval_steps=30, seed=seed
    )
    base.update(kw)
    return SimulationConfig(**base)


def die_at_step(n):
    """A fault plan that kills the running task before its ``n``-th step."""
    return inject_faults(
        FaultPlan([FaultSpec(site="sweep/step", action="error", at=(n,))])
    )


def trained_blob(cfg, steps=30):
    """A snapshot of ``cfg``'s task after ``steps`` training steps."""
    sim = CollaborationSimulation(cfg)
    for _ in range(steps):
        sim.step(float("inf"))
    return encode_snapshot(sim.state, steps, [config_hash(cfg)])


def run_with_planted(blob, cfg, tmp_path):
    """Plant ``blob`` as ``cfg``'s snapshot in a store; run the task."""
    store = RunStore(tmp_path / "store")
    store.snapshots.save(snapshot_key([config_hash(cfg)]), blob)
    task = ResumableTask([cfg], checkpoint_every=10, store_root=str(store.root))
    [result] = task.run()
    return task, result


class TestCheckpointStoreRoundTrip:
    def test_save_restore_resumed_sweep(self, tmp_path, monkeypatch):
        # 1. A checkpointing sweep dies mid-run; its snapshot stays behind.
        cfg = make_config()
        store = RunStore(tmp_path / "store")
        with die_at_step(26), pytest.raises(SweepWorkerError):
            run_sweep([cfg], executor="serial", store=store, checkpoint_every=10)
        assert store.snapshots.keys() == [snapshot_key([config_hash(cfg)])]
        assert not store.contains(cfg)

        # 2. A sweep over [that config + a new one] resumes the first from
        # its snapshot and runs the second from step 0.
        resumed = []
        original = sweep_mod._task_worker

        def recording(configs, snapshot=None):
            results = original(configs, snapshot)
            resumed.append((configs[0].seed, sweep_mod._TASK_STATE.resumed))
            return results

        monkeypatch.setattr(sweep_mod, "_task_worker", recording)
        new_cfg = make_config(seed=10)
        results = run_sweep(
            [cfg, new_cfg],
            executor="serial",
            store=RunStore(tmp_path / "store"),
            checkpoint_every=10,
            lane_width=1,
        )
        assert resumed == [(9, True), (10, False)]
        assert_summaries_equal(results[0].summary, run_simulation(cfg).summary)
        assert RunStore(tmp_path / "store").snapshots.keys() == []

        # 3. Both landed in the store: a third sweep executes nothing.
        resumed.clear()
        again = run_sweep(
            [cfg, new_cfg], executor="serial", store=RunStore(tmp_path / "store")
        )
        assert resumed == []
        assert [r.config.seed for r in again] == [9, 10]

    def test_checkpointed_eval_is_storable(self, tmp_path):
        # Die in the evaluation phase (training is 60 steps), after the
        # step-70 snapshot landed.
        cfg = make_config()
        root = str(tmp_path / "store")
        with die_at_step(76), pytest.raises(InjectedFault):
            ResumableTask([cfg], checkpoint_every=10, store_root=root).run()
        task = ResumableTask([cfg], checkpoint_every=10, store_root=root)
        [result] = task.run()
        assert task.resumed_at_step == 70
        # A resumed run is its config's run: it stores like any other.
        store = RunStore(root)
        store.put(result)
        assert store.contains(cfg)
        assert_summaries_equal(store.get(cfg).summary, run_simulation(cfg).summary)


class TestCheckpointErrorPaths:
    """Blobs that do not belong to the task are rejected: no resume."""

    def assert_restarted(self, task, result, cfg):
        assert not task.resumed
        assert_summaries_equal(result.summary, run_simulation(cfg).summary)

    def test_version_mismatch_rejected(self, tmp_path):
        cfg = make_config()
        blob = trained_blob(cfg)
        payload = pickle.loads(zlib.decompress(blob[len(_MAGIC):]))
        payload["version"] = 99
        skewed = _MAGIC + zlib.compress(pickle.dumps(payload))
        self.assert_restarted(*run_with_planted(skewed, cfg, tmp_path), cfg)

    def test_q_shape_mismatch_rejected(self, tmp_path):
        # Same population and types, different state discretization: a
        # trained state of one config planted under the other's key.
        cfg = make_config(n_states=5)
        blob = trained_blob(make_config(n_states=10))
        self.assert_restarted(*run_with_planted(blob, cfg, tmp_path), cfg)

    def test_rational_count_mismatch_rejected(self, tmp_path):
        from repro.agents.population import PopulationMix

        cfg = make_config(mix=PopulationMix(0.5, 0.25, 0.25))
        blob = trained_blob(make_config())
        self.assert_restarted(*run_with_planted(blob, cfg, tmp_path), cfg)

    def test_truncated_checkpoint_rejected(self, tmp_path):
        cfg = make_config()
        blob = trained_blob(cfg)
        torn = blob[: len(blob) // 2]
        self.assert_restarted(*run_with_planted(torn, cfg, tmp_path), cfg)
