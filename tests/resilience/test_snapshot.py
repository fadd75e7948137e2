"""Resume snapshots: encoding, atomic persistence, bit-identical resume.

The headline guarantee lives here: a task that dies mid-run — whether
via an in-process injected error or a real SIGKILL-style process death —
resumes from its latest snapshot and produces **bit-identical** results
to an uninterrupted run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.resilience import (
    FAULT_PLAN_ENV,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    ResumableTask,
    SnapshotStore,
    clear_plan,
    decode_snapshot,
    encode_snapshot,
    inject_faults,
    snapshot_key,
)
from repro.sim.config import SimulationConfig
from repro.sim._sweep import run_sweep
from repro.sim.engine import run_simulation
from repro.store.hashing import config_hash
from tests.conftest import assert_summaries_equal

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    clear_plan()
    yield
    clear_plan()


def tiny(seed=0, **kw):
    return SimulationConfig(
        n_agents=12, n_articles=3, training_steps=30, eval_steps=20,
        seed=seed, **kw,
    )


class TestSnapshotKey:
    def test_matches_dispatch_task_key(self):
        from repro.store.dispatch import task_key

        hashes = [config_hash(tiny(s)) for s in (1, 2, 3)]
        assert snapshot_key(hashes) == task_key(hashes)

    def test_order_insensitive(self):
        assert snapshot_key(["b", "a"]) == snapshot_key(["a", "b"])


class TestEncodeDecode:
    def test_roundtrip(self):
        blob = encode_snapshot({"toy": 1}, 17, ["h1"])
        assert decode_snapshot(blob, ["h1"]) == ({"toy": 1}, 17)

    def test_anomalies_decode_to_none(self):
        blob = encode_snapshot({}, 5, ["h1"])
        assert decode_snapshot(b"garbage", ["h1"]) is None
        assert decode_snapshot(blob[: len(blob) // 2], ["h1"]) is None
        assert decode_snapshot(blob, ["other"]) is None
        # Order matters: lane order assigns RNG streams.
        two = encode_snapshot({}, 5, ["h1", "h2"])
        assert decode_snapshot(two, ["h2", "h1"]) is None


class TestSnapshotStore:
    def test_save_load_delete(self, tmp_path):
        snaps = SnapshotStore(tmp_path)
        snaps.save("k", b"blob")
        assert snaps.load("k") == b"blob"
        assert snaps.keys() == ["k"]
        snaps.delete("k")
        assert snaps.load("k") is None
        snaps.delete("k")  # idempotent

    def test_torn_write_preserves_previous_snapshot(self, tmp_path):
        snaps = SnapshotStore(tmp_path)
        snaps.save("k", b"good snapshot")
        plan = FaultPlan(
            [FaultSpec(site="snapshot/save", action="torn-write", at=(1,))]
        )
        with inject_faults(plan):
            with pytest.raises(InjectedFault):
                snaps.save("k", b"replacement that dies mid-write")
        # The atomic-rename discipline: the old bytes are untouched and
        # no temp litter remains.
        assert snaps.load("k") == b"good snapshot"
        assert list(Path(snaps.dir).glob("*.tmp")) == []


class TestBitIdenticalResume:
    def test_injected_death_then_resume_matches_straight_run(self, tmp_path):
        configs = [tiny(seed=5)]
        straight = ResumableTask(configs).run()

        # Die at step 25 — after the checkpoint at step 20 landed.
        plan = FaultPlan([FaultSpec(site="sweep/step", action="error", at=(26,))])
        with inject_faults(plan):
            with pytest.raises(InjectedFault):
                ResumableTask(
                    configs, checkpoint_every=10, store_root=str(tmp_path)
                ).run()
        snaps = SnapshotStore(tmp_path)
        assert snaps.keys() == [snapshot_key([config_hash(configs[0])])]

        resumed_task = ResumableTask(
            configs, checkpoint_every=10, store_root=str(tmp_path)
        )
        resumed = resumed_task.run()
        assert resumed_task.resumed
        assert resumed_task.resumed_at_step == 20
        assert_summaries_equal(resumed[0].summary, straight[0].summary)
        assert snaps.keys() == []  # snapshot deleted once results landed

    def test_resume_across_phase_boundary(self, tmp_path):
        # A snapshot at steps_done == training_steps must capture the
        # post-reset state: resuming from it never replays the boundary.
        configs = [tiny(seed=9)]  # training_steps=30: checkpoint lands at 30
        straight = ResumableTask(configs).run()
        plan = FaultPlan([FaultSpec(site="sweep/step", action="error", at=(32,))])
        with inject_faults(plan):
            with pytest.raises(InjectedFault):
                ResumableTask(
                    configs, checkpoint_every=30, store_root=str(tmp_path)
                ).run()
        task = ResumableTask(configs, checkpoint_every=30, store_root=str(tmp_path))
        resumed = task.run()
        assert task.resumed_at_step == 30
        assert_summaries_equal(resumed[0].summary, straight[0].summary)

    def test_batched_task_resumes_every_lane(self, tmp_path):
        configs = [tiny(seed=1), tiny(seed=2)]
        straight = ResumableTask(configs).run()
        plan = FaultPlan([FaultSpec(site="sweep/step", action="error", at=(45,))])
        with inject_faults(plan):
            with pytest.raises(InjectedFault):
                ResumableTask(
                    configs, checkpoint_every=10, store_root=str(tmp_path)
                ).run()
        task = ResumableTask(configs, checkpoint_every=10, store_root=str(tmp_path))
        resumed = task.run()
        assert task.resumed
        for a, b in zip(resumed, straight):
            assert_summaries_equal(a.summary, b.summary)

    def test_logging_and_plain_lanes_resume_with_their_logs(self, tmp_path):
        # The snapshot pickles the whole state, event logs included: a
        # resumed logging lane ends with exactly its solo run's log.
        configs = [
            tiny(seed=31, collect_events=True),
            tiny(seed=32),
            tiny(seed=33, collect_events=True, leave_rate=0.05, join_rate=0.3),
        ]
        plan = FaultPlan([FaultSpec(site="sweep/step", action="error", at=(46,))])
        with inject_faults(plan):
            with pytest.raises(InjectedFault):
                ResumableTask(
                    configs, checkpoint_every=10, store_root=str(tmp_path)
                ).run()
        task = ResumableTask(configs, checkpoint_every=10, store_root=str(tmp_path))
        resumed = task.run()
        assert task.resumed_at_step == 40
        for got, cfg in zip(resumed, configs):
            solo = run_simulation(cfg)
            assert_summaries_equal(got.summary, solo.summary)
            assert got.events == solo.events
        assert resumed[0].events.edits and resumed[2].events.edits
        assert resumed[1].events is None

    @pytest.mark.parametrize("seed", [3, 4])
    def test_resume_keeps_voter_order_at_paper_scale(self, tmp_path, seed):
        # At N=100 the articles' voter rows grow large enough that a
        # voter order rebuilt on unpickling differs from the live one;
        # both seeds diverged while the order was a Python set's.
        configs = [
            SimulationConfig(
                n_agents=100, n_articles=30, training_steps=300,
                eval_steps=100, seed=seed,
            )
        ]
        straight = ResumableTask(configs).run()
        plan = FaultPlan([FaultSpec(site="sweep/step", action="error", at=(151,))])
        with inject_faults(plan):
            with pytest.raises(InjectedFault):
                ResumableTask(
                    configs, checkpoint_every=150, store_root=str(tmp_path)
                ).run()
        task = ResumableTask(configs, checkpoint_every=150, store_root=str(tmp_path))
        resumed = task.run()
        assert task.resumed_at_step == 150
        assert_summaries_equal(resumed[0].summary, straight[0].summary)
        assert_summaries_equal(
            resumed[0].training_summary, straight[0].training_summary
        )

    def test_no_training_steps_matches_run_simulation(self):
        # The boundary reset still runs before an evaluation-only protocol.
        cfg = tiny(seed=6).with_(training_steps=0)
        [task_result] = ResumableTask([cfg]).run()
        solo = run_simulation(cfg)
        assert_summaries_equal(task_result.summary, solo.summary)
        assert task_result.training_summary == solo.training_summary == {}

    def test_corrupt_snapshot_restarts_from_zero(self, tmp_path):
        configs = [tiny(seed=3)]
        key = snapshot_key([config_hash(configs[0])])
        snaps = SnapshotStore(tmp_path)
        snaps.save(key, b"RSNPnot really a snapshot")
        task = ResumableTask(configs, checkpoint_every=10, store_root=str(tmp_path))
        results = task.run()
        assert not task.resumed
        straight = ResumableTask(configs).run()
        assert_summaries_equal(results[0].summary, straight[0].summary)


class TestCrashResume:
    """A real process death (os._exit inside the step loop), not a
    raised exception: nothing gets to clean up, exactly like SIGKILL."""

    def _crash_worker(self, store_root, seed, crash_at):
        plan = {
            "schema_version": 1,
            "seed": 0,
            "faults": [
                {"site": "sweep/step", "action": "crash", "at": [crash_at]}
            ],
        }
        script = (
            "from repro.resilience import ResumableTask\n"
            "from repro.sim.config import SimulationConfig\n"
            f"cfg = SimulationConfig(n_agents=12, n_articles=3, "
            f"training_steps=30, eval_steps=20, seed={seed})\n"
            f"ResumableTask([cfg], checkpoint_every=10, "
            f"store_root={store_root!r}).run()\n"
        )
        env = dict(os.environ)
        env[FAULT_PLAN_ENV] = json.dumps(plan)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            timeout=120,
        )

    def test_sigkilled_worker_resumes_bit_identically(self, tmp_path):
        cfg = tiny(seed=21)
        proc = self._crash_worker(str(tmp_path), 21, crash_at=26)
        assert proc.returncode == 137, proc.stderr.decode()

        key = snapshot_key([config_hash(cfg)])
        snaps = SnapshotStore(tmp_path)
        assert snaps.keys() == [key]  # the corpse left its checkpoint

        task = ResumableTask([cfg], checkpoint_every=10, store_root=str(tmp_path))
        resumed = task.run()
        assert task.resumed and task.resumed_at_step == 20

        straight = ResumableTask([cfg]).run()
        assert_summaries_equal(resumed[0].summary, straight[0].summary)

    def test_crash_resume_matches_run_sweep_output(self, tmp_path):
        # The resumed result equals what run_sweep computes for the same
        # config — so a resumed task's record can share the
        # content-addressed store with ordinary ones.
        cfg = tiny(seed=22)
        proc = self._crash_worker(str(tmp_path), 22, crash_at=15)
        assert proc.returncode == 137, proc.stderr.decode()
        task = ResumableTask([cfg], checkpoint_every=10, store_root=str(tmp_path))
        resumed = task.run()
        assert task.resumed and task.resumed_at_step == 10
        [swept] = run_sweep([cfg], backend="serial")
        assert_summaries_equal(resumed[0].summary, swept.summary)
