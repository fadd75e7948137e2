"""JobManager tests: dedup, admission atomicity, failure, shutdown.

All compute goes through an injected fake runner so the tests are
sleep-bound, not simulation-bound, and a runner can be held open with a
threading gate to freeze the "while computing" state deterministically.
"""

import asyncio
import json
import threading
import time
from types import SimpleNamespace

import pytest

import repro.api as api
import repro.sim._sweep as sweep_mod
from repro.service.hub import EventHub
from repro.service.jobs import JobManager, QueueFull, ServiceClosing
from repro.service.schemas import SubmitSpec
from repro.sim.config import SimulationConfig
from repro.store._runstore import RunStore
from repro.store.hashing import config_hash
from tests.conftest import assert_summaries_equal


def tiny(seed=0, **kw):
    return SimulationConfig(
        n_agents=8, n_articles=2, founders_per_article=2,
        training_steps=5, eval_steps=5, seed=seed, **kw,
    )


class FakeStore:
    """Just enough RunStore surface for the manager: a record dict."""

    def __init__(self):
        self.records = {}
        self.refreshes = 0

    def refresh(self):
        self.refreshes += 1
        return 0

    def contains_hash(self, h):
        return h in self.records

    def get_record(self, h):
        rec = self.records.get(h)
        if rec is None:
            return None
        return SimpleNamespace(summary=rec)


class FakeRunner:
    """A runner that lands every config instantly (optionally gated)."""

    def __init__(self, store, gate=None, fail_with=None):
        self.store = store
        self.gate = gate
        self.fail_with = fail_with
        self.calls = []
        self.computed = []

    def __call__(self, configs, progress, on_failure):
        self.calls.append(list(configs))
        if self.gate is not None:
            assert self.gate.wait(timeout=30), "runner gate never opened"
        if self.fail_with is not None:
            raise self.fail_with
        stats = SimpleNamespace(elapsed_s=0.01, eta_s=0.0, cached=0,
                                computed=len(configs))
        for i, cfg in enumerate(configs):
            h = config_hash(cfg)
            summary = {"shared_files": float(i)}
            self.store.records[h] = summary
            self.computed.append(h)
            result = SimpleNamespace(summary=summary, wall_time_s=0.001)
            progress(i + 1, len(configs), i, result, False, stats)


def spec_of(*configs, label="test"):
    return SubmitSpec(configs=tuple(configs), label=label)


async def wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        await asyncio.sleep(0.01)


def run(coro):
    return asyncio.run(coro)


class TestDedup:
    def test_cached_configs_complete_without_compute(self):
        async def body():
            store = FakeStore()
            runner = FakeRunner(store)
            cfg = tiny()
            store.records[config_hash(cfg)] = {"shared_files": 1.0}
            mgr = JobManager(store, runner=runner, workers=1)
            await mgr.start()
            try:
                job = mgr.submit(spec_of(cfg))
                assert job.state == "completed"
                assert job.n_cached == 1 and job.n_computed == 0
                assert runner.calls == []
                slot = job.slots[config_hash(cfg)]
                assert slot["source"] == "cache"
                assert slot["summary"] == {"shared_files": 1.0}
            finally:
                await mgr.close(timeout_s=2)

        run(body())

    def test_duplicate_configs_in_one_job_collapse(self):
        async def body():
            store = FakeStore()
            runner = FakeRunner(store)
            mgr = JobManager(store, runner=runner, workers=1)
            await mgr.start()
            try:
                cfg = tiny()
                job = mgr.submit(spec_of(cfg, cfg, cfg))
                assert job.total == 1
                assert job.submitted == 3
                await wait_for(lambda: job.finished)
                assert job.state == "completed"
                assert len(runner.computed) == 1
            finally:
                await mgr.close(timeout_s=2)

        run(body())

    def test_inflight_dedup_one_compute_many_jobs(self):
        async def body():
            store = FakeStore()
            gate = threading.Event()
            runner = FakeRunner(store, gate=gate)
            mgr = JobManager(store, runner=runner, workers=1)
            await mgr.start()
            try:
                cfg = tiny()
                job_a = mgr.submit(spec_of(cfg, label="a"))
                # Wait until the worker has claimed the unit (blocked in
                # the gated runner) so the second submit joins mid-compute.
                await wait_for(lambda: len(runner.calls) == 1)
                job_b = mgr.submit(spec_of(cfg, label="b"))
                assert mgr.inflight == 1  # no second unit was created
                assert job_b.state == "running"  # joined a running unit
                gate.set()
                await wait_for(lambda: job_a.finished and job_b.finished)
                assert job_a.state == "completed"
                assert job_b.state == "completed"
                assert len(runner.computed) == 1  # exactly one compute
                h = config_hash(cfg)
                assert job_a.slots[h]["summary"] == job_b.slots[h]["summary"]
            finally:
                gate.set()
                await mgr.close(timeout_s=2)

        run(body())


class TestBackpressure:
    def test_queue_full_rejects_whole_submission(self):
        async def body():
            store = FakeStore()
            gate = threading.Event()
            runner = FakeRunner(store, gate=gate)
            mgr = JobManager(
                store, runner=runner, workers=1, max_pending=2, batch_width=1
            )
            await mgr.start()
            try:
                # Occupy the single worker so queued units stay queued.
                mgr.submit(spec_of(tiny(seed=100)))
                await wait_for(lambda: len(runner.calls) == 1)
                mgr.submit(spec_of(tiny(seed=101), tiny(seed=102)))
                assert mgr.queue_depth == 2
                jobs_before = len(mgr.jobs)
                # Needs 2 fresh slots, 0 free: refused atomically.
                with pytest.raises(QueueFull) as exc:
                    mgr.submit(spec_of(tiny(seed=103), tiny(seed=104)))
                assert exc.value.retry_after_s >= 1
                assert len(mgr.jobs) == jobs_before  # no partial admission
                assert mgr.queue_depth == 2
                assert mgr.inflight == 3
                gate.set()
                await wait_for(lambda: mgr.inflight == 0)
                # Capacity is back: the same submission is admitted.
                job = mgr.submit(spec_of(tiny(seed=103), tiny(seed=104)))
                await wait_for(lambda: job.finished)
                assert job.state == "completed"
            finally:
                gate.set()
                await mgr.close(timeout_s=2)

        run(body())

    def test_rejection_counts_backpressure_metric(self):
        async def body():
            store = FakeStore()
            gate = threading.Event()
            runner = FakeRunner(store, gate=gate)
            mgr = JobManager(
                store, runner=runner, workers=1, max_pending=1, batch_width=1
            )
            await mgr.start()
            try:
                mgr.submit(spec_of(tiny(seed=0)))
                await wait_for(lambda: len(runner.calls) == 1)
                mgr.submit(spec_of(tiny(seed=1)))
                with pytest.raises(QueueFull):
                    mgr.submit(spec_of(tiny(seed=2)))
                snap = mgr.metrics.snapshot()
                assert snap["service_backpressure_total"][0]["value"] == 1.0
            finally:
                gate.set()
                await mgr.close(timeout_s=2)

        run(body())

    def test_cached_and_inflight_slots_cost_no_capacity(self):
        async def body():
            store = FakeStore()
            gate = threading.Event()
            runner = FakeRunner(store, gate=gate)
            mgr = JobManager(
                store, runner=runner, workers=1, max_pending=1, batch_width=1
            )
            await mgr.start()
            try:
                cached_cfg = tiny(seed=50)
                store.records[config_hash(cached_cfg)] = {"shared_files": 0.0}
                running_cfg = tiny(seed=51)
                mgr.submit(spec_of(running_cfg))
                await wait_for(lambda: len(runner.calls) == 1)
                queued_cfg = tiny(seed=52)
                mgr.submit(spec_of(queued_cfg))  # fills the queue bound
                # cached + joined-in-flight + joined-queued: zero fresh
                # units, so admission succeeds despite the full queue.
                job = mgr.submit(spec_of(cached_cfg, running_cfg, queued_cfg))
                assert job.total == 3
                gate.set()
                await wait_for(lambda: job.finished)
                assert job.state == "completed"
                assert job.n_cached == 1 and job.n_computed == 2
            finally:
                gate.set()
                await mgr.close(timeout_s=2)

        run(body())


class TestFailureAndShutdown:
    def test_runner_failure_fails_waiting_jobs(self):
        async def body():
            store = FakeStore()
            runner = FakeRunner(store, fail_with=RuntimeError("kernel exploded"))
            hub = EventHub()
            mgr = JobManager(store, hub=hub, runner=runner, workers=1)
            await mgr.start()
            try:
                job = mgr.submit(spec_of(tiny()))
                await wait_for(lambda: job.finished)
                assert job.state == "failed"
                assert "kernel exploded" in job.error
                assert mgr.inflight == 0
                history, _, _ = hub.subscribe(job.id)
                assert history[-1].event == "failed"
            finally:
                await mgr.close(timeout_s=2)

        run(body())

    def test_close_fails_queued_jobs_and_refuses_new(self):
        async def body():
            store = FakeStore()
            gate = threading.Event()
            runner = FakeRunner(store, gate=gate)
            mgr = JobManager(
                store, runner=runner, workers=1, max_pending=8, batch_width=1
            )
            await mgr.start()
            running = mgr.submit(spec_of(tiny(seed=0)))
            await wait_for(lambda: len(runner.calls) == 1)
            queued = mgr.submit(spec_of(tiny(seed=1)))
            gate.set()  # let the in-flight batch land during close
            await mgr.close(timeout_s=10)
            assert queued.state == "failed"
            assert "shutting down" in queued.error
            assert running.state == "completed"  # graceful: compute landed
            with pytest.raises(ServiceClosing):
                mgr.submit(spec_of(tiny(seed=2)))

        run(body())

    def test_submit_refreshes_store_first(self):
        async def body():
            store = FakeStore()
            runner = FakeRunner(store)
            mgr = JobManager(store, runner=runner, workers=1)
            await mgr.start()
            try:
                before = store.refreshes
                cfg = tiny()
                store.records[config_hash(cfg)] = {"shared_files": 2.0}
                job = mgr.submit(spec_of(cfg))
                assert store.refreshes == before + 1
                assert job.state == "completed"  # peer result was seen
            finally:
                await mgr.close(timeout_s=2)

        run(body())


class TestEvents:
    def test_lifecycle_event_order(self):
        async def body():
            store = FakeStore()
            hub = EventHub()
            runner = FakeRunner(store)
            mgr = JobManager(store, hub=hub, runner=runner, workers=1)
            await mgr.start()
            try:
                job = mgr.submit(spec_of(tiny(seed=0), tiny(seed=1)))
                await wait_for(lambda: job.finished)
                history, dropped, _ = hub.subscribe(job.id)
                assert dropped == 0
                kinds = [ev.event for ev in history]
                assert kinds[0] == "queued"
                assert kinds[1] == "started"
                assert kinds.count("progress") == 2
                assert kinds[-1] == "completed"
                final = history[-1].data
                assert final["computed"] == 2
                assert len(final["results"]) == 2
                progress = [ev for ev in history if ev.event == "progress"]
                assert progress[0].data["sweep"]["computed"] >= 1
            finally:
                await mgr.close(timeout_s=2)

        run(body())

    def test_validation_bounds(self):
        store = FakeStore()
        with pytest.raises(ValueError):
            JobManager(store, workers=0)
        with pytest.raises(ValueError):
            JobManager(store, max_pending=0)
        with pytest.raises(ValueError):
            JobManager(store, batch_width=0)


class TestDefaultRunner:
    def test_fresh_compatible_job_runs_as_one_lane_batch(
        self, tmp_path, monkeypatch
    ):
        """A claimed batch of compatible configs is one lane-batched task
        whose results equal solo runs and land in the store once each."""
        tasks = []
        original = sweep_mod._task_worker

        def recording(configs, snapshot=None):
            tasks.append([config_hash(c) for c in configs])
            return original(configs, snapshot)

        monkeypatch.setattr(sweep_mod, "_task_worker", recording)
        configs = [
            tiny(seed=1),
            tiny(seed=2, t_eval=0.5),
            tiny(seed=3, download_probability=0.6),
            tiny(seed=4, edit_attempt_prob=0.15),
        ]
        hashes = [config_hash(c) for c in configs]

        async def body():
            mgr = JobManager(RunStore(tmp_path), workers=1, batch_width=4)
            await mgr.start()
            try:
                job = mgr.submit(spec_of(*configs))
                await wait_for(lambda: job.finished, timeout=60)
                return job
            finally:
                await mgr.close(timeout_s=10)

        job = run(body())
        assert job.state == "completed"
        assert job.n_computed == 4
        assert tasks == [hashes]  # one 4-lane task
        store = RunStore(tmp_path)
        for cfg, h in zip(configs, hashes):
            solo = api.run(cfg).summary
            assert_summaries_equal(store.get_record(h).summary, solo)
            assert_summaries_equal(job.slots[h]["summary"], solo)
        lines = store.index_path.read_text().splitlines()
        assert sorted(json.loads(line)["config_hash"] for line in lines) == sorted(
            hashes
        )
