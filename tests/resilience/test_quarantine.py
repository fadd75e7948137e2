"""Retry/quarantine across sweep, dispatch and service layers.

The acceptance scenario from the resilience PR: a sweep containing one
always-failing config completes every other config, quarantines the
poisonous one exactly once (with a persisted ``errors/<hash>.json``
artifact) and reports the partial result honestly at every layer.
"""

import asyncio
import time
from types import SimpleNamespace

import pytest

from repro.resilience import (
    QUARANTINE_SCHEMA_VERSION,
    FaultPlan,
    FaultSpec,
    build_error_payload,
    clear_plan,
    inject_faults,
)
from repro.sim.config import SimulationConfig
from repro.sim._sweep import SweepFailure, last_sweep_failures, run_sweep
from repro.store.hashing import config_hash
from repro.store._runstore import RunStore


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    clear_plan()
    yield
    clear_plan()


def tiny(seed=0, **kw):
    return SimulationConfig(
        n_agents=12, n_articles=3, training_steps=10, eval_steps=8,
        seed=seed, **kw,
    )


def poison_plan(cfg):
    """Every compute attempt of exactly this config fails."""
    return FaultPlan(
        [FaultSpec(site="sweep/compute", action="error", match=config_hash(cfg))]
    )


class TestErrorPayload:
    def test_schema(self):
        plan = FaultPlan([FaultSpec(site="s", action="delay")])
        plan.check("s")
        payload = build_error_payload(
            config_hash="abc",
            error=ValueError("boom"),
            traceback_text="tb",
            attempts=2,
            config={"seed": 1},
            plan=plan,
        )
        assert payload["schema_version"] == QUARANTINE_SCHEMA_VERSION
        assert payload["config_hash"] == "abc"
        assert payload["attempts"] == 2
        assert payload["error"] == repr(ValueError("boom"))
        assert payload["traceback"] == "tb"
        assert payload["config"] == {"seed": 1}
        assert payload["faults"] == plan.fired
        assert payload["created_at"] > 0


class TestRunStoreErrors:
    def test_put_get_clear(self, tmp_path):
        store = RunStore(tmp_path)
        payload = build_error_payload(config_hash="h1", error="boom")
        assert store.put_error(payload) == "h1"
        assert store.has_error("h1")
        assert store.error_hashes() == ["h1"]
        assert store.get_error("h1")["error"] == "boom"
        assert store.clear_error("h1")
        assert not store.has_error("h1")
        assert not store.clear_error("h1")


class TestSweepQuarantine:
    def test_requires_a_store(self):
        with pytest.raises(ValueError, match="store"):
            run_sweep([tiny()], on_error="quarantine")

    def test_unknown_on_error_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="on_error"):
            run_sweep([tiny()], store=RunStore(tmp_path), on_error="ignore")

    def test_poison_config_quarantined_others_complete(self, tmp_path):
        store = RunStore(tmp_path)
        configs = [tiny(seed=s) for s in (1, 2, 3)]
        bad = configs[1]
        with inject_faults(poison_plan(bad)) as plan:
            results = run_sweep(
                configs, backend="serial", store=store, on_error="quarantine"
            )
        # The failed slot is None; the siblings' results are positional.
        assert results[1] is None
        assert results[0].config.seed == 1 and results[2].config.seed == 3
        # Exactly once per healthy config, exactly the retry budget for
        # the poisonous one (2 attempts by DEFAULT_COMPUTE_RETRY).
        assert store.contains_hash(config_hash(configs[0]))
        assert store.contains_hash(config_hash(configs[2]))
        assert len(plan.fired) == 2
        # The artifact carries the debugging trail.
        artifact = store.get_error(config_hash(bad))
        assert artifact["attempts"] == 2
        assert "InjectedFault" in artifact["error"]
        assert "fault_point" in artifact["traceback"]
        assert artifact["config"]["seed"] == 2
        assert artifact["faults"]  # the fired log was embedded

    def test_failures_enumerated(self, tmp_path):
        store = RunStore(tmp_path)
        configs = [tiny(seed=s) for s in (1, 2)]
        seen = []
        with inject_faults(poison_plan(configs[0])):
            run_sweep(
                configs,
                backend="serial",
                store=store,
                on_error="quarantine",
                on_failure=seen.append,
            )
        failures = last_sweep_failures()
        assert seen == failures
        [f] = failures
        assert isinstance(f, SweepFailure)
        assert f.index == 0
        assert f.config_hash == config_hash(configs[0])
        assert f.attempts == 2
        assert "InjectedFault" in f.error

    def test_healthy_rerun_clears_stale_artifact(self, tmp_path):
        store = RunStore(tmp_path)
        cfg = tiny(seed=4)
        with inject_faults(poison_plan(cfg)):
            assert run_sweep(
                [cfg], backend="serial", store=store, on_error="quarantine"
            ) == [None]
        assert store.has_error(config_hash(cfg))
        # The fault is gone (plan deactivated): the re-run lands normally
        # and retires the quarantine artifact.
        [result] = run_sweep(
            [cfg], backend="serial", store=store, on_error="quarantine"
        )
        assert result is not None
        assert not store.has_error(config_hash(cfg))
        assert store.contains_hash(config_hash(cfg))

    def test_raise_mode_still_raises(self, tmp_path):
        from repro.sim._sweep import SweepWorkerError

        store = RunStore(tmp_path)
        cfg = tiny(seed=5)
        with inject_faults(poison_plan(cfg)):
            with pytest.raises((SweepWorkerError, OSError)):
                run_sweep([cfg, tiny(seed=6)], backend="serial", store=store)
        assert not store.has_error(config_hash(cfg))

    def test_thread_pool_batch_blast_radius_isolated(self, tmp_path):
        # A poisoned lane inside a multi-config batch costs only its own
        # slot: the batch is split and every sibling lane still lands.
        store = RunStore(tmp_path)
        configs = [tiny(seed=s) for s in (7, 17, 27, 37)]
        bad = configs[2]
        with inject_faults(poison_plan(bad)):
            results = run_sweep(
                configs,
                backend="thread",
                workers=2,
                store=store,
                on_error="quarantine",
            )
        assert results[2] is None
        for i in (0, 1, 3):
            assert results[i] is not None
            assert store.contains_hash(config_hash(configs[i]))
        assert store.has_error(config_hash(bad))

    def test_dispatch_store_quarantine_settles_grid(self, tmp_path):
        from repro.store.dispatch import last_dispatch_stats

        store = RunStore(tmp_path)
        configs = [tiny(seed=s) for s in (11, 12, 13)]
        bad = configs[0]
        with inject_faults(poison_plan(bad)):
            results = run_sweep(
                configs,
                backend="serial",
                store=store,
                dispatch="store",
                on_error="quarantine",
            )
        assert results[0] is None
        assert results[1] is not None and results[2] is not None
        stats = last_dispatch_stats()
        assert stats.quarantined == 1
        assert store.has_error(config_hash(bad))
        # No leases left behind: the grid is fully settled.
        assert list((store.root / "claims").glob("*.lease")) == []


class TestOneFailureRule:
    """Local and dispatched sweeps settle a failed task by one rule.

    A 4-lane task whose third lane is poisoned: the task fails, splits
    into solo tasks (the failed attempt counting once per lane), and the
    poisoned lane alone then raises or spends its budget.
    """

    def grid(self):
        return [tiny(seed=s) for s in (11, 12, 13, 14)]

    @pytest.mark.parametrize("dispatch", [None, "store"])
    def test_raise_names_the_poisoned_lane(self, tmp_path, dispatch):
        from repro.sim._sweep import SweepWorkerError

        store = RunStore(tmp_path)
        configs = self.grid()
        bad = configs[2]
        with inject_faults(poison_plan(bad)):
            with pytest.raises(SweepWorkerError) as err:
                run_sweep(
                    configs,
                    backend="serial",
                    store=store,
                    dispatch=dispatch,
                    lane_width=4,
                )
        assert err.value.index == 2
        assert err.value.config == bad
        assert err.value.config_hash == config_hash(bad)
        # The healthy lanes that ran solo before the poisoned one landed.
        store.refresh()
        stored = [store.contains_hash(config_hash(c)) for c in configs]
        assert stored == [True, True, False, False]
        if dispatch == "store":
            assert err.value.task_hashes == [config_hash(c) for c in configs]
            assert list((tmp_path / "claims").glob("*.lease")) == []

    @pytest.mark.parametrize("dispatch", [None, "store"])
    def test_quarantine_spends_exactly_the_budget(self, tmp_path, dispatch):
        store = RunStore(tmp_path)
        configs = self.grid()
        bad = configs[2]
        with inject_faults(poison_plan(bad)) as plan:
            results = run_sweep(
                configs,
                backend="serial",
                store=store,
                dispatch=dispatch,
                lane_width=4,
                on_error="quarantine",
            )
        assert [r is None for r in results] == [False, False, True, False]
        # DEFAULT_COMPUTE_RETRY allows 2 attempts: the batch attempt and
        # one solo attempt.
        assert len(plan.fired) == 2
        assert store.get_error(config_hash(bad))["attempts"] == 2
        [failure] = last_sweep_failures()
        assert failure.index == 2 and failure.attempts == 2


class TestServicePartialJobs:
    """A quarantined unit degrades the job to 'partial', never 'failed'."""

    def _run(self, coro):
        return asyncio.run(coro)

    def test_job_goes_partial_with_config_failed_event(self):
        from repro.service.hub import EventHub
        from repro.service.jobs import JobManager
        from repro.service.schemas import SubmitSpec

        class FakeStore:
            def __init__(self):
                self.records = {}

            def refresh(self):
                return 0

            def contains_hash(self, h):
                return h in self.records

            def get_record(self, h):
                rec = self.records.get(h)
                return None if rec is None else SimpleNamespace(summary=rec)

        good, bad = tiny(seed=31), tiny(seed=32)
        bad_hash = config_hash(bad)

        def runner(configs, progress, on_failure):
            stats = SimpleNamespace(
                elapsed_s=0.01, eta_s=0.0, cached=0, computed=len(configs)
            )
            for i, cfg in enumerate(configs):
                h = config_hash(cfg)
                if h == bad_hash:
                    on_failure(
                        SweepFailure(
                            index=i,
                            config=cfg,
                            config_hash=h,
                            attempts=2,
                            error="InjectedFault('sweep/compute')",
                            traceback_text="",
                        )
                    )
                    continue
                store.records[h] = {"shared_files": 1.0}
                result = SimpleNamespace(
                    summary={"shared_files": 1.0}, wall_time_s=0.001
                )
                progress(i + 1, len(configs), i, result, False, stats)

        async def body():
            mgr = JobManager(store, hub=hub, runner=runner, workers=1)
            await mgr.start()
            try:
                job = mgr.submit(SubmitSpec(configs=(good, bad), label="t"))
                deadline = time.monotonic() + 10
                while not job.finished:
                    assert time.monotonic() < deadline
                    await asyncio.sleep(0.01)
                assert job.state == "partial"
                assert job.n_failed == 1
                slot = job.slots[bad_hash]
                assert slot["status"] == "failed"
                assert slot["source"] == "quarantine"
                assert slot["attempts"] == 2
                assert "InjectedFault" in slot["error"]
                view = job.view()
                assert view["state"] == "partial" and view["failed"] == 1
                history, _, queue = hub.subscribe(job.id)
                kinds = [ev.event for ev in history]
                assert "config_failed" in kinds
                assert kinds[-1] == "completed"
                hub.unsubscribe(job.id, queue)
            finally:
                await mgr.close(timeout_s=2)

        store = FakeStore()
        hub = EventHub()
        self._run(body())
