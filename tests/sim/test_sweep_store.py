"""Tests for store-backed (cached, resumable) sweeps and failure wrapping."""

import pytest

from tests.conftest import assert_summaries_equal

import repro.sim._sweep as sweep_mod
from repro.sim.config import SimulationConfig
from repro.sim._sweep import SweepWorkerError, run_sweep
from repro.store.hashing import config_hash
from repro.store._runstore import RunStore


def tiny(seed=0, **kw):
    return SimulationConfig(
        n_agents=20, n_articles=5, training_steps=40, eval_steps=30, seed=seed, **kw
    )


def counting_worker(monkeypatch):
    """Instrument the per-task entry point: every config it executes,
    solo or as a lane of a batch, in execution order."""
    calls = []
    original = sweep_mod._task_worker

    def counted(configs, snapshot=None):
        calls.extend(configs)
        return original(configs, snapshot)

    monkeypatch.setattr(sweep_mod, "_task_worker", counted)
    return calls


def failing_task_worker(monkeypatch, seed, exc):
    """Make every task holding the ``seed`` config raise ``exc``."""
    original = sweep_mod._task_worker

    def failing(configs, snapshot=None):
        if any(c.seed == seed for c in configs):
            raise exc
        return original(configs, snapshot)

    monkeypatch.setattr(sweep_mod, "_task_worker", failing)


class TestCachedSweep:
    def test_second_sweep_executes_nothing(self, tmp_path, monkeypatch):
        configs = [tiny(1), tiny(2), tiny(3)]
        store = RunStore(tmp_path)
        first = run_sweep(configs, executor="serial", store=store)

        calls = counting_worker(monkeypatch)
        second = run_sweep(configs, executor="serial", store=RunStore(tmp_path))
        assert calls == []  # zero simulations the second time
        for a, b in zip(first, second):
            assert_summaries_equal(a.summary, b.summary)
            assert a.config == b.config

    def test_interrupted_sweep_resumes_missing_only(self, tmp_path, monkeypatch):
        configs = [tiny(s) for s in (1, 2, 3, 4)]
        # "Killed midway": only the first two runs reached the store.
        store = RunStore(tmp_path)
        run_sweep(configs[:2], executor="serial", store=store)

        calls = counting_worker(monkeypatch)
        results = run_sweep(configs, executor="serial", store=RunStore(tmp_path))
        assert [c.seed for c in calls] == [3, 4]  # only the missing configs
        assert [r.config.seed for r in results] == [1, 2, 3, 4]

    def test_cached_matches_fresh(self, tmp_path):
        configs = [tiny(1), tiny(2)]
        run_sweep(configs, executor="serial", store=RunStore(tmp_path))
        cached = run_sweep(configs, executor="serial", store=RunStore(tmp_path))
        fresh = run_sweep(configs, executor="serial")
        for a, b in zip(cached, fresh):
            assert_summaries_equal(a.summary, b.summary)

    def test_duplicate_configs_execute_once(self, tmp_path, monkeypatch):
        calls = counting_worker(monkeypatch)
        results = run_sweep(
            [tiny(1), tiny(1), tiny(1)], executor="serial", store=RunStore(tmp_path)
        )
        assert len(calls) == 1
        assert len(results) == 3
        assert_summaries_equal(results[0].summary, results[2].summary)
        # Duplicate slots own distinct objects: mutating one cannot
        # corrupt its siblings.
        assert results[0] is not results[1]
        assert results[1] is not results[2]

    def test_duplicate_cache_accounting_per_slot(self, tmp_path):
        # Cold store, 3 duplicate slots, 1 execution: the executed slot
        # is the single miss, the duplicate slots count as hits (served
        # from the store after the put) — never more misses than slots.
        store = RunStore(tmp_path)
        run_sweep([tiny(1), tiny(1), tiny(1)], executor="serial", store=store)
        assert store.stats == {"stored": 1, "hits": 2, "misses": 1}

    def test_no_store_duplicates_execute_independently(self, monkeypatch):
        calls = counting_worker(monkeypatch)
        results = run_sweep([tiny(1), tiny(1)], executor="serial")
        assert len(calls) == 2  # no store identity -> no dedupe
        assert results[0] is not results[1]

    def test_collect_events_bypasses_cache(self, tmp_path, monkeypatch):
        cfg = tiny(1, collect_events=True)
        store = RunStore(tmp_path)
        first = run_sweep([cfg], executor="serial", store=store)
        assert first[0].events is not None
        assert not store.contains(cfg)  # event runs are never persisted

        calls = counting_worker(monkeypatch)
        second = run_sweep([cfg], executor="serial", store=RunStore(tmp_path))
        assert len(calls) == 1  # re-executed, not served summary-only
        assert second[0].events is not None

    def test_thread_backend_with_store(self, tmp_path):
        configs = [tiny(1), tiny(2)]
        store = RunStore(tmp_path)
        run_sweep(configs, executor="thread", workers=2, store=store)
        assert store.stats["stored"] == 2
        again = run_sweep(configs, executor="thread", workers=2, store=store)
        assert store.hits == 2
        serial = run_sweep(configs, executor="serial")
        for a, b in zip(again, serial):
            assert_summaries_equal(a.summary, b.summary)

    def test_process_backend_with_store(self, tmp_path):
        configs = [tiny(1), tiny(2)]
        store = RunStore(tmp_path)
        results = run_sweep(configs, executor="process", workers=2, store=store)
        assert store.stats["stored"] == 2
        serial = run_sweep(configs, executor="serial")
        for a, b in zip(results, serial):
            assert_summaries_equal(a.summary, b.summary)


class TestProgressCallback:
    def test_progress_reports_every_slot(self, tmp_path):
        events = []
        run_sweep(
            [tiny(1), tiny(2)],
            executor="serial",
            store=RunStore(tmp_path),
            progress=lambda done, total, i, r, cached, stats: events.append(
                (done, total, i, cached)
            ),
        )
        assert [(e[0], e[1]) for e in events] == [(1, 2), (2, 2)]
        assert all(not e[3] for e in events)  # first pass: nothing cached

        events.clear()
        run_sweep(
            [tiny(1), tiny(2)],
            executor="serial",
            store=RunStore(tmp_path),
            progress=lambda done, total, i, r, cached, stats: events.append(
                (done, total, i, cached)
            ),
        )
        assert all(e[3] for e in events)  # second pass: all cached

    def test_progress_without_store(self):
        events = []
        run_sweep(
            [tiny(1)],
            executor="serial",
            progress=lambda *args: events.append(args),
        )
        assert len(events) == 1


class TestWorkerFailure:
    def test_serial_failure_names_config(self, monkeypatch):
        boom = tiny(2)
        failing_task_worker(monkeypatch, 2, RuntimeError("numerical doom"))
        with pytest.raises(SweepWorkerError) as err:
            run_sweep([tiny(1), boom, tiny(3)], executor="serial")
        assert err.value.index == 1
        assert err.value.config == boom
        assert err.value.config_hash == config_hash(boom)
        assert err.value.config_hash[:12] in str(err.value)
        assert "numerical doom" in str(err.value)
        assert isinstance(err.value.__cause__, RuntimeError)

    def test_thread_failure_names_config(self, monkeypatch):
        failing_task_worker(monkeypatch, 3, ValueError("bad grid point"))
        with pytest.raises(SweepWorkerError) as err:
            run_sweep([tiny(1), tiny(2), tiny(3)], executor="thread", workers=2)
        assert err.value.index == 2
        assert isinstance(err.value.__cause__, ValueError)

    def test_pooled_successes_drain_before_failure_raises(
        self, tmp_path, monkeypatch
    ):
        import time

        store = RunStore(tmp_path)
        original = sweep_mod._task_worker

        def failing(configs, snapshot=None):
            if any(c.seed == 2 for c in configs):
                time.sleep(0.5)  # successes finish (and persist) first
                raise RuntimeError("doom")
            return original(configs, snapshot)

        monkeypatch.setattr(sweep_mod, "_task_worker", failing)
        with pytest.raises(SweepWorkerError) as err:
            run_sweep(
                [tiny(1), tiny(2), tiny(3)],
                executor="thread",
                workers=3,
                store=store,
            )
        assert err.value.index == 1
        # The sibling runs that completed were persisted despite the
        # failure — a retry sweep only re-executes the failing config.
        reopened = RunStore(tmp_path)
        assert reopened.contains(tiny(1))
        assert reopened.contains(tiny(3))

    def test_completed_results_persist_before_failure(self, tmp_path, monkeypatch):
        store = RunStore(tmp_path)
        failing_task_worker(monkeypatch, 2, RuntimeError("doom"))
        with pytest.raises(SweepWorkerError):
            run_sweep([tiny(1), tiny(2)], executor="serial", store=store)
        # The run that finished before the failure is durable: a retry
        # sweep only needs the failing config.
        assert RunStore(tmp_path).contains(tiny(1))
