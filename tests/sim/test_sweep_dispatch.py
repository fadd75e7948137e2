"""Tests for ``run_sweep(dispatch="store")`` and the sweep-worker CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tests.conftest import assert_summaries_equal

import repro.sim._sweep as sweep_mod
from repro.sim.config import SimulationConfig
from repro.sim._sweep import SweepWorkerError, available_workers, run_sweep
from repro.store.dispatch import last_dispatch_stats
from repro.store.hashing import config_hash
from repro.store._runstore import RunStore


def tiny(seed=0, **kw):
    return SimulationConfig(
        n_agents=8, n_articles=2, founders_per_article=2,
        training_steps=5, eval_steps=5, seed=seed, **kw,
    )


class TestDispatchSweep:
    def test_matches_local_execution(self, tmp_path):
        grid = [tiny(seed=s) for s in range(5)]
        dispatched = run_sweep(
            grid, executor="serial", store=RunStore(tmp_path / "a"),
            dispatch="store", lane_width=2,
        )
        local = run_sweep(grid, executor="serial", store=RunStore(tmp_path / "b"))
        for d, loc in zip(dispatched, local):
            assert d.config == loc.config
            assert_summaries_equal(d.summary, loc.summary)

    def test_persists_and_resumes(self, tmp_path):
        store = RunStore(tmp_path)
        grid = [tiny(seed=s) for s in range(4)]
        run_sweep(grid, executor="serial", store=store, dispatch="store")
        assert last_dispatch_stats().computed == 4
        assert all(store.contains(c) for c in grid)
        # Second invocation computes nothing; slots fill from the store.
        again = run_sweep(grid, executor="serial", store=store, dispatch="store")
        assert last_dispatch_stats().computed == 0
        assert [r.config for r in again] == grid

    def test_duplicate_configs_compute_once(self, tmp_path):
        store = RunStore(tmp_path)
        grid = [tiny(seed=1), tiny(seed=2), tiny(seed=1)]
        results = run_sweep(grid, executor="serial", store=store, dispatch="store")
        assert last_dispatch_stats().computed == 2
        assert results[0].config == results[2].config
        # Duplicate slots carry distinct objects (no aliasing).
        assert results[0] is not results[2]

    def test_event_configs_run_locally(self, tmp_path):
        store = RunStore(tmp_path)
        grid = [tiny(seed=0), tiny(seed=1, collect_events=True)]
        results = run_sweep(grid, executor="serial", store=store, dispatch="store")
        assert results[1].events is not None
        # The event config never entered the published grid.
        manifest = store.get_grid(store.grid_keys()[0])
        assert list(manifest.configs) == [tiny(seed=0)]

    def test_progress_sees_every_slot(self, tmp_path):
        seen = []
        grid = [tiny(seed=s) for s in range(3)]
        run_sweep(
            grid, executor="serial", store=RunStore(tmp_path), dispatch="store",
            progress=lambda done, total, index, result, cached, stats: seen.append(
                (done, total, index)
            ),
        )
        assert len(seen) == 3
        assert seen[-1][0] == 3 and all(total == 3 for _, total, _ in seen)

    def test_requires_store(self):
        with pytest.raises(ValueError, match="needs a store"):
            run_sweep([tiny()], executor="serial", dispatch="store")

    def test_rejects_unknown_dispatch(self, tmp_path):
        # "local" was once an alias of None; the one name now is None.
        for dispatch in ("remote", "local"):
            with pytest.raises(ValueError, match="unknown dispatch"):
                run_sweep([tiny()], executor="serial", dispatch=dispatch)

    def test_no_dispatch_is_classic_path(self, tmp_path):
        store = RunStore(tmp_path)
        results = run_sweep([tiny()], executor="serial", store=store,
                            dispatch=None)
        assert store.grid_keys() == []  # nothing published
        assert results[0].config == tiny()

    def test_worker_failure_releases_lease_and_names_task(
        self, tmp_path, monkeypatch
    ):
        from repro.store.dispatch import LeaseBoard

        store = RunStore(tmp_path)
        grid = [tiny(seed=s) for s in range(2)]

        def boom(configs, snapshot=None):
            raise RuntimeError("kernel fault")

        monkeypatch.setattr(sweep_mod, "_task_worker", boom)
        with pytest.raises(SweepWorkerError) as err:
            run_sweep(grid, executor="serial", store=store, dispatch="store",
                      lane_width=2)
        assert isinstance(err.value.__cause__, RuntimeError)
        assert "kernel fault" in str(err.value)
        # The claimed task's config hashes, whichever lane raised.
        assert err.value.task_hashes == [config_hash(c) for c in grid]
        assert err.value.task_hashes[1][:12] in str(err.value)
        # The lease was released, not leaked.
        assert LeaseBoard(store.root).active() == []


class TestSweepWorkerError:
    def test_message_without_task_hashes_unchanged(self):
        err = SweepWorkerError(3, tiny(), RuntimeError("x"))
        assert "claimed task" not in str(err)
        assert err.task_hashes == []

    def test_message_lists_task_hashes(self):
        hashes = [config_hash(tiny(seed=s)) for s in range(2)]
        err = SweepWorkerError(0, tiny(), RuntimeError("x"), task_hashes=hashes)
        assert err.task_hashes == hashes
        for h in hashes:
            assert h[:12] in str(err)


class TestAvailableWorkers:
    def test_respects_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(
            sweep_mod.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
            raising=False,
        )
        assert available_workers() == 3

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(sweep_mod.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(sweep_mod.os, "cpu_count", lambda: 5)
        assert available_workers() == 4

    def test_never_below_one(self, monkeypatch):
        monkeypatch.setattr(
            sweep_mod.os, "sched_getaffinity", lambda pid: {0}, raising=False
        )
        assert available_workers() == 1


class TestSweepWorkerProcesses:
    def test_two_workers_drain_one_grid_without_duplicates(self, tmp_path):
        """Two real ``repro sweep-worker`` processes split one grid.

        The distributed handshake end to end: publish a manifest, point
        two independent processes at the store, assert a complete drain
        with zero duplicate computation (disjoint computed sets whose
        union is the whole grid).
        """
        store = RunStore(tmp_path / "store")
        grid = [
            SimulationConfig(
                n_agents=8, n_articles=2, founders_per_article=2,
                training_steps=40, eval_steps=40, seed=s,
            )
            for s in range(6)
        ]
        from repro.store.dispatch import publish_sweep_grid

        publish_sweep_grid(store, grid, lane_width=1)
        env = {
            **os.environ,
            "PYTHONPATH": str(Path(__file__).parents[2] / "src"),
        }
        cmd = [
            sys.executable, "-m", "repro.store.cli", "sweep-worker",
            str(store.root), "--summary-json", "--quiet",
            "--wait-for-grid", "0",
        ]
        procs = [
            subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
            for _ in range(2)
        ]
        outs = [p.communicate(timeout=600)[0] for p in procs]
        assert all(p.returncode == 0 for p in procs)
        summaries = [json.loads(out.splitlines()[-1]) for out in outs]
        computed = [set(s["computed_hashes"]) for s in summaries]
        assert not (computed[0] & computed[1]), "duplicate computation"
        assert computed[0] | computed[1] == {config_hash(c) for c in grid}
        store.refresh()  # pick up the workers' index appends
        assert all(store.contains(c) for c in grid)
