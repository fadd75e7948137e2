"""Tests for store-coordinated distributed sweep dispatch.

The lease protocol and the drain loop are exercised with a lightweight
in-memory fake store (so the concurrency tests are sleep-bound, not
compute-bound, and behave identically on 1-core CI boxes), plus one
real-subprocess crash-recovery test against an actual :class:`RunStore`.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.sim.config import SimulationConfig
from repro.store.dispatch import (
    DEFAULT_DISPATCH_LANE_WIDTH,
    DispatchTask,
    Lease,
    LeaseBoard,
    LeaseLost,
    StoreDispatcher,
    default_owner_id,
    plan_dispatch_tasks,
    publish_sweep_grid,
    task_key,
)
from repro.store.hashing import config_hash
from repro.store._runstore import RunStore


def tiny(seed=0, **kw):
    return SimulationConfig(
        n_agents=8, n_articles=2, founders_per_article=2,
        training_steps=5, eval_steps=5, seed=seed, **kw,
    )


class FakeStore:
    """Just enough RunStore surface for the dispatcher: a hash set."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._hashes = set()
        self._lock = threading.Lock()

    def refresh(self):
        return 0

    def contains_hash(self, h):
        with self._lock:
            return h in self._hashes

    def add(self, h):
        with self._lock:
            self._hashes.add(h)


def fake_tasks(n_tasks, lanes=1, prefix="t"):
    """Claimable tasks over string pseudo-configs (run_task is ours)."""
    tasks = []
    for i in range(n_tasks):
        hashes = tuple(f"{prefix}{i}-{j}" for j in range(lanes))
        tasks.append(
            DispatchTask(key=task_key(hashes), configs=hashes, config_hashes=hashes)
        )
    return tasks


def drain(dispatcher, store, tasks, delay=0.0, computed=None):
    """Drain with a sleep-task runner; returns (stats, computed list)."""
    computed = computed if computed is not None else []

    def run_task(cfgs, task):
        if delay:
            time.sleep(delay)
        return [f"result-{c}" for c in cfgs]

    def on_computed(cfg, h, result):
        store.add(h)
        computed.append(h)

    stats = dispatcher.drain(tasks, run_task, on_computed, lambda cfg, h: None)
    return stats, computed


class TestTaskKey:
    def test_order_independent(self):
        assert task_key(["a", "b", "c"]) == task_key(["c", "a", "b"])

    def test_distinct_sets_distinct_keys(self):
        assert task_key(["a", "b"]) != task_key(["a", "c"])
        assert task_key(["ab"]) != task_key(["a", "b"])

    def test_owner_ids_unique(self):
        assert default_owner_id() != default_owner_id()


class TestPlanning:
    def test_partition_is_deterministic_and_complete(self):
        grid = [tiny(seed=s) for s in range(7)]
        t1 = plan_dispatch_tasks(grid, lane_width=2)
        t2 = plan_dispatch_tasks(list(grid), lane_width=2)
        assert [t.key for t in t1] == [t.key for t in t2]
        assert all(len(t.configs) <= 2 for t in t1)
        covered = {h for t in t1 for h in t.config_hashes}
        assert covered == {config_hash(c) for c in grid}

    def test_lane_width_changes_partition(self):
        grid = [tiny(seed=s) for s in range(4)]
        wide = plan_dispatch_tasks(grid, lane_width=4)
        narrow = plan_dispatch_tasks(grid, lane_width=1)
        assert len(narrow) == 4
        assert len(wide) < len(narrow)

    def test_rejects_event_configs(self):
        with pytest.raises(ValueError, match="event-collecting"):
            plan_dispatch_tasks([tiny(collect_events=True)])

    def test_rejects_bad_lane_width(self):
        with pytest.raises(ValueError):
            plan_dispatch_tasks([tiny()], lane_width=0)

    def test_publish_dedups_and_skips_event_configs(self, tmp_path):
        store = RunStore(tmp_path)
        configs = [tiny(seed=0), tiny(seed=1), tiny(seed=0),
                   tiny(seed=2, collect_events=True)]
        key, grid = publish_sweep_grid(store, configs, lane_width=2)
        assert grid == [tiny(seed=0), tiny(seed=1)]
        manifest = store.get_grid(key)
        assert manifest is not None
        assert list(manifest.configs) == grid
        assert manifest.lane_width == 2
        # Republishing is idempotent: same key, one manifest.
        key2, _ = publish_sweep_grid(store, configs, lane_width=2)
        assert key2 == key
        assert store.grid_keys() == [key]

    def test_publish_default_lane_width(self, tmp_path):
        store = RunStore(tmp_path)
        key, _ = publish_sweep_grid(store, [tiny()])
        assert store.get_grid(key).lane_width == DEFAULT_DISPATCH_LANE_WIDTH


class TestLeaseBoard:
    def test_claim_is_exclusive(self, tmp_path):
        a = LeaseBoard(tmp_path, owner="a")
        b = LeaseBoard(tmp_path, owner="b")
        lease = a.claim("k1", ("h1",))
        assert lease is not None and lease.owner == "a"
        assert b.claim("k1") is None
        got = b.read("k1")
        assert got.owner == "a" and got.config_hashes == ("h1",)

    def test_release_frees_key_for_others(self, tmp_path):
        a = LeaseBoard(tmp_path, owner="a")
        b = LeaseBoard(tmp_path, owner="b")
        lease = a.claim("k1")
        assert a.release(lease) is True
        assert b.claim("k1") is not None

    def test_release_refuses_foreign_lease(self, tmp_path):
        a = LeaseBoard(tmp_path, owner="a")
        b = LeaseBoard(tmp_path, owner="b")
        lease = a.claim("k1")
        assert b.release(lease) is False
        assert a.read("k1").owner == "a"

    def test_renew_advances_heartbeat(self, tmp_path):
        a = LeaseBoard(tmp_path, owner="a")
        lease = a.claim("k1")
        renewed = a.renew(lease)
        assert renewed.heartbeat_at >= lease.heartbeat_at
        assert a.read("k1").heartbeat_at == pytest.approx(
            renewed.heartbeat_at
        )

    def test_renew_after_reclaim_raises_lease_lost(self, tmp_path):
        a = LeaseBoard(tmp_path, owner="a")
        b = LeaseBoard(tmp_path, owner="b")
        lease = a.claim("k1")
        assert b.reclaim("k1") is True
        b.claim("k1")
        with pytest.raises(LeaseLost):
            a.renew(lease)
        # ...and the usurper's claim is untouched.
        assert a.read("k1").owner == "b"

    def test_reclaim_missing_lease_loses(self, tmp_path):
        assert LeaseBoard(tmp_path).reclaim("nope") is False

    def test_reclaim_race_has_one_winner(self, tmp_path):
        a = LeaseBoard(tmp_path, owner="a")
        a.claim("k1")
        boards = [LeaseBoard(tmp_path, owner=f"w{i}") for i in range(4)]
        wins = [board.reclaim("k1") for board in boards]
        assert wins.count(True) == 1

    def test_staleness_math(self):
        lease = Lease(key="k", owner="o", created_at=100.0,
                      heartbeat_at=100.0, expiry_s=30.0)
        assert not lease.is_stale(now=120.0)
        assert lease.is_stale(now=131.0)
        assert lease.age_s(now=110.0) == pytest.approx(10.0)

    def test_corrupt_lease_file_reads_as_mtime_lease(self, tmp_path):
        board = LeaseBoard(tmp_path, owner="a", expiry_s=5.0)
        path = board.claims_dir / "k1.lease"
        path.write_text("{torn garbag", encoding="utf-8")
        lease = board.read("k1")
        assert lease.owner == "<unreadable>"
        assert lease.expiry_s == 5.0
        assert not lease.is_stale()  # mtime is now
        assert lease.is_stale(now=time.time() + 6.0)

    def test_active_lists_claims(self, tmp_path):
        board = LeaseBoard(tmp_path, owner="a")
        board.claim("k2")
        board.claim("k1")
        assert [lease.key for lease in board.active()] == ["k1", "k2"]

    def test_rejects_nonpositive_expiry(self, tmp_path):
        with pytest.raises(ValueError):
            LeaseBoard(tmp_path, expiry_s=0.0)


class TestStoreDispatcher:
    def test_single_drain_computes_everything(self, tmp_path):
        store = FakeStore(tmp_path)
        tasks = fake_tasks(3, lanes=2)
        stats, computed = drain(StoreDispatcher(store), store, tasks)
        assert stats.computed == 6
        assert stats.claimed == 3 == stats.released
        assert stats.served == 0
        assert sorted(computed) == sorted(h for t in tasks for h in t.config_hashes)
        assert stats.computed_hashes == computed
        # Every lease was cleaned up.
        assert StoreDispatcher(store).board.active() == []

    def test_prestored_hashes_are_served_not_computed(self, tmp_path):
        store = FakeStore(tmp_path)
        tasks = fake_tasks(2, lanes=2)
        for h in tasks[0].config_hashes:
            store.add(h)
        served = []
        dispatcher = StoreDispatcher(store)

        def on_computed(cfg, h, result):
            store.add(h)

        stats = dispatcher.drain(
            tasks,
            lambda cfgs, task: [None] * len(cfgs),
            on_computed,
            lambda cfg, h: served.append(h),
        )
        assert stats.served == 2 and sorted(served) == sorted(tasks[0].config_hashes)
        assert stats.computed == 2

    def test_two_dispatchers_cooperate_without_duplicates(self, tmp_path):
        """Two concurrent drains split the work and overlap in time.

        Sleep-bound tasks, so the cooperative wall-clock gain shows even
        on a single-core machine: 8 tasks x 0.15 s is 1.2 s serial;
        two cooperating workers must land well under that.
        """
        store = FakeStore(tmp_path)
        tasks = fake_tasks(8)
        done: dict[str, list] = {"a": [], "b": []}
        errs = []

        def worker(name):
            dispatcher = StoreDispatcher(
                store, owner=name, expiry_s=30.0, poll_interval_s=0.02
            )
            try:
                drain(dispatcher, store, tasks, delay=0.15, computed=done[name])
            except Exception as exc:  # pragma: no cover - failure path
                errs.append(exc)

        start = time.perf_counter()
        threads = [threading.Thread(target=worker, args=(n,)) for n in ("a", "b")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - start
        assert not errs
        a, b = set(done["a"]), set(done["b"])
        assert not (a & b), f"duplicate computation: {a & b}"
        assert a | b == {h for t in tasks for h in t.config_hashes}
        # Both actually participated, and the drain was genuinely
        # cooperative (well under the 1.2 s serial cost).
        assert a and b
        assert elapsed < 0.6 * 8 * 0.15 + 0.25

    def test_stale_lease_is_reclaimed_and_recomputed(self, tmp_path):
        store = FakeStore(tmp_path)
        tasks = fake_tasks(2)
        # A "crashed" worker claimed task 0 and will never heartbeat.
        dead = LeaseBoard(store.root, owner="dead", expiry_s=0.2)
        assert dead.claim(tasks[0].key, tasks[0].config_hashes) is not None
        dispatcher = StoreDispatcher(store, expiry_s=0.2, poll_interval_s=0.05)
        stats, computed = drain(dispatcher, store, tasks)
        assert stats.computed == 2
        assert stats.expired >= 1 and stats.reclaimed >= 1
        assert set(computed) == {h for t in tasks for h in t.config_hashes}

    def test_heartbeat_renews_during_long_task(self, tmp_path):
        store = FakeStore(tmp_path)
        dispatcher = StoreDispatcher(
            store, expiry_s=10.0, heartbeat_interval_s=0.05
        )
        stats, _ = drain(dispatcher, store, fake_tasks(1), delay=0.4)
        assert stats.renewed >= 2
        assert stats.lease_lost == 0

    def test_lost_lease_counted_but_work_completes(self, tmp_path):
        store = FakeStore(tmp_path)
        tasks = fake_tasks(1)
        dispatcher = StoreDispatcher(
            store, owner="victim", expiry_s=10.0, heartbeat_interval_s=0.05
        )
        usurper = LeaseBoard(store.root, owner="usurper", expiry_s=10.0)

        def run_task(cfgs, task):
            # Steal the lease mid-computation, as a reclaim would.
            assert usurper.reclaim(task.key)
            usurper.claim(task.key)
            time.sleep(0.2)  # let a renew attempt discover the theft
            return [None] * len(cfgs)

        stats = dispatcher.drain(
            tasks, run_task, lambda cfg, h, r: store.add(h), lambda cfg, h: None
        )
        assert stats.computed == 1
        assert stats.lease_lost == 1
        # The victim never releases the usurper's lease.
        assert usurper.read(tasks[0].key).owner == "usurper"

    def test_failed_task_releases_lease_and_raises(self, tmp_path):
        store = FakeStore(tmp_path)
        tasks = fake_tasks(1)
        dispatcher = StoreDispatcher(store)

        def boom(cfgs, task):
            raise RuntimeError("engine exploded")

        with pytest.raises(RuntimeError, match="engine exploded"):
            dispatcher.drain(
                tasks, boom, lambda cfg, h, r: store.add(h), lambda cfg, h: None
            )
        # Released, not leaked: survivors can retry immediately.
        assert dispatcher.board.active() == []

    def test_waits_for_peer_results(self, tmp_path):
        """All tasks leased elsewhere: the drain polls, then completes
        once the peer's results land in the store."""
        store = FakeStore(tmp_path)
        tasks = fake_tasks(2)
        peer = LeaseBoard(store.root, owner="peer", expiry_s=30.0)
        for t in tasks:
            peer.claim(t.key, t.config_hashes)

        def land_results():
            time.sleep(0.2)
            for t in tasks:
                for h in t.config_hashes:
                    store.add(h)

        thread = threading.Thread(target=land_results)
        thread.start()
        dispatcher = StoreDispatcher(store, poll_interval_s=0.02)
        served = []
        stats = dispatcher.drain(
            tasks,
            lambda cfgs, task: [None] * len(cfgs),
            lambda cfg, h, r: store.add(h),
            lambda cfg, h: served.append(h),
        )
        thread.join()
        assert stats.computed == 0
        assert stats.served == 2 and len(served) == 2


class TestCrashRecovery:
    def test_killed_worker_lease_expires_and_grid_completes(self, tmp_path):
        """A SIGKILLed claimant's task is reclaimed and recomputed.

        The subprocess claims a real lease (as a worker that dies
        mid-task would hold one), signals readiness, and hangs; the
        parent kills it dead — no cleanup handlers run — then drains the
        grid with a short expiry.  The grid must complete, the corpse's
        task must be reclaimed, and the store must end with exactly one
        record per config.
        """
        from repro.sim._sweep import run_sweep
        from repro.store.dispatch import last_dispatch_stats

        store = RunStore(tmp_path / "store")
        configs = [tiny(seed=s) for s in range(3)]
        key, grid = publish_sweep_grid(store, configs, lane_width=1)
        victim_task = plan_dispatch_tasks(grid, lane_width=1)[0]

        script = (
            "import sys, time\n"
            "from repro.store.dispatch import LeaseBoard\n"
            "board = LeaseBoard(sys.argv[1], owner='doomed')\n"
            "assert board.claim(sys.argv[2]) is not None\n"
            "print('claimed', flush=True)\n"
            "time.sleep(120)\n"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(store.root), victim_task.key],
            stdout=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).parents[2] / "src")},
        )
        try:
            assert proc.stdout.readline().strip() == "claimed"
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)

        results = run_sweep(
            configs,
            executor="serial",
            store=store,
            dispatch="store",
            lane_width=1,
            lease_expiry_s=0.5,
        )
        stats = last_dispatch_stats()
        assert stats.expired >= 1 and stats.reclaimed >= 1
        assert stats.computed == 3
        assert [r.config for r in results] == configs
        # Exactly one index record per config: the reclaim recomputed,
        # it did not double-book.
        index_hashes = [
            json.loads(line)["config_hash"]
            for line in (store.root / "index.jsonl").read_text().splitlines()
        ]
        assert sorted(index_hashes) == sorted(config_hash(c) for c in configs)
        assert all(store.contains(c) for c in configs)
        # No leases left behind.
        assert LeaseBoard(store.root).active() == []
