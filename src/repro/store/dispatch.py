"""Store-coordinated cooperative sweep dispatch: lease-based grid draining.

N independent sweep invocations — separate terminals, cron jobs, or
machines sharing a filesystem — cooperatively drain one grid with zero
duplicate computation, using the :class:`~repro.store.RunStore` as the
only coordination substrate.  No daemon, no sockets: the protocol is
plain atomic filesystem operations under the store root.

The pieces:

* **task keys** — a grid is partitioned once, deterministically, into
  lane-batched task units (:func:`plan_dispatch_tasks`, built on
  :func:`repro.sim._sweep.plan_lane_batches`); a task's key is the sha256
  of its member config hashes, so every invocation that plans the same
  grid derives the same keys.
* **grid manifests** — :meth:`RunStore.put_grid` publishes the grid
  (canonical config dicts + the lane width it was planned with) under
  ``grids/<key>.json``, so a bare ``repro sweep-worker <store>``
  invocation can reconstruct the identical task partition and join the
  drain without being handed the grid out of band.
* **leases** — ``claims/<task-key>.lease`` files created with
  ``O_CREAT | O_EXCL`` (:meth:`LeaseBoard.claim`): exactly one claimant
  wins the create, carries its owner id and a heartbeat timestamp, and
  renews the heartbeat from a background thread while the task computes
  (:meth:`LeaseBoard.renew` verifies ownership before every rewrite).
  Finished tasks release their lease (:meth:`LeaseBoard.release`).
* **stale-lease reclamation** — a worker that stops heartbeating
  (crashed, SIGKILLed, unplugged) is declared dead once its lease's
  heartbeat is older than the configurable expiry; a survivor reclaims
  the lease by atomically renaming it away (only one renamer can win)
  and recomputes the task (:meth:`LeaseBoard.reclaim`).  Robustness is
  built into the protocol: every claimed-but-unfinished task is
  eventually recomputed by survivors.

Correctness does not depend on lease exclusivity — results are
deterministic per config and ``RunStore.put`` is idempotent — leases
only prevent *duplicate work*.  The one duplicate-compute window is a
live-but-stalled worker whose lease expires (it keeps computing while a
survivor recomputes); choose ``expiry_s`` well above the heartbeat
interval plus worst-case scheduling delay and cross-machine clock skew.

Telemetry (when the ambient :class:`repro.obs.Tracer` is enabled):
``sweep_leases_total{event=claimed|renewed|released|expired|reclaimed}``
counters, a ``sweep_throughput_configs_per_sec`` gauge, and
``dispatch/task`` / ``dispatch/wait`` / ``dispatch/drain`` spans — all
of which surface in ``repro stats`` once persisted as telemetry
artifacts (``repro sweep-worker --trace``).
"""

from __future__ import annotations

import json
import os
import secrets
import socket
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Sequence

from ..obs import Stopwatch, get_tracer
from ..resilience.faults import fault_point
from ..resilience.retry import DEFAULT_STORE_RETRY, RetryPolicy
from ..resilience.snapshot import snapshot_key as task_key
from ..sim.config import SimulationConfig
from .hashing import config_hash

__all__ = [
    "DEFAULT_LEASE_EXPIRY_S",
    "DEFAULT_POLL_INTERVAL_S",
    "DEFAULT_DISPATCH_LANE_WIDTH",
    "task_key",
    "default_owner_id",
    "Lease",
    "LeaseLost",
    "LeaseBoard",
    "DispatchTask",
    "DispatchStats",
    "StoreDispatcher",
    "plan_dispatch_tasks",
    "publish_sweep_grid",
    "last_dispatch_stats",
]

#: Seconds without a heartbeat after which a lease is considered stale
#: and may be reclaimed by any surviving worker.  Must comfortably exceed
#: the heartbeat interval (``expiry_s / 4`` by default) plus scheduling
#: delay and cross-machine clock skew; see docs/ARCHITECTURE.md.
DEFAULT_LEASE_EXPIRY_S = 30.0

#: Seconds a dispatcher sleeps between passes when every open task is
#: leased by someone else (it is waiting for their results to land).
DEFAULT_POLL_INTERVAL_S = 0.25

#: Lanes per dispatch task when the caller gives no explicit width.  A
#: fixed constant — never derived from the local machine — because every
#: cooperating invocation must partition the grid identically for the
#: task keys to line up.  Small enough that modest grids still split
#: into several claimable units.
DEFAULT_DISPATCH_LANE_WIDTH = 8

_CLAIMS_DIR = "claims"


def default_owner_id() -> str:
    """A lease owner id unique across hosts, processes and restarts."""
    return f"{socket.gethostname()}-{os.getpid()}-{secrets.token_hex(4)}"


class LeaseLost(RuntimeError):
    """A renew found the lease gone or owned by someone else.

    Raised when this worker was presumed dead and its task reclaimed;
    the correct response is to finish (results are idempotent) but stop
    renewing and never release the successor's lease.
    """


@dataclass(frozen=True)
class Lease:
    """One claim file's contents: who owns a task and since when."""

    key: str
    owner: str
    created_at: float
    heartbeat_at: float
    expiry_s: float
    config_hashes: tuple[str, ...] = ()

    def age_s(self, now: float | None = None) -> float:
        """Seconds since the last heartbeat."""
        return (time.time() if now is None else now) - self.heartbeat_at

    def is_stale(self, now: float | None = None) -> bool:
        """Whether the owner has missed enough heartbeats to be dead."""
        return self.age_s(now) > self.expiry_s

    def as_dict(self) -> dict[str, Any]:
        """JSON-able lease-file payload."""
        return {
            "key": self.key,
            "owner": self.owner,
            "created_at": self.created_at,
            "heartbeat_at": self.heartbeat_at,
            "expiry_s": self.expiry_s,
            "config_hashes": list(self.config_hashes),
        }


class LeaseBoard:
    """Atomic lease files under ``<store root>/claims/``.

    Pure-filesystem mutual exclusion: ``claim`` is an ``O_EXCL`` create
    (exactly one winner per key), ``renew`` verifies ownership and
    atomically replaces the payload, ``release`` verifies ownership and
    unlinks, ``reclaim`` renames a stale lease to a unique graveyard
    name — ``os.rename`` has one winner, so two survivors cannot both
    reclaim the same corpse.  Readers tolerate torn or corrupt lease
    files by falling back to the file's mtime as the heartbeat.
    """

    def __init__(
        self,
        root: str | Path,
        owner: str | None = None,
        expiry_s: float = DEFAULT_LEASE_EXPIRY_S,
        retry: RetryPolicy | None = DEFAULT_STORE_RETRY,
    ):
        if expiry_s <= 0:
            raise ValueError("expiry_s must be positive")
        self.claims_dir = Path(root) / _CLAIMS_DIR
        self.claims_dir.mkdir(parents=True, exist_ok=True)
        self.owner = owner or default_owner_id()
        self.expiry_s = float(expiry_s)
        #: Bounded retry around the claim/renew filesystem writes.  A
        #: lost claim race (``FileExistsError``) is never retried — it is
        #: an answer, not a failure.
        self.retry = retry

    def _io(self, fn: Callable[[], Any], site: str) -> Any:
        return self.retry.call(fn, site=site) if self.retry is not None else fn()

    def _path(self, key: str) -> Path:
        return self.claims_dir / f"{key}.lease"

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------
    def claim(
        self, key: str, config_hashes: Sequence[str] = ()
    ) -> Lease | None:
        """Try to claim ``key``; ``None`` when someone else holds it.

        The ``O_EXCL`` create is the whole mutual exclusion: losing the
        race surfaces as ``FileExistsError``, never as a torn file.
        Failure point ``lease/claim`` fires per attempt inside the retry
        wrapper, so a single-occurrence injected ``OSError`` is ridden
        out transparently.
        """
        now = time.time()
        lease = Lease(
            key=key,
            owner=self.owner,
            created_at=now,
            heartbeat_at=now,
            expiry_s=self.expiry_s,
            config_hashes=tuple(config_hashes),
        )

        def attempt() -> Lease | None:
            fault_point("lease/claim", key=key)
            try:
                fd = os.open(
                    self._path(key), os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644
                )
            except FileExistsError:
                return None  # lost the race: an answer, not an error
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(lease.as_dict()))
            return lease

        return self._io(attempt, "lease/claim")

    def read(self, key: str) -> Lease | None:
        """The current lease on ``key``, or ``None`` when unclaimed.

        A lease file that cannot be parsed (torn write, corruption) is
        still a lease — an unknown owner whose heartbeat is the file's
        mtime, so staleness math keeps working on garbage.
        """
        path = self._path(key)
        try:
            raw = path.read_text(encoding="utf-8")
            data = json.loads(raw)
            return Lease(
                key=key,
                owner=str(data["owner"]),
                created_at=float(data["created_at"]),
                heartbeat_at=float(data["heartbeat_at"]),
                expiry_s=float(data["expiry_s"]),
                config_hashes=tuple(data.get("config_hashes") or ()),
            )
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError):
            try:
                mtime = path.stat().st_mtime
            except OSError:
                return None  # vanished between read and stat: unclaimed
            return Lease(
                key=key,
                owner="<unreadable>",
                created_at=mtime,
                heartbeat_at=mtime,
                expiry_s=self.expiry_s,
            )

    def renew(self, lease: Lease) -> Lease:
        """Refresh the heartbeat; raises :class:`LeaseLost` if usurped.

        Verifies on disk that this board still owns the lease before the
        atomic replace — a reclaimed worker must not clobber its
        successor's claim.  (The verify/replace pair is not atomic; the
        race window is microseconds against an expiry measured in
        seconds, and a clobbered successor merely recomputes — results
        stay correct because the store is idempotent.)

        Failure point ``lease/renew`` supports the ``lease-loss`` action
        — an injected :class:`LeaseLost`, as if a survivor had reclaimed
        this worker mid-compute — in addition to the usual
        error/crash/delay.
        """
        spec = fault_point("lease/renew", key=lease.key)
        if spec is not None and spec.action == "lease-loss":
            raise LeaseLost(
                f"injected lease loss on {lease.key[:12]} (fault plan)"
            )
        current = self.read(lease.key)
        if current is None or current.owner != self.owner:
            raise LeaseLost(
                f"lease {lease.key[:12]} now belongs to "
                f"{current.owner if current else 'nobody'}"
            )
        renewed = replace(lease, heartbeat_at=time.time())
        path = self._path(lease.key)
        tmp = self.claims_dir / f".{lease.key}.{os.getpid()}.tmp"

        def write() -> None:
            tmp.write_text(json.dumps(renewed.as_dict()), encoding="utf-8")
            os.replace(tmp, path)

        self._io(write, "lease/renew")
        return renewed

    def release(self, lease: Lease) -> bool:
        """Drop a finished task's lease; ``False`` if it was not ours."""
        fault_point("lease/release", key=lease.key)
        current = self.read(lease.key)
        if current is None or current.owner != self.owner:
            return False
        try:
            self._path(lease.key).unlink()
        except FileNotFoundError:
            return False
        return True

    def reclaim(self, key: str) -> bool:
        """Atomically remove a (presumed stale) lease; ``True`` if we won.

        The rename to a unique graveyard name is the arbitration: of N
        survivors racing to reclaim one corpse, exactly one rename
        succeeds and the losers see ``FileNotFoundError``.  The winner
        does not inherit the lease — it (or anyone else) claims the now
        free key through the normal ``claim`` path.
        """
        grave = self.claims_dir / f".reap-{key}-{secrets.token_hex(4)}"
        try:
            os.rename(self._path(key), grave)
        except FileNotFoundError:
            return False
        grave.unlink(missing_ok=True)
        return True

    def active(self) -> list[Lease]:
        """Every currently claimed lease (sorted by key)."""
        out = []
        for path in sorted(self.claims_dir.glob("*.lease")):
            lease = self.read(path.stem)
            if lease is not None:
                out.append(lease)
        return out


@dataclass(frozen=True)
class DispatchTask:
    """One claimable unit of a grid: a lane-compatible config batch."""

    key: str
    configs: tuple[SimulationConfig, ...]
    config_hashes: tuple[str, ...]


@dataclass
class DispatchStats:
    """Counters of one cooperative drain (mirrored into the tracer)."""

    owner: str = ""
    claimed: int = 0
    renewed: int = 0
    released: int = 0
    expired: int = 0
    reclaimed: int = 0
    lease_lost: int = 0
    #: Configs this invocation simulated itself.
    computed: int = 0
    #: Configs that landed in the store via some other invocation (or
    #: were already there) while this drain watched.
    served: int = 0
    #: Claimed tasks this invocation resumed from a mid-run snapshot
    #: (typically a reclaimed task's checkpoint) instead of step 0.
    resumed: int = 0
    #: Configs settled by a quarantine artifact — failed permanently,
    #: whether quarantined by this invocation or observed from a peer.
    quarantined: int = 0
    #: Transient heartbeat-renew failures the beat thread rode out.
    heartbeat_failures: int = 0
    wall_s: float = 0.0
    computed_hashes: list[str] = field(default_factory=list)

    @property
    def configs_per_sec(self) -> float:
        """Locally computed configs per wall second of the drain."""
        return self.computed / self.wall_s if self.wall_s > 0 else 0.0

    def as_dict(self) -> dict[str, Any]:
        """JSON-able dump (``repro sweep-worker --summary-json``)."""
        return {
            "owner": self.owner,
            "claimed": self.claimed,
            "renewed": self.renewed,
            "released": self.released,
            "expired": self.expired,
            "reclaimed": self.reclaimed,
            "lease_lost": self.lease_lost,
            "computed": self.computed,
            "served": self.served,
            "resumed": self.resumed,
            "quarantined": self.quarantined,
            "heartbeat_failures": self.heartbeat_failures,
            "wall_s": self.wall_s,
            "configs_per_sec": self.configs_per_sec,
            "computed_hashes": list(self.computed_hashes),
        }


#: Snapshot of the most recent drain in this process (ambient, like the
#: default store): lets the CLI report lease counters without threading
#: a stats object through ``run_sweep``'s signature.
_LAST_STATS: DispatchStats | None = None


def last_dispatch_stats() -> DispatchStats | None:
    """Stats of this process's most recent cooperative drain, if any."""
    return _LAST_STATS


def plan_dispatch_tasks(
    grid: Sequence[SimulationConfig],
    lane_width: int = DEFAULT_DISPATCH_LANE_WIDTH,
) -> list[DispatchTask]:
    """Partition a grid into the deterministic dispatch task units.

    Delegates grouping to :func:`repro.sim._sweep.plan_lane_batches`
    (memory-budgeted, structure-compatible batches) and then chunks
    every batch to at most ``lane_width`` lanes so grids split into
    multiple claimable units.  Both steps depend only on the grid
    itself — never on local core counts or worker numbers — so every
    cooperating invocation derives the same partition and therefore the
    same task keys.  Event-collecting configs are rejected: their
    results cannot be shared through the store.
    """
    if lane_width < 1:
        raise ValueError("lane_width must be >= 1")
    for cfg in grid:
        if cfg.collect_events:
            raise ValueError(
                "event-collecting configs cannot be dispatched through the "
                "store (event logs are not persisted); run them locally"
            )
    # Imported lazily: repro.sim._sweep imports this package's siblings at
    # call time, keeping `import repro.store` free of the sim engine.
    from ..sim._sweep import plan_lane_batches

    batches = plan_lane_batches([(cfg, [i]) for i, cfg in enumerate(grid)])
    tasks: list[DispatchTask] = []
    for batch in batches:
        configs = [cfg for cfg, _ in batch]
        for start in range(0, len(configs), lane_width):
            chunk = configs[start : start + lane_width]
            hashes = tuple(config_hash(c) for c in chunk)
            tasks.append(
                DispatchTask(
                    key=task_key(hashes),
                    configs=tuple(chunk),
                    config_hashes=hashes,
                )
            )
    return tasks


def publish_sweep_grid(
    store: Any,
    configs: Sequence[SimulationConfig],
    lane_width: int | None = None,
) -> tuple[str, list[SimulationConfig]]:
    """Publish a grid manifest; returns ``(grid key, deduped grid)``.

    The manifest is the single planning input every cooperating
    invocation shares: the deduplicated, event-free config list in first
    appearance order plus the lane width, which together determine the
    task partition.  The CLI's ``repro sweep --dispatch=store`` publishes
    automatically; ``--publish-only`` publishes without draining so a
    fleet of ``repro sweep-worker`` processes can do all the computing.
    """
    width = lane_width if lane_width is not None else DEFAULT_DISPATCH_LANE_WIDTH
    seen: set[SimulationConfig] = set()
    grid: list[SimulationConfig] = []
    for cfg in configs:
        if cfg.collect_events or cfg in seen:
            continue
        seen.add(cfg)
        grid.append(cfg)
    key = store.put_grid(grid, lane_width=width)
    return key, grid


class StoreDispatcher:
    """Drives one invocation's share of a cooperative grid drain.

    The drain loop over the task units: serve every config another
    worker has already landed in the store, claim an unclaimed task and
    execute its missing lanes (heartbeating from a background thread),
    reclaim tasks whose owner stopped heartbeating, and poll while
    everything open is leased elsewhere.  Returns when every task's
    configs are in the store.
    """

    def __init__(
        self,
        store: Any,
        owner: str | None = None,
        expiry_s: float = DEFAULT_LEASE_EXPIRY_S,
        poll_interval_s: float = DEFAULT_POLL_INTERVAL_S,
        heartbeat_interval_s: float | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.store = store
        self.board = LeaseBoard(store.root, owner=owner, expiry_s=expiry_s)
        self.poll_interval_s = float(poll_interval_s)
        #: Renew cadence: a quarter of the expiry, so a worker survives
        #: three consecutive missed beats before being declared dead.
        self.heartbeat_interval_s = (
            float(heartbeat_interval_s)
            if heartbeat_interval_s is not None
            else max(0.05, expiry_s / 4.0)
        )
        self._sleep = sleep
        #: Stats object of the drain in progress (or the last one) —
        #: the channel through which the task runner reports events the
        #: dispatcher cannot see itself (snapshot resumes).
        self._current_stats: DispatchStats | None = None

    def note_resumed(self) -> None:
        """Record that the running task resumed from a mid-run snapshot
        (called by the task runner, which is the only party that knows)."""
        if self._current_stats is not None:
            self._current_stats.resumed += 1
        tracer = get_tracer()
        if tracer.enabled:
            tracer.metrics.counter(
                "resilience_snapshots_total",
                "Resume-snapshot lifecycle events",
                event="dispatch_resumed",
            ).inc()

    # ------------------------------------------------------------------
    def drain(
        self,
        tasks: Sequence[DispatchTask],
        run_task: Callable[[list[SimulationConfig], DispatchTask], list[Any]],
        on_computed: Callable[[SimulationConfig, str, Any], None],
        on_served: Callable[[SimulationConfig, str], None],
        on_failed: Callable[[SimulationConfig, str], None] | None = None,
        quarantine: bool = False,
    ) -> DispatchStats:
        """Cooperatively drain ``tasks``; blocks until all are complete.

        ``run_task(configs, task)`` executes the given (missing) lanes
        and returns their results in order; ``on_computed(cfg, hash,
        result)`` **must persist the result into the store** — task
        completion is judged by store contents, which is also what lets
        every other worker observe the progress.  ``on_served(cfg,
        hash)`` fires once per config that appeared in the store without
        local computation (pre-cached or computed by a peer).

        ``quarantine=True`` makes the drain quarantine-aware: a config
        with a persisted quarantine artifact (``RunStore.has_error``)
        counts as *settled* — workers stop waiting for a result that
        will never land.  ``run_task`` may return ``None`` in a result
        slot to signal it quarantined that config (after persisting the
        artifact); ``on_failed(cfg, hash)`` fires once per config
        settled by failure, local or observed from a peer.  With the
        default ``quarantine=False`` stale artifacts are ignored and the
        drain keeps its complete-results-or-raise contract.

        Raises whatever ``run_task`` raises, after releasing the lease
        so survivors retry the task without waiting out the expiry.
        """
        global _LAST_STATS
        tracer = get_tracer()
        stats = DispatchStats(owner=self.board.owner)
        self._current_stats = stats
        watch = Stopwatch()
        open_tasks: dict[str, DispatchTask] = {t.key: t for t in tasks if t.configs}
        #: hash -> config awaiting an on_served/on_failed signal.
        unserved: dict[str, SimulationConfig] = {
            h: c
            for t in open_tasks.values()
            for c, h in zip(t.configs, t.config_hashes)
        }

        def count(event: str) -> None:
            """Bump one lease counter, mirrored into the tracer."""
            setattr(stats, event, getattr(stats, event) + 1)
            if tracer.enabled:
                tracer.metrics.counter(
                    "sweep_leases_total", "Lease protocol events", event=event
                ).inc()

        def settled(h: str) -> bool:
            """A config needs no more work: result landed, or quarantined."""
            if self.store.contains_hash(h):
                return True
            return quarantine and self.store.has_error(h)

        def mark_failed(cfg: SimulationConfig, h: str) -> None:
            stats.quarantined += 1
            if tracer.enabled:
                tracer.metrics.counter(
                    "resilience_quarantined_total",
                    "Configs settled by a quarantine artifact",
                ).inc()
            if on_failed is not None:
                on_failed(cfg, h)

        def serve_landed() -> None:
            """Serve configs peers have landed since the last look (and
            anything cached before the drain began); surface configs a
            peer quarantined."""
            for h in [h for h in unserved if self.store.contains_hash(h)]:
                on_served(unserved.pop(h), h)
                stats.served += 1
            if quarantine:
                for h in [h for h in unserved if self.store.has_error(h)]:
                    mark_failed(unserved.pop(h), h)

        while open_tasks:
            self.store.refresh()
            serve_landed()
            progressed = False
            for key in list(open_tasks):
                task = open_tasks[key]
                missing = [
                    (c, h)
                    for c, h in zip(task.configs, task.config_hashes)
                    if not settled(h)
                ]
                if not missing:
                    del open_tasks[key]
                    progressed = True
                    # Tidy a corpse left between a peer's final put and
                    # its release (crash window): the task is done, the
                    # lease is noise.
                    leftover = self.board.read(key)
                    if leftover is not None and leftover.is_stale():
                        self.board.reclaim(key)
                    continue
                lease = self.board.claim(key, task.config_hashes)
                if lease is None:
                    holder = self.board.read(key)
                    if holder is not None and holder.is_stale():
                        count("expired")
                        if self.board.reclaim(key):
                            count("reclaimed")
                            lease = self.board.claim(key, task.config_hashes)
                if lease is None:
                    continue
                count("claimed")
                # The pass's store view can be seconds stale by the time
                # this claim lands (earlier tasks in the pass computed in
                # between), and a peer may have claimed, completed and
                # released this very task in that window.  Results are
                # always persisted *before* release, so one refresh
                # settles it: recompute the missing set before working.
                self.store.refresh()
                serve_landed()
                missing = [
                    (c, h)
                    for c, h in zip(task.configs, task.config_hashes)
                    if not settled(h)
                ]
                if not missing:
                    if self.board.release(lease):
                        count("released")
                    del open_tasks[key]
                    progressed = True
                    continue
                task_watch = Stopwatch()
                try:
                    results = self._execute_leased(
                        lease,
                        lambda: run_task([c for c, _ in missing], task),
                        stats,
                        count,
                    )
                except BaseException:
                    # Release immediately so survivors retry without
                    # waiting out the expiry; they will hit the same
                    # deterministic failure and fail fast too.
                    if self.board.release(lease):
                        count("released")
                    raise
                for (cfg, h), result in zip(missing, results):
                    if quarantine and result is None:
                        # run_task quarantined this config (artifact
                        # already persisted): settled by failure.
                        unserved.pop(h, None)
                        mark_failed(cfg, h)
                        continue
                    on_computed(cfg, h, result)
                    unserved.pop(h, None)
                    stats.computed += 1
                    stats.computed_hashes.append(h)
                if self.board.release(lease):
                    count("released")
                if tracer.enabled:
                    tracer.record(
                        "dispatch/task",
                        task_watch.elapsed(),
                        attrs={"lanes": len(missing)},
                    )
                del open_tasks[key]
                progressed = True
            if open_tasks and not progressed:
                if tracer.enabled:
                    tracer.record("dispatch/wait", self.poll_interval_s)
                self._sleep(self.poll_interval_s)
        stats.wall_s = watch.elapsed()
        if tracer.enabled:
            tracer.record("dispatch/drain", stats.wall_s)
            tracer.metrics.gauge(
                "sweep_throughput_configs_per_sec",
                "Locally computed configs per second of the last drain",
            ).set(stats.configs_per_sec)
        _LAST_STATS = stats
        return stats

    # ------------------------------------------------------------------
    def _execute_leased(
        self,
        lease: Lease,
        fn: Callable[[], list[Any]],
        stats: DispatchStats,
        count: Callable[[str], None],
    ) -> list[Any]:
        """Run ``fn`` while a daemon thread renews the lease.

        NumPy releases the GIL inside the big kernels, so the heartbeat
        thread keeps beating during compute.  If a renew discovers the
        lease was reclaimed (this worker was presumed dead), beating
        stops and the loss is counted — the computation still finishes
        and persists, which is harmless because results are
        deterministic and the store idempotent.
        """
        stop = threading.Event()

        def beat() -> None:
            held = lease
            while not stop.wait(self.heartbeat_interval_s):
                try:
                    held = self.board.renew(held)
                    count("renewed")
                except LeaseLost:
                    stats.lease_lost += 1
                    return
                except OSError:
                    # Transient renew-write failure (real or injected):
                    # keep beating — the lease survives missed beats up
                    # to the expiry, and the next renew usually lands.
                    stats.heartbeat_failures += 1

        thread = threading.Thread(target=beat, daemon=True)
        thread.start()
        try:
            return fn()
        finally:
            stop.set()
            thread.join(timeout=self.heartbeat_interval_s + 5.0)
