"""Job queue and worker pool of the simulation service.

A *job* is one client submission (a scenario spec or raw config grid)
reduced to its unique config hashes.  A *compute unit* is one config the
service has agreed to simulate.  The two are deliberately decoupled —
units are shared across jobs — because that is where the service's
"millions of users" economics come from:

* **store dedup** — a config whose hash is already in the
  :class:`~repro.store.RunStore` is served instantly, no unit created;
* **in-flight dedup** — a config some other job is *currently* computing
  is joined, not recomputed: the new job becomes another waiter on the
  existing unit, and one simulation feeds every subscriber;
* **bounded admission** — only genuinely new units consume queue
  capacity; a submission that needs more units than the queue has free
  raises :class:`QueueFull` *before* enqueueing anything (admission is
  atomic: a rejected job leaves no partial units behind).

Workers are asyncio tasks that drain the unit queue in batches of up to
``batch_width`` units and execute each through
:func:`repro.sim._sweep.run_sweep` (serial executor, store-persisting) on
a thread pool, so a claimed batch's structurally compatible configs run
as one lane batch — NumPy releases the GIL in the kernels, so worker
threads overlap compute.  The sweep's
:class:`~repro.sim._sweep.SweepProgress` callback fires as each config
lands and is hopped onto the event loop, where unit resolution updates
every waiting job and publishes its SSE events.  All manager state is
therefore mutated on the loop thread only; compute threads never touch
it directly.

Failure degrades per *unit*, not per job: compute runs with
``on_error="quarantine"`` (see :mod:`repro.resilience`), so a config
that exhausts its retry budget is booked as a failed slot
(``config_failed`` event, persisted ``errors/<hash>.json`` artifact)
and the job still terminates — as ``partial`` — once its remaining
configs land.
"""

from __future__ import annotations

import asyncio
import secrets
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..obs import MetricsRegistry
from ..sim.config import SimulationConfig
from ..sim._sweep import run_sweep
from ..store.hashing import config_hash
from .hub import EventHub
from .schemas import SubmitSpec

__all__ = ["Job", "JobManager", "QueueFull", "ServiceClosing"]


class QueueFull(RuntimeError):
    """Admission refused: the pending-unit queue has no room for the job.

    ``retry_after_s`` is the backpressure hint surfaced to clients as a
    ``Retry-After`` header (HTTP 429).
    """

    def __init__(self, needed: int, capacity: int, retry_after_s: int):
        self.needed = needed
        self.capacity = capacity
        self.retry_after_s = retry_after_s
        super().__init__(
            f"queue full: job needs {needed} new compute unit(s), "
            f"{capacity} slot(s) free; retry in ~{retry_after_s}s"
        )


class ServiceClosing(RuntimeError):
    """Admission refused: the service is shutting down (HTTP 503)."""


@dataclass
class Job:
    """One client submission and its live bookkeeping."""

    id: str
    label: str
    #: Unique config hashes in submission order (in-job duplicates collapse).
    hashes: tuple[str, ...]
    #: Configs as submitted, duplicates included.
    submitted: int
    created_at: float
    state: str = "queued"  # queued | running | completed | partial | failed
    started_at: float | None = None
    finished_at: float | None = None
    error: str | None = None
    #: hash -> {"status": "pending"|"done"|"failed", "source": ...,
    #: "summary": ...} — failed slots additionally carry "error" and
    #: "attempts" from the quarantine artifact.
    slots: dict[str, dict[str, Any]] = field(default_factory=dict)
    done: int = 0
    n_cached: int = 0
    n_computed: int = 0
    #: Configs quarantined after exhausting their retry budget; the job
    #: still finishes ("partial"), degraded rather than failed outright.
    n_failed: int = 0

    @property
    def total(self) -> int:
        """Unique configs this job waits on."""
        return len(self.hashes)

    @property
    def finished(self) -> bool:
        """Whether the job reached a terminal state."""
        return self.state in ("completed", "partial", "failed")

    def view(self, full: bool = False) -> dict[str, Any]:
        """JSON-able representation (``full`` adds per-config results)."""
        out: dict[str, Any] = {
            "id": self.id,
            "label": self.label,
            "state": self.state,
            "total": self.total,
            "done": self.done,
            "cached": self.n_cached,
            "computed": self.n_computed,
            "failed": self.n_failed,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
        if self.error is not None:
            out["error"] = self.error
        if full:
            out["results"] = [
                {"config_hash": h, **self.slots[h]} for h in self.hashes
            ]
        return out


class _Unit:
    """One in-flight config computation and the jobs waiting on it."""

    __slots__ = ("config", "hash", "waiters", "running")

    def __init__(self, config: SimulationConfig, hash_: str):
        self.config = config
        self.hash = hash_
        self.waiters: list[Job] = []
        self.running = False


#: ``runner(configs, progress, on_failure)`` — executes the given
#: configs (persisting into the store), fires ``progress(done, total,
#: index, result, cached, stats)`` per completed config and
#: ``on_failure(failure)`` (a :class:`repro.sim._sweep.SweepFailure`) per
#: config quarantined after exhausting its retry budget.  Injectable
#: for tests.
Runner = Callable[[list[SimulationConfig], Callable, Callable], None]


class JobManager:
    """Owns jobs, compute units, the bounded queue and the worker pool."""

    def __init__(
        self,
        store: Any,
        hub: EventHub | None = None,
        metrics: MetricsRegistry | None = None,
        workers: int = 2,
        max_pending: int = 256,
        batch_width: int = 4,
        dispatch: str | None = None,
        runner: Runner | None = None,
        checkpoint_every: int = 0,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if batch_width < 1:
            raise ValueError("batch_width must be >= 1")
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        self.store = store
        self.hub = hub if hub is not None else EventHub()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.workers = int(workers)
        self.max_pending = int(max_pending)
        self.batch_width = int(batch_width)
        self.dispatch = dispatch
        self.checkpoint_every = int(checkpoint_every)
        self._runner = runner if runner is not None else self._default_runner
        self.jobs: dict[str, Job] = {}
        self._units: dict[str, _Unit] = {}
        self._queue: asyncio.Queue = asyncio.Queue()
        self._pending = 0  # units enqueued but not yet claimed by a worker
        self._seq = 0
        self._tasks: list[asyncio.Task] = []
        self._loop: asyncio.AbstractEventLoop | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._closing = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spawn the worker tasks (call once, on the serving loop)."""
        self._loop = asyncio.get_running_loop()
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="svc-compute"
        )
        self._tasks = [
            asyncio.create_task(self._worker(), name=f"svc-worker-{i}")
            for i in range(self.workers)
        ]

    async def close(self, timeout_s: float = 30.0) -> None:
        """Graceful shutdown: refuse new work, let running compute land.

        Queued-but-unclaimed units are failed immediately ("service
        shutting down"); units already computing get ``timeout_s`` to
        finish and persist before their workers are cancelled outright.
        """
        self._closing = True
        # Fail everything still waiting in the queue.
        orphans: list[_Unit] = []
        while True:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if item is not None:
                orphans.append(item)
        self._pending = 0
        self._gauges()
        if orphans:
            self._fail_units(orphans, "service shutting down")
        for _ in self._tasks:
            self._queue.put_nowait(None)  # one stop sentinel per worker
        if self._tasks:
            _, pending = await asyncio.wait(self._tasks, timeout=timeout_s)
            for task in pending:
                task.cancel()
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
        self.hub.close_all()

    @property
    def closing(self) -> bool:
        """Whether shutdown has begun (admission is refused)."""
        return self._closing

    @property
    def queue_depth(self) -> int:
        """Units enqueued and not yet claimed by a worker."""
        return self._pending

    @property
    def inflight(self) -> int:
        """Units anywhere between admission and resolution."""
        return len(self._units)

    # ------------------------------------------------------------------
    # Submission (event-loop thread)
    # ------------------------------------------------------------------
    def submit(self, spec: SubmitSpec) -> Job:
        """Admit one submission; returns the (possibly already done) job.

        Raises :class:`QueueFull` when the genuinely new units would
        overflow ``max_pending`` (nothing is enqueued in that case) and
        :class:`ServiceClosing` during shutdown.
        """
        if self._closing:
            raise ServiceClosing("service is shutting down")
        # Peer processes (sweep workers, other service replicas on the
        # same store) may have landed results since the last look.
        self.store.refresh()
        unique: dict[str, SimulationConfig] = {}
        for cfg in spec.configs:
            unique.setdefault(config_hash(cfg), cfg)
        cached: list[str] = []
        attached: list[str] = []
        fresh: list[str] = []
        for h in unique:
            if self.store.contains_hash(h):
                cached.append(h)
            elif h in self._units:
                attached.append(h)
            else:
                fresh.append(h)
        free = self.max_pending - self._pending
        if len(fresh) > free:
            self.metrics.counter(
                "service_backpressure_total",
                "Submissions refused because the unit queue was full",
            ).inc()
            raise QueueFull(
                needed=len(fresh),
                capacity=max(0, free),
                retry_after_s=self._retry_after(),
            )
        self._seq += 1
        job = Job(
            id=f"job-{self._seq:05d}-{secrets.token_hex(3)}",
            label=spec.label,
            hashes=tuple(unique),
            submitted=len(spec.configs),
            created_at=time.time(),
        )
        self.jobs[job.id] = job
        for h in job.hashes:
            job.slots[h] = {"status": "pending", "source": None, "summary": None}
        self.metrics.counter(
            "service_jobs_submitted_total", "Jobs admitted by the service"
        ).inc()
        self.hub.publish(
            job.id,
            "queued",
            {
                "job_id": job.id,
                "label": job.label,
                "total": job.total,
                "cached": len(cached),
                "inflight": len(attached),
                "queued": len(fresh),
            },
        )
        for h in cached:
            self._serve_from_store(job, h)
        for h in attached:
            unit = self._units[h]
            unit.waiters.append(job)
            self._count_config("joined")
            if unit.running:
                self._mark_started(job)
        for h in fresh:
            unit = _Unit(unique[h], h)
            unit.waiters.append(job)
            self._units[h] = unit
            self._pending += 1
            self._queue.put_nowait(unit)
            self._count_config("queued")
        self._gauges()
        self._maybe_finish(job)
        return job

    def _retry_after(self) -> int:
        """Backpressure hint: rough seconds until queue slots free up."""
        return max(1, round(self._pending / max(1, self.workers)))

    def _serve_from_store(self, job: Job, h: str) -> None:
        """Fill one job slot straight from the store (no unit)."""
        rec = self.store.get_record(h)
        slot = job.slots[h]
        slot["status"] = "done"
        slot["source"] = "cache"
        slot["summary"] = dict(rec.summary) if rec is not None else None
        job.done += 1
        job.n_cached += 1
        self._count_config("cached")
        self._publish_progress(job, h, source="cache")

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------
    async def _worker(self) -> None:
        """Claim unit batches off the queue and execute them."""
        assert self._loop is not None and self._pool is not None
        while True:
            unit = await self._queue.get()
            if unit is None:  # stop sentinel from close()
                return
            batch = [unit]
            while len(batch) < self.batch_width:
                try:
                    extra = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if extra is None:  # keep sentinels for sibling workers
                    self._queue.put_nowait(None)
                    break
                batch.append(extra)
            self._pending -= len(batch)
            self._gauges()
            for u in batch:
                u.running = True
                for job in u.waiters:
                    self._mark_started(job)
            try:
                await self._loop.run_in_executor(
                    self._pool, self._execute_batch, batch
                )
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 - reported per job
                self._fail_units(
                    [u for u in batch if u.hash in self._units], str(exc)
                )

    def _execute_batch(self, batch: list[_Unit]) -> None:
        """Run one claimed batch in a compute thread."""
        assert self._loop is not None
        loop = self._loop
        by_hash = {u.hash: u for u in batch}

        def progress(done, total, index, result, cached, stats) -> None:
            """Hop each landed config onto the loop for resolution."""
            unit = batch[index]
            summary = dict(result.summary)
            wall = float(result.wall_time_s)
            try:
                loop.call_soon_threadsafe(
                    self._resolve_unit, unit, summary, wall, cached, stats
                )
            except RuntimeError:  # loop already closed (hard shutdown)
                pass

        def on_failure(failure) -> None:
            """Hop each quarantined config onto the loop for degradation."""
            unit = by_hash.get(failure.config_hash)
            if unit is None:
                return
            try:
                loop.call_soon_threadsafe(
                    self._quarantine_unit,
                    unit,
                    failure.error,
                    int(failure.attempts),
                )
            except RuntimeError:  # loop already closed (hard shutdown)
                pass

        self._runner([u.config for u in batch], progress, on_failure)

    def _default_runner(
        self,
        configs: list[SimulationConfig],
        progress: Callable,
        on_failure: Callable,
    ) -> None:
        """Execute configs via :func:`run_sweep` (serial, store-backed):
        compatible configs of the claimed batch run as one lane batch.

        Runs with ``on_error="quarantine"``: one poisonous config costs
        its own slot (a quarantine artifact plus an ``on_failure``
        signal), never the whole batch or the jobs waiting on its
        siblings.
        """
        run_sweep(
            configs,
            backend="serial",
            store=self.store,
            progress=progress,
            dispatch=self.dispatch,
            on_error="quarantine",
            on_failure=on_failure,
            checkpoint_every=self.checkpoint_every,
        )

    # ------------------------------------------------------------------
    # Resolution (event-loop thread)
    # ------------------------------------------------------------------
    def _resolve_unit(
        self,
        unit: _Unit,
        summary: dict[str, float],
        wall_s: float,
        cached: bool,
        stats: Any,
    ) -> None:
        """Book one landed config into every waiting job."""
        if self._units.pop(unit.hash, None) is None:
            return  # already failed/resolved (shutdown race)
        source = "cache" if cached else "computed"
        self._count_config("served" if cached else "computed")
        if not cached:
            self.metrics.histogram(
                "service_config_seconds", "Wall time of computed configs"
            ).observe(wall_s)
        for job in unit.waiters:
            if job.finished:
                continue
            slot = job.slots[unit.hash]
            slot["status"] = "done"
            slot["source"] = source
            slot["summary"] = summary
            job.done += 1
            if cached:
                job.n_cached += 1
            else:
                job.n_computed += 1
            self._publish_progress(job, unit.hash, source=source, stats=stats)
            self._maybe_finish(job)
        self._gauges()

    def _quarantine_unit(self, unit: _Unit, error: str, attempts: int) -> None:
        """Book one quarantined config: waiting jobs degrade, not fail.

        The slot is marked ``failed`` (with the artifact's error text
        and attempt count), a ``config_failed`` event goes out on every
        waiting job's stream, and the job still reaches a terminal state
        — ``partial`` — once its remaining configs land.
        """
        if self._units.pop(unit.hash, None) is None:
            return  # already failed/resolved (shutdown race)
        self._count_config("failed")
        self.metrics.counter(
            "service_quarantined_total",
            "Compute units quarantined after exhausting retries",
        ).inc()
        for job in unit.waiters:
            if job.finished:
                continue
            slot = job.slots[unit.hash]
            slot["status"] = "failed"
            slot["source"] = "quarantine"
            slot["summary"] = None
            slot["error"] = error
            slot["attempts"] = attempts
            job.done += 1
            job.n_failed += 1
            self.hub.publish(
                job.id,
                "config_failed",
                {
                    "job_id": job.id,
                    "done": job.done,
                    "total": job.total,
                    "config_hash": unit.hash,
                    "error": error,
                    "attempts": attempts,
                },
            )
            self._maybe_finish(job)
        self._gauges()

    def _fail_units(self, units: Sequence[_Unit], error: str) -> None:
        """Fail every job waiting on the given (unresolved) units."""
        failed_jobs: dict[str, Job] = {}
        for unit in units:
            if self._units.pop(unit.hash, None) is None:
                continue
            for job in unit.waiters:
                if not job.finished:
                    failed_jobs[job.id] = job
        for job in failed_jobs.values():
            job.state = "failed"
            job.error = error
            job.finished_at = time.time()
            self.metrics.counter(
                "service_jobs_total", "Finished jobs by outcome", outcome="failed"
            ).inc()
            self.hub.publish(
                job.id, "failed", {"job_id": job.id, "error": error}
            )
        self._gauges()

    def _mark_started(self, job: Job) -> None:
        """First compute for this job began: record and announce it."""
        if job.started_at is not None or job.finished:
            return
        job.started_at = time.time()
        job.state = "running"
        self.hub.publish(
            job.id, "started", {"job_id": job.id, "total": job.total}
        )

    def _maybe_finish(self, job: Job) -> None:
        """Complete the job once every unique config has settled.

        A job with quarantined slots finishes as ``partial`` — clients
        get every healthy result plus an enumeration of the gaps,
        instead of an all-or-nothing failure.
        """
        if job.finished or job.done < job.total:
            return
        job.state = "partial" if job.n_failed else "completed"
        job.finished_at = time.time()
        self.metrics.counter(
            "service_jobs_total", "Finished jobs by outcome", outcome=job.state
        ).inc()
        self.metrics.histogram(
            "service_job_seconds", "Submission-to-completion wall time"
        ).observe(job.finished_at - job.created_at)
        self.hub.publish(
            job.id,
            "completed",
            {
                "job_id": job.id,
                "state": job.state,
                "total": job.total,
                "cached": job.n_cached,
                "computed": job.n_computed,
                "failed": job.n_failed,
                "wall_s": job.finished_at - job.created_at,
                "results": [
                    {
                        "config_hash": h,
                        "status": job.slots[h]["status"],
                        "source": job.slots[h]["source"],
                        "summary": job.slots[h]["summary"],
                    }
                    for h in job.hashes
                ],
            },
        )

    def _publish_progress(
        self, job: Job, h: str, source: str, stats: Any = None
    ) -> None:
        """Emit one per-config progress event on the job's stream."""
        if job.finished:
            return
        data = {
            "job_id": job.id,
            "done": job.done,
            "total": job.total,
            "config_hash": h,
            "source": source,
        }
        if stats is not None:  # the run_sweep SweepProgress tail
            data["sweep"] = {
                "elapsed_s": stats.elapsed_s,
                "eta_s": stats.eta_s,
                "cached": stats.cached,
                "computed": stats.computed,
            }
        self.hub.publish(job.id, "progress", data)

    # ------------------------------------------------------------------
    # Metrics plumbing
    # ------------------------------------------------------------------
    def _count_config(self, source: str) -> None:
        self.metrics.counter(
            "service_configs_total",
            "Config slots by how they were satisfied",
            source=source,
        ).inc()

    def _gauges(self) -> None:
        self.metrics.gauge(
            "service_queue_depth", "Compute units queued, not yet claimed"
        ).set(self._pending)
        self.metrics.gauge(
            "service_inflight_units", "Compute units between admission and landing"
        ).set(len(self._units))
        self.metrics.gauge(
            "service_jobs_active", "Jobs not yet in a terminal state"
        ).set(sum(1 for j in self.jobs.values() if not j.finished))
