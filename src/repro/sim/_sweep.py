"""Parameter sweeps: one lane planner, pluggable executors, a run cache.

A sweep is a list of :class:`SimulationConfig`; each config runs with
its own seeded RNG, so neither the plan nor the executor changes the
numbers.

Every sweep goes through the **lane planner** (:func:`plan_lane_batches`):
the pending configs are partitioned into maximal *structurally
compatible* batches (:func:`repro.sim.lanes.structural_key` — same
population size, article count, step counts, scheme class, overlay kind
...) and each batch runs as one heterogeneous-lane
:class:`repro.sim.engine.BatchedSimulation`, so a grid over seeds,
temperatures, scheme constants, population mixes or adversary knobs
vectorizes across the sweep axis itself.  Every task is one
:class:`~repro.sim.engine.BatchedSimulation` — a config alone in its
group is a one-lane batch — and an event-collecting lane logs its own
events.  Batched == sequential holds lane for lane, so every result
(and its per-config cache entry) is bit-identical to a solo run.

The executor (``backend`` argument) runs the planned tasks:

* ``serial``  — one task after another in the calling thread;
* ``thread``  — ``ThreadPoolExecutor``; NumPy releases the GIL in the big
  kernels, so threads help despite Python-level stepping;
* ``process`` — ``ProcessPoolExecutor``; true parallelism.

Pools split the plan evenly across their workers (at most
``ceil(G / workers)`` lanes per task for a group of ``G``), so a grid
keeps its fan-out; an explicit ``lane_width`` overrides that split.

With a :class:`repro.store.RunStore` attached (``store=`` argument, or the
ambient default installed via :func:`set_default_store`), a sweep becomes
*incremental and resumable*: configs already in the store are served from
cache without executing, duplicate configs within one grid execute once,
and every freshly finished task is persisted the moment it completes — an
interrupted sweep re-run against the same store only executes the missing
configs.  Results are persisted and reported as tasks land, not after the
whole grid.

Failed tasks are settled by one rule, for local and dispatched sweeps
alike: a failed multi-lane task splits into solo tasks, a failed solo
task is resubmitted while its retry budget lasts, and then it is
quarantined or raised as a :class:`SweepWorkerError`, which names the
failing config's position and content hash (the lane that fails alone).
On a raise, remaining queued work is cancelled (results persisted before
the failure stay in the store).

Progress callbacks are called as ``(done, total, index, result,
cached, stats)``; ``stats`` is a :class:`SweepProgress` — elapsed
seconds, an ETA, and the cached-vs-computed slot split.  When the
ambient :class:`repro.obs.Tracer` is enabled, the coordinator also
records ``sweep/task`` spans and per-task execution/queue-wait
histograms (``sweep_task_seconds``, ``sweep_queue_wait_seconds``) plus
cached/computed slot counters.

``dispatch="store"`` escapes the single process entirely: the grid is
published into the store as a manifest, deterministically partitioned
into lease-claimable task units, and *every* ``run_sweep`` /
``repro sweep-worker`` invocation pointed at the same store drains it
cooperatively — zero duplicate computation, crash-tolerant via lease
expiry and reclamation.  See :mod:`repro.store.dispatch`.

The worker function is module-level so it pickles under the ``spawn`` start
method.  Results are returned in input order.
"""

from __future__ import annotations

import os
import threading
import traceback as traceback_mod
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass
from typing import Any, Callable

from ..obs import Stopwatch, get_tracer
from .config import SimulationConfig
from .engine import BatchedSimulation, SimulationResult, replicate_configs
from .lanes import estimate_lane_state_bytes, structural_key

__all__ = [
    "run_sweep",
    "replicate",
    "available_workers",
    "SweepWorkerError",
    "SweepFailure",
    "SweepProgress",
    "last_sweep_failures",
    "set_default_store",
    "get_default_store",
    "plan_lane_batches",
    "default_lane_width",
    "DEFAULT_LANE_MEMORY_BUDGET",
]

#: Per-batch state budget (bytes) the lane planner aims for when no
#: explicit ``lane_width`` is given: a compatible group whose estimated
#: stacked footprint (:func:`repro.sim.lanes.estimate_lane_state_bytes`
#: per lane) would exceed this is chunked into narrower batches.  Small
#: grids never hit the budget, so historical plans are unchanged; what it
#: stops is an unbounded lane count multiplying ``(N, N)`` tft history
#: stacks into tens of gigabytes.
DEFAULT_LANE_MEMORY_BUDGET = 2 << 30

#: Ambient store used by sweeps that are not passed one explicitly; lets
#: the experiment runner cache every figure sweep without threading a
#: ``store=`` argument through each experiment module's signature.
_DEFAULT_STORE: Any = None

@dataclass(frozen=True)
class SweepProgress:
    """Live statistics handed to progress callbacks with every slot.

    ``cached``/``computed`` split the ``done`` count by how each slot was
    filled — a store hit (or an in-grid duplicate) versus a fresh
    simulation — so callers no longer have to re-query the store to tell
    the two apart.  ``eta_s`` estimates the remaining wall time from the
    observed per-computed-slot rate; it is ``None`` until the first
    computed slot lands (an all-cached sweep never produces one) and the
    cached prefix makes early estimates optimistic by construction.
    """

    done: int
    total: int
    elapsed_s: float
    eta_s: float | None
    cached: int
    computed: int


#: ``progress(done, total, index, result, cached, stats)`` — invoked once
#: per input config as its result becomes available.  ``cached`` is True
#: when no simulation executed for that slot (store hit, or duplicate of
#: an earlier config in the same sweep); ``stats`` is the running
#: :class:`SweepProgress`.
ProgressCallback = Callable[
    [int, int, int, SimulationResult, bool, SweepProgress], None
]


def _cause_traceback(exc: BaseException) -> str:
    """Best available traceback text for a (possibly remote) exception.

    ``_task_worker`` stamps ``_repro_traceback`` onto exceptions before
    they cross the process boundary (instance ``__dict__`` entries
    survive pickling where ``__traceback__`` does not); failing that,
    ``concurrent.futures`` chains a ``_RemoteTraceback`` cause whose
    ``str`` is the remote traceback text; failing both, format whatever
    local traceback the exception still carries.
    """
    text = getattr(exc, "_repro_traceback", "")
    if text:
        return str(text)
    cause = exc.__cause__
    if cause is not None and type(cause).__name__ == "_RemoteTraceback":
        return str(cause)
    return "".join(
        traceback_mod.format_exception(type(exc), exc, exc.__traceback__)
    )


@dataclass(frozen=True)
class SweepFailure:
    """One config quarantined by ``run_sweep(on_error="quarantine")``.

    ``index`` is the config's first position in the input list (``-1``
    when a cooperating dispatch peer quarantined a config this
    invocation never owned); ``attempts`` is how many executions were
    spent before giving up; ``traceback_text`` is the worker-side
    traceback (remote text under ``backend="process"``).  The same
    information persists as the store's ``errors/<config_hash>.json``
    artifact.
    """

    index: int
    config: SimulationConfig
    config_hash: str
    attempts: int
    error: str
    traceback_text: str


#: Failures of the calling thread's most recent quarantine-mode sweep —
#: lets CLI/reporting code enumerate partial-result gaps without
#: threading a callback through every call site.
_SWEEP_FAILURES = threading.local()

#: Per-(worker-)thread flags the most recent ``_task_worker`` call set;
#: ``resumed`` tells an in-process dispatch coordinator that the task
#: continued from a mid-run snapshot rather than step 0.
_TASK_STATE = threading.local()


def last_sweep_failures() -> list[SweepFailure]:
    """Failures recorded by this thread's most recent ``run_sweep``.

    Empty unless that sweep ran with ``on_error="quarantine"`` and at
    least one config exhausted its retry budget.
    """
    return list(getattr(_SWEEP_FAILURES, "value", ()) or ())


class SweepWorkerError(RuntimeError):
    """A sweep worker raised; identifies which config failed.

    Attributes: ``index`` (position in the input list), ``config``,
    ``config_hash`` (the store's content hash, so the failure can be
    correlated with cache state), ``traceback_text`` (the worker-side
    traceback — the *remote* text when the worker was a
    ``backend="process"`` subprocess) and ``task_hashes`` (under
    distributed dispatch, every config hash of the claimed task — so a
    failed task is attributable from any cooperating worker's logs,
    whichever lane actually raised).
    """

    def __init__(
        self,
        index: int,
        config: SimulationConfig,
        cause: BaseException,
        task_hashes: list[str] | None = None,
    ):
        self.index = index
        self.config = config
        self.task_hashes = list(task_hashes or [])
        self.traceback_text = _cause_traceback(cause)
        try:
            # Imported lazily: repro.store imports repro.sim at package
            # init, so a top-level import here would be circular.
            from ..store.hashing import config_hash

            self.config_hash = config_hash(config)
        except Exception:  # pragma: no cover - hashing is total over configs
            self.config_hash = "unknown"
        message = (
            f"sweep config #{index} [{self.config_hash[:12]}] "
            f"({config.describe()}) failed: {cause!r}"
        )
        if self.task_hashes:
            listed = ", ".join(h[:12] for h in self.task_hashes)
            message += f" (claimed task configs: {listed})"
        super().__init__(message)


def set_default_store(store: Any) -> Any:
    """Install the ambient run store; returns the previous one."""
    global _DEFAULT_STORE
    previous = _DEFAULT_STORE
    _DEFAULT_STORE = store
    return previous


def get_default_store() -> Any:
    """The ambient run store (``None`` unless one was installed)."""
    return _DEFAULT_STORE


def available_workers() -> int:
    """Worker-count default: leave one core for the coordinator.

    Counts the cores this process may actually run on — the CPU
    affinity mask (``os.sched_getaffinity``) where the platform exposes
    it — rather than ``os.cpu_count()``, which reports the whole
    machine and overcommits the pool inside cgroup-limited containers
    (CI runners, ``taskset``/k8s CPU quotas).
    """
    try:
        n_cores = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # non-Linux platforms
        n_cores = os.cpu_count() or 2
    return max(1, n_cores - 1)


def _task_worker(
    configs: list[SimulationConfig],
    snapshot: tuple[str, int] | None = None,
) -> list[SimulationResult]:
    """Execute one planned sweep task: one lane batch (one lane, or many).

    ``snapshot`` is ``(store_root, checkpoint_every)``; when given the
    task runs through
    :class:`repro.resilience.ResumableTask`, persisting a full-state
    snapshot into the store every ``checkpoint_every`` steps and
    resuming bit-identically from the latest one if a prior attempt of
    the same task died mid-run.  Both arguments are positional and
    picklable so the worker still travels through ``spawn`` pools.

    When a chaos :class:`~repro.resilience.FaultPlan` is active, fires
    the ``sweep/compute`` failure point once per config (keyed by the
    config hash, so plans can target one poison config via ``match``).
    """
    _TASK_STATE.resumed = False
    try:
        # Imported lazily: repro.resilience imports repro.sim modules, so
        # a top-level import here would be circular during package init.
        from ..resilience import active_plan, fault_point

        if active_plan() is not None:
            from ..store.hashing import config_hash

            for cfg in configs:
                fault_point("sweep/compute", key=config_hash(cfg))
        if snapshot is not None:
            from ..resilience import ResumableTask

            root, every = snapshot
            task = ResumableTask(
                list(configs), checkpoint_every=every, store_root=root
            )
            results = task.run()
            _TASK_STATE.resumed = bool(task.resumed)
            return results
        return BatchedSimulation(configs).run()
    except Exception as exc:
        try:
            # Stamp the worker-side traceback where pickling preserves
            # it; the coordinator surfaces it via SweepWorkerError /
            # quarantine artifacts (see _cause_traceback).
            exc._repro_traceback = traceback_mod.format_exc()
        except Exception:  # exotic __slots__ exceptions: best effort only
            pass
        raise


class _InlineExecutor:
    """Executor that runs each submission at once, in the calling thread.

    Serial sweeps (and pools narrowed to one task at a time) share the
    pool drive loop through it; a task still lands — and persists —
    before the next one starts.
    """

    def __enter__(self) -> "_InlineExecutor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None

    def submit(self, fn: Callable, *args: Any) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


def default_lane_width(
    config: SimulationConfig,
    memory_budget: int = DEFAULT_LANE_MEMORY_BUDGET,
) -> int:
    """Widest batch of ``config``-shaped lanes fitting the state budget.

    Derived from the estimated per-lane footprint
    (:func:`~repro.sim.lanes.estimate_lane_state_bytes`) so callers no
    longer have to guess a safe ``lane_width``: a 100-agent grid still
    batches thousands of lanes wide, a dense-tft 2000-agent grid stops
    at the budget, and a 50k-agent sparse lane runs essentially solo.
    Always at least 1 — a single lane that alone exceeds the budget must
    still be runnable.
    """
    return max(1, int(memory_budget) // max(1, estimate_lane_state_bytes(config)))


def plan_lane_batches(
    pending: list[tuple[SimulationConfig, list[int]]],
    lane_width: int | None = None,
    memory_budget: int = DEFAULT_LANE_MEMORY_BUDGET,
    workers: int = 1,
) -> list[list[tuple[SimulationConfig, list[int]]]]:
    """Partition pending configs into maximal lane-compatible batches.

    The lane planner: configs sharing a
    :func:`~repro.sim.lanes.structural_key` land in one batch and run as
    a single heterogeneous-lane
    :class:`~repro.sim.engine.BatchedSimulation`, whatever else differs
    (seeds, temperatures, constants, mixes, churn/adversary knobs).
    Configs with incompatible structural dimensions split into separate
    batches; event-collecting configs batch like any other (each logging
    lane keeps its own event log).  Batch order follows first
    appearance and results still land in input order via the per-config
    index lists, so the planning is invisible to callers.

    ``lane_width`` caps the lanes per batch: a compatible group larger
    than the cap is chunked into consecutive batches of at most that
    width.  Use it to keep process-backend parallelism (several chunks
    fan out across workers) and to bound per-batch memory — the dense
    tft scheme's private-history stack is ``(R, N, N)``, so an unbounded
    1000-lane batch holds a thousand ``(N, N)`` matrices at once.  With
    ``None`` (the default) each group derives its own cap from the
    estimated per-lane state footprint against ``memory_budget``
    (:func:`default_lane_width`); small-footprint grids keep maximal
    batches, memory-heavy ones are chunked instead of exhausting RAM.
    An explicit ``lane_width`` always wins over the derived cap.

    ``workers`` is the width of the pool that will run the plan.  Without
    an explicit ``lane_width``, batches are then cut into near-equal
    consecutive parts — always the one whose parts are widest — until
    there is one task per worker or every task is solo: ``G`` compatible
    configs on ``W`` workers become ``min(W, G)`` tasks of at most
    ``ceil(G / W)`` lanes, so no worker idles while another runs a wide
    batch.
    """
    if lane_width is not None and lane_width < 1:
        raise ValueError("lane_width must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    groups: dict[tuple, list[tuple[SimulationConfig, list[int]]]] = {}
    widths: dict[tuple, int] = {}
    order: list[list[tuple[SimulationConfig, list[int]]]] = []
    for cfg, indices in pending:
        key = structural_key(cfg)
        own = (
            lane_width
            if lane_width is not None
            else default_lane_width(cfg, memory_budget)
        )
        batch = groups.get(key)
        # A batch's width is the min over its members' derived widths:
        # non-structural knobs (e.g. a per-lane ledger_cap) can grow the
        # footprint mid-group, and the ledger allocates every row at the
        # batch's widest cap — so a heavy lane narrows the batch it joins.
        # The width is per *open batch*, not per key: once a heavy batch
        # closes, later light-only batches recover their full width.
        if batch is None or len(batch) >= min(widths[key], own):
            batch = groups[key] = []
            widths[key] = own
            order.append(batch)
        else:
            widths[key] = min(widths[key], own)
        batch.append((cfg, indices))
    if lane_width is not None or workers <= len(order):
        return order
    parts = [1] * len(order)
    for _ in range(workers - len(order)):
        widest = max(range(len(order)), key=lambda i: -(-len(order[i]) // parts[i]))
        if len(order[widest]) <= parts[widest]:
            break  # every task is already solo
        parts[widest] += 1
    tasks: list[list[tuple[SimulationConfig, list[int]]]] = []
    for batch, k in zip(order, parts):
        q, r = divmod(len(batch), k)
        # Part j holds q lanes, plus one while j < r (wider parts first).
        bounds = [j * q + min(j, r) for j in range(k + 1)]
        tasks.extend(batch[a:b] for a, b in zip(bounds, bounds[1:]))
    return tasks


def run_sweep(
    configs: list[SimulationConfig],
    backend: str = "process",
    workers: int | None = None,
    store: Any = None,
    progress: ProgressCallback | None = None,
    lane_width: int | None = None,
    dispatch: str | None = None,
    lease_expiry_s: float | None = None,
    on_error: str = "raise",
    checkpoint_every: int = 0,
    on_failure: Callable[[SweepFailure], None] | None = None,
    compute_retry: Any = None,
) -> list[SimulationResult]:
    """Run every config; results align with the input list.

    ``store`` (or the ambient default) enables cache-skip and immediate
    persistence; ``progress`` observes each completed slot.

    The pending configs run as the tasks :func:`plan_lane_batches`
    plans: structurally compatible configs share one lane-batched
    :class:`BatchedSimulation`, bit-identical lane for lane to solo
    runs.  ``thread``/``process`` pools of ``workers`` (default
    :func:`available_workers`) split the plan so every worker gets a
    task; ``lane_width`` caps the lanes per task instead, bounding
    per-batch memory on large grids.

    ``on_error`` picks the failure policy.  ``"raise"`` (default, the
    historical behaviour): the first worker failure raises
    :class:`SweepWorkerError` and cancels remaining work.
    ``"quarantine"`` (requires a store): a failing config is retried up
    to its budget (``compute_retry``, default
    :data:`repro.resilience.DEFAULT_COMPUTE_RETRY` — two attempts), and
    on exhaustion is *quarantined*: an ``errors/<hash>.json`` artifact
    persists the error, remote traceback and fault context, the slot is
    left ``None`` in the returned list, and the sweep keeps draining —
    every healthy config still completes exactly once.  Failures are
    enumerated via ``on_failure`` (one :class:`SweepFailure` per
    quarantined config) and :func:`last_sweep_failures`; the progress
    callback never fires for failed slots.  An explicit ``compute_retry``
    (:class:`repro.resilience.RetryPolicy`) also engages retries under
    ``on_error="raise"`` — the error only propagates once the budget is
    exhausted.  Under either policy a failed multi-lane task is split
    into solo tasks at once, its attempt counting as one for each lane:
    a poisonous config costs exactly its budget (but always gets one solo
    attempt), its healthy siblings land once, and a raised
    :class:`SweepWorkerError` names the config that fails alone.  Compute
    retries resubmit without the policy's backoff delay.  The rule is
    the same under ``dispatch="store"``, where each claimed task runs
    through it in-process.

    ``checkpoint_every=N`` (requires a store) makes tasks resumable:
    every ``N`` steps each running task persists a full-state snapshot
    (RNG stream state included) under the store's ``checkpoints/``
    directory, and a retried or re-dispatched attempt of the same task
    resumes bit-identically from the latest snapshot instead of step 0
    (event logs included: the snapshot carries the whole state).  See
    :mod:`repro.resilience`.

    ``dispatch="store"`` drains the grid cooperatively with every other
    invocation pointed at the same store (see
    :mod:`repro.store.dispatch`): the grid is published as a manifest,
    partitioned into deterministic lease-claimable task units, and this
    invocation computes only the tasks it wins — configs computed by
    peers are served from the store as they land.  Requires a store;
    parallelism comes from the cooperating *processes*, so claimed
    tasks execute in-process and ``backend``/``workers`` only govern
    the non-dispatchable leftovers (event-collecting configs).  A
    raised :class:`SweepWorkerError` also lists the claimed task's
    config hashes (``task_hashes``), and the lease is released so peers
    need not wait out its expiry.
    ``lease_expiry_s`` tunes how long a crashed peer's claim survives
    before survivors reclaim it.  ``dispatch=None`` (or ``"local"``)
    keeps the classic single-invocation behaviour.

    Example::

        >>> from repro.sim.config import SimulationConfig
        >>> from repro.sim._sweep import run_sweep
        >>> grid = [SimulationConfig(n_agents=8, n_articles=2,
        ...                          founders_per_article=2,
        ...                          training_steps=5, eval_steps=5,
        ...                          seed=s) for s in (0, 1)]
        >>> results = run_sweep(grid, backend="serial")
        >>> [r.config.seed for r in results]
        [0, 1]
        >>> "shared_bandwidth" in results[0].summary
        True
    """
    if backend not in ("serial", "thread", "process"):
        raise ValueError(f"unknown backend {backend!r}; use serial|thread|process")
    if dispatch not in (None, "local", "store"):
        raise ValueError(f"unknown dispatch {dispatch!r}; use local|store")
    if on_error not in ("raise", "quarantine"):
        raise ValueError(f"unknown on_error {on_error!r}; use raise|quarantine")
    if checkpoint_every < 0:
        raise ValueError("checkpoint_every must be >= 0 (0 disables snapshots)")
    quarantine = on_error == "quarantine"
    if not configs:
        _SWEEP_FAILURES.value = []
        return []
    store = store if store is not None else _DEFAULT_STORE
    if dispatch == "store" and store is None:
        raise ValueError(
            "dispatch='store' needs a store: the store is the coordination "
            "substrate (pass store= or install a default via set_default_store)"
        )
    if quarantine and store is None:
        raise ValueError(
            "on_error='quarantine' needs a store: quarantine artifacts "
            "persist as errors/<config-hash>.json (pass store= or install "
            "a default via set_default_store)"
        )
    if checkpoint_every > 0 and store is None:
        raise ValueError(
            "checkpoint_every needs a store: snapshots persist under the "
            "store's checkpoints/ directory"
        )
    if compute_retry is not None or quarantine:
        from ..resilience import DEFAULT_COMPUTE_RETRY

        retry_policy = (
            compute_retry if compute_retry is not None else DEFAULT_COMPUTE_RETRY
        )
        attempts_budget = max(1, int(retry_policy.max_attempts))
    else:
        retry_policy = None
        attempts_budget = 1
    snap_root = str(store.root) if checkpoint_every > 0 else None
    failures: list[SweepFailure] = []
    _SWEEP_FAILURES.value = failures
    tracer = get_tracer()
    n = len(configs)
    results: list[SimulationResult | None] = [None] * n
    done = 0
    n_cached = 0
    n_computed = 0
    watch = Stopwatch()

    def notify(index: int, cached: bool) -> None:
        """Advance the counters and fire the progress callback."""
        nonlocal done, n_cached, n_computed
        done += 1
        if cached:
            n_cached += 1
        else:
            n_computed += 1
        if tracer.enabled:
            tracer.metrics.counter(
                "sweep_slots_total", "Sweep slots filled", outcome=(
                    "cached" if cached else "computed"
                )
            ).inc()
        if progress is not None:
            elapsed = watch.elapsed()
            if n_computed and done < n:
                # Rate over computed slots only: cached slots land in
                # microseconds and would collapse the estimate to ~zero.
                eta = elapsed / n_computed * (n - done)
            else:
                eta = 0.0 if done >= n else None
            progress(
                done,
                n,
                index,
                results[index],
                cached,
                SweepProgress(
                    done=done,
                    total=n,
                    elapsed_s=elapsed,
                    eta_s=eta,
                    cached=n_cached,
                    computed=n_computed,
                ),
            )

    # Cache phase: serve hits and — only when a store provides identity —
    # dedupe identical configs so one execution feeds every duplicate
    # slot.  Without a store every slot executes independently and owns
    # its result object, preserving the store-less semantics.
    pending: list[tuple[SimulationConfig, list[int]]] = []
    groups: dict[SimulationConfig, list[int]] = {}
    for i, cfg in enumerate(configs):
        if cfg in groups:
            # Duplicate of a config already queued: don't re-probe the
            # store (that would count a spurious miss per duplicate);
            # the slot is filled — and counted as a hit — when the one
            # execution lands in the store.
            groups[cfg].append(i)
            continue
        cached = store.get(cfg) if store is not None else None
        if cached is not None:
            results[i] = cached
            notify(i, cached=True)
        elif store is not None and not cfg.collect_events:
            groups[cfg] = [i]
            pending.append((cfg, groups[cfg]))
        else:
            # No store identity, or an event-collecting run (whose events
            # the store cannot persist): every slot executes on its own.
            pending.append((cfg, [i]))

    def complete(cfg: SimulationConfig, indices: list[int], result: SimulationResult):
        """Persist one finished result and fill every slot it serves."""
        if store is not None and not cfg.collect_events:
            store.put(result)
            if quarantine:
                # A success supersedes any stale quarantine artifact a
                # previous run left for this config.
                from ..store.hashing import config_hash

                h = config_hash(cfg)
                if store.has_error(h):
                    store.clear_error(h)
        results[indices[0]] = result
        notify(indices[0], cached=False)
        for idx in indices[1:]:
            # Duplicate slots (storable configs only, see above) get their
            # own result object — a fresh cache read — so in-place
            # mutation of one slot can't alias another.
            results[idx] = store.get(cfg)
            notify(idx, cached=True)

    def quarantine_artifact(
        cfg: SimulationConfig, exc: BaseException, attempts: int
    ) -> str:
        """Persist the ``errors/<hash>.json`` artifact for one config.

        Also drops the config's stale solo snapshot (a quarantined task
        never completes, so nothing else would).  Returns the hash.
        """
        from ..resilience import active_plan, build_error_payload, snapshot_key
        from ..store.hashing import canonical_config_dict, config_hash

        h = config_hash(cfg)
        store.put_error(
            build_error_payload(
                config_hash=h,
                error=exc,
                traceback_text=_cause_traceback(exc),
                attempts=attempts,
                config=canonical_config_dict(cfg),
                plan=active_plan(),
            )
        )
        if snap_root is not None:
            store.delete_snapshot(snapshot_key([h]))
        return h

    def record_failure(
        cfg: SimulationConfig, index: int, exc: BaseException, attempts: int
    ) -> None:
        """Quarantine ``cfg`` locally: artifact, counters, enumeration."""
        h = quarantine_artifact(cfg, exc, attempts)
        failure = SweepFailure(
            index=index,
            config=cfg,
            config_hash=h,
            attempts=attempts,
            error=repr(exc),
            traceback_text=_cause_traceback(exc),
        )
        failures.append(failure)
        if tracer.enabled:
            tracer.metrics.counter(
                "resilience_quarantined_total",
                "Configs settled by a quarantine artifact",
            ).inc()
        if on_failure is not None:
            on_failure(failure)

    def drop_task_snapshot(
        task: list[tuple[SimulationConfig, list[int]]]
    ) -> None:
        """A failed batch about to be split never completes as a batch —
        drop its stale batch-level snapshot."""
        if snap_root is None:
            return
        from ..resilience import snapshot_key
        from ..store.hashing import config_hash

        store.delete_snapshot(snapshot_key([config_hash(c) for c, _ in task]))

    snapshot = (snap_root, checkpoint_every) if snap_root is not None else None

    def book_task_metrics(
        task: list[tuple[SimulationConfig, list[int]]],
        task_results: list[SimulationResult],
        turnaround_s: float,
    ) -> None:
        """Record per-task telemetry (span, timings, queue wait).

        ``turnaround_s`` is submit-to-completion; the queue wait is
        the part of it not explained by the task's own reported
        execution time (which each result carries as its amortized
        share, so their sum is the task's wall time).
        """
        exec_s = sum(r.wall_time_s for r in task_results)
        tracer.record(
            "sweep/task", exec_s, attrs={"backend": backend, "lanes": len(task)}
        )
        tracer.metrics.histogram(
            "sweep_task_seconds", "Per-task execution wall time"
        ).observe(exec_s)
        tracer.metrics.histogram(
            "sweep_queue_wait_seconds",
            "Submit-to-completion time not spent executing",
        ).observe(max(0.0, turnaround_s - exec_s))

    def drive(
        tasks: list[list[tuple[SimulationConfig, list[int]]]],
        executor: Any,
        width: int,
        land: Callable[[SimulationConfig, list[int], SimulationResult], None],
        fail: Callable[[SimulationConfig, int, BaseException, int], None],
        task_hashes: list[str] | None = None,
    ) -> None:
        """Run planned tasks, at most ``width`` at once: the one failure rule.

        Local sweeps drive their whole plan through this on a pool or
        :class:`_InlineExecutor`; a dispatch drain drives each claimed
        task through it inline.  Every lane of a finished task goes to
        ``land(cfg, indices, result)``.  A failed multi-lane task splits
        into solo tasks at once, the failed attempt counting once for
        each lane; a failed solo task is resubmitted while its budget
        lasts; then it goes to ``fail(cfg, index, exc, attempts)`` under
        quarantine, or raises :class:`SweepWorkerError` (listing
        ``task_hashes``, the claimed task's configs under dispatch).
        """
        #: (task, attempt number) in run order; failed tasks come back
        #: to the front — split into solo lanes, or retried — so they
        #: settle before fresh work starts.
        queue = deque((task, 1) for task in tasks)
        #: future -> (task, attempt, submit watch); at most ``width`` run
        #: at once, so a task's turnaround is its own, not the grid's.
        running: dict[Future, tuple[list, int, Stopwatch]] = {}
        with executor:
            try:
                while queue or running:
                    while queue and len(running) < width:
                        task, attempt = queue.popleft()
                        fut = executor.submit(
                            _task_worker, [cfg for cfg, _ in task], snapshot
                        )
                        running[fut] = (task, attempt, Stopwatch())
                    finished, _ = wait(running, return_when=FIRST_COMPLETED)
                    # Book every success in the batch before raising:
                    # finished work must land even when a sibling future
                    # in the same batch failed.
                    failure: tuple[int, SimulationConfig, Exception] | None = None
                    for fut in finished:
                        task, attempt, submitted = running.pop(fut)
                        try:
                            task_results = fut.result()
                        except Exception as exc:
                            if len(task) > 1:
                                # Blast-radius isolation: a poisoned lane
                                # fails the whole batch, so rerun each lane
                                # solo; the failed attempt counts for each.
                                drop_task_snapshot(task)
                                queue.extendleft(
                                    ([item], attempt + 1) for item in reversed(task)
                                )
                            elif attempt < attempts_budget and isinstance(
                                exc, retry_policy.retry_on
                            ):
                                retry_policy.count_retry("sweep/compute")
                                queue.appendleft((task, attempt + 1))
                            elif quarantine:
                                fail(task[0][0], task[0][1][0], exc, attempt)
                            elif failure is None:
                                failure = (task[0][1][0], task[0][0], exc)
                            continue
                        if tracer.enabled:
                            book_task_metrics(task, task_results, submitted.elapsed())
                        for (cfg, indices), result in zip(task, task_results):
                            land(cfg, indices, result)
                    if failure is not None:
                        raise SweepWorkerError(
                            *failure, task_hashes=task_hashes
                        ) from failure[2]
            except BaseException:
                for fut in running:
                    fut.cancel()
                raise

    if dispatch == "store":
        # Imported lazily: repro.store imports repro.sim at package init,
        # so a top-level import here would be circular.
        from ..store.dispatch import (
            DEFAULT_DISPATCH_LANE_WIDTH,
            DEFAULT_LEASE_EXPIRY_S,
            StoreDispatcher,
            plan_dispatch_tasks,
            publish_sweep_grid,
        )

        # Event-collecting configs cannot travel through the store; they
        # stay behind for the classic local path below.
        shared: dict[SimulationConfig, list[int]] = {
            cfg: indices for cfg, indices in pending if not cfg.collect_events
        }
        pending = [(cfg, indices) for cfg, indices in pending if cfg.collect_events]
        width = lane_width if lane_width is not None else DEFAULT_DISPATCH_LANE_WIDTH
        # Publish and plan over the FULL storable grid — cached configs
        # included — never over this invocation's pending remainder:
        # every cooperating worker must derive identical task keys, and
        # what is already cached differs per invocation over time.
        _, grid = publish_sweep_grid(
            store, [cfg for cfg in configs if not cfg.collect_events], lane_width=width
        )
        if grid:
            dispatch_tasks = plan_dispatch_tasks(grid, lane_width=width)
            dispatcher = StoreDispatcher(
                store,
                expiry_s=(
                    lease_expiry_s
                    if lease_expiry_s is not None
                    else DEFAULT_LEASE_EXPIRY_S
                ),
            )

            def run_claimed(
                task_configs: list[SimulationConfig], task: Any
            ) -> list[SimulationResult | None]:
                """Run one claimed task's missing lanes in-process by the local rule.

                ``None`` marks a lane this invocation quarantined (its
                artifact is persisted).
                """
                landed: dict[SimulationConfig, SimulationResult] = {}
                try:
                    drive(
                        [[(cfg, shared.get(cfg, [-1])) for cfg in task_configs]],
                        _InlineExecutor(),
                        1,
                        lambda cfg, _, result: landed.__setitem__(cfg, result),
                        lambda cfg, _, exc, attempts: quarantine_artifact(
                            cfg, exc, attempts
                        ),
                        task_hashes=list(task.config_hashes),
                    )
                except SweepWorkerError:
                    # Lanes that landed before the raise persist, as in a
                    # local sweep; the drain then releases the lease.
                    hashes = dict(zip(task.configs, task.config_hashes))
                    for cfg, result in landed.items():
                        on_computed(cfg, hashes[cfg], result)
                    raise
                if getattr(_TASK_STATE, "resumed", False):
                    # Claimed tasks execute in-process, so the worker's
                    # thread-local resume flag is visible here.
                    dispatcher.note_resumed()
                return [landed.get(cfg) for cfg in task_configs]

            def on_failed(cfg: SimulationConfig, config_hash_: str) -> None:
                """Enumerate a quarantined config — ours or a peer's.

                The drain fires this exactly once per failed config
                (artifact already persisted, by us in ``run_claimed`` or
                by a peer), so this is the single place dispatch-mode
                failures are recorded; the artifact supplies the details
                for configs a peer quarantined.  Slots stay ``None``.
                """
                indices = shared.pop(cfg, None)
                payload = store.get_error(config_hash_) or {}
                failure = SweepFailure(
                    index=indices[0] if indices else -1,
                    config=cfg,
                    config_hash=config_hash_,
                    attempts=int(payload.get("attempts", 0) or 0),
                    error=str(payload.get("error", "")),
                    traceback_text=str(payload.get("traceback", "")),
                )
                failures.append(failure)
                if on_failure is not None:
                    on_failure(failure)

            def on_computed(
                cfg: SimulationConfig, config_hash_: str, result: SimulationResult
            ) -> None:
                """Persist a locally computed result and fill its slots."""
                indices = shared.pop(cfg, None)
                if indices is not None:
                    complete(cfg, indices, result)
                else:  # not one of ours (e.g. a reclaimed peer task): persist only
                    store.put(result)

            def on_served(cfg: SimulationConfig, config_hash_: str) -> None:
                """Fill slots for a config a peer (or the cache) provided."""
                indices = shared.pop(cfg, None)
                if indices is None:
                    return  # already served during the cache phase
                for idx in indices:
                    # One fresh cache read per slot, so in-place mutation
                    # of one result can't alias another.
                    results[idx] = store.get(cfg)
                    notify(idx, cached=True)

            dispatcher.drain(
                dispatch_tasks,
                run_claimed,
                on_computed,
                on_served,
                on_failed=on_failed if quarantine else None,
                quarantine=quarantine,
            )

    if pending:
        pooled = backend != "serial"
        if pooled:
            workers = max(1, workers if workers is not None else available_workers())
        tasks = plan_lane_batches(
            pending, lane_width=lane_width, workers=workers if pooled else 1
        )
        width = min(workers, len(tasks)) if pooled else 1
        if width > 1:
            pool_cls = ThreadPoolExecutor if backend == "thread" else ProcessPoolExecutor
            executor: Any = pool_cls(max_workers=width)
            if tracer.enabled:
                tracer.metrics.gauge(
                    "sweep_workers", "Worker-pool width of the last sweep"
                ).set(width)
        else:
            executor = _InlineExecutor()
        drive(tasks, executor, width, complete, record_failure)

    # Every slot is filled — except, under on_error="quarantine", slots
    # of quarantined configs, which stay None (enumerated in failures).
    return results  # type: ignore[return-value]


def replicate(
    config: SimulationConfig, n_seeds: int, root_seed: int | None = None
) -> list[SimulationConfig]:
    """``n_seeds`` copies of one config with independent derived seeds.

    The derived configs differ only in their seed, so :func:`run_sweep`
    plans the whole ensemble as one lane batch.  Delegates to
    :func:`repro.sim.engine.replicate_configs` — the single derivation
    rule — so the seeds (and therefore the cache entries) are exactly
    those of :func:`repro.sim.engine.run_replicates`.
    """
    return replicate_configs(config, n_seeds, root_seed)
