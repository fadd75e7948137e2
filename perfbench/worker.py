"""One unit of a simulation workload, in a fresh process.

Usage (spawned by ``run.py`` with the program's ``src`` on ``PYTHONPATH``)::

    python3 perfbench/worker.py '{"workload": "paper-run", "seed": 1,
        "mode": "unit", "t_spawn": <time.monotonic() at spawn>,
        "scratch": <directory for stores>}'

Modes: ``probe`` stops at the first protocol step (set-up time only),
``unit`` runs the workload once with no instrumentation of the program
(reference slices interleave with it; see ``reference_slices``), ``traced`` runs
it under the span wrappers of ``tracing.py``, ``census`` makes one
warm-up run and then two call-census passes, and ``slices`` (spec
``{"mode": "slices"}``) times reference slices beside a running server
until its stdin closes.  The last stdout line is a JSON object with the
measurements and the output checks.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import resource
import select
import signal
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np

import inputs
import tracing

HEADLINE_KEYS = ("shared_files", "shared_bandwidth", "utility_sharing", "utility_editing")
# While an untraced unit computes, a benchmark-owned reference task runs
# in slices of ~35 ms, one every REF_PERIOD_S, from SIGALRM between the
# program's bytecodes.  The slices time this machine's speed, which on a
# shared machine drifts by 20-50% over minutes, at the moments the unit
# runs; run.py divides that speed out of the throughput.
REF_PERIOD_S = 0.5


class SetupReached(BaseException):
    """Raised at the first protocol step of a ``probe``; not an error."""


def hook_first_step(stamp: dict, stop: bool) -> None:
    """Record when the first protocol step starts, then unhook.

    The engine's protocol loop calls ``step_state`` through its module
    global, and ``step_state`` calls the ``*_phase`` functions the same
    way.  All of them are hooked, so the first step is still seen if a
    change stops calling one of them through a global.  The first hook
    that fires records the time and restores every binding.
    """
    try:
        import repro.sim.phases as phases
    except ImportError:
        return
    hooked = []
    for attr in ("step_state", *(f"{p}_phase" for p in tracing.PHASES)):
        fn = getattr(phases, attr, None)
        if callable(fn):
            hooked += [(module, name, fn) for module, name in tracing.bindings(fn)]

    def hook(fn):
        def first(*args, **kwargs):
            if "t_first_step" not in stamp:
                stamp["t_first_step"] = time.monotonic()
                for module, name, original in hooked:
                    setattr(module, name, original)
                if stop:
                    raise SetupReached
            return fn(*args, **kwargs)

        return first

    for module, name, fn in hooked:
        setattr(module, name, hook(fn))


def _mod11(i: int) -> int:
    return (i * 7 + 3) % 11


def reference_slice() -> float:
    """Seconds one slice of the reference task takes.

    Interpreter work and small NumPy operations, the mix of a call-bound
    simulation step; it calls nothing of the program, so no change to the
    program changes it.
    """
    t0 = time.perf_counter()
    a = np.arange(64, dtype=np.float64)
    acc, seen = 0.0, {}
    for i in range(20000):
        b = a * (i + 1.0)
        acc += float(b[i & 63]) + _mod11(i)
        seen[i & 255] = acc
        acc += len(seen)
    return time.perf_counter() - t0


def slices_until_eof() -> list[float]:
    """Reference slices, one every ``REF_PERIOD_S``, until stdin closes."""
    slices: list[float] = []
    while not select.select([sys.stdin], [], [], REF_PERIOD_S)[0]:
        slices.append(reference_slice())
    return slices


@contextlib.contextmanager
def reference_slices(slices: list[float]):
    """Run a reference slice every ``REF_PERIOD_S`` inside the block."""
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: slices.append(reference_slice()))
    signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def execute(workload: str, configs, store_dir: Path, timed=contextlib.nullcontext):
    """Run one unit through the public API: ``(results, compute seconds)``.

    fig-grid is one lane-batched serial sweep into a fresh store; the
    other workloads run each config solo with ``repro.api.run``.  Each
    timed call runs inside ``timed()``.
    """
    import repro.api as api

    if workload == "fig-grid":
        store = api.open_store(store_dir)
        with timed():
            t0 = time.monotonic()
            results = api.sweep(configs, store=store, executor="serial", lane_batch=True)
            return results, time.monotonic() - t0
    results, wall = [], 0.0
    for cfg in configs:
        with timed():
            t0 = time.monotonic()
            results.append(api.run(cfg))
            wall += time.monotonic() - t0
    return results, wall


def digest(results) -> str:
    """Digest of every summary, for traced == untraced and census == census."""
    blob = json.dumps([[r.summary, r.training_summary] for r in results], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def same_summary(a: dict, b: dict) -> bool:
    """Bit-for-bit equality of two summaries, NaN equal to NaN."""
    return a.keys() == b.keys() and all(
        a[k] == b[k] or (math.isnan(a[k]) and math.isnan(b[k])) for k in a
    )


def summary_problems(summary: dict) -> list[str]:
    """Values breaking the finiteness contract of one summary.

    NaN marks a behaviour type absent from the mix or an empty ratio, so
    it is allowed except in the headline shares; nothing may be infinite.
    """
    return [
        f"{key}={value}"
        for key, value in summary.items()
        if math.isinf(value) or (key in HEADLINE_KEYS and math.isnan(value))
    ]


def check(workload, seed, configs, results, store_dir, puts, check_lane) -> dict:
    """Output contracts of one unit: check name -> list of problems."""
    import repro.api as api
    from repro.store import config_hash

    problems: dict[str, list[str]] = {}
    finite = []
    for i, r in enumerate(results):
        if r is None:
            finite.append(f"config {i}: no result")
            continue
        for summary in (r.summary, r.training_summary):
            finite += [f"config {i}: {p}" for p in summary_problems(summary)]
    problems["summaries finite"] = finite
    if workload != "fig-grid":
        return problems
    stored = api.open_store(store_dir)
    once = [
        f"config {i}: put {puts[config_hash(c)]}x, stored={stored.contains(c)}"
        for i, c in enumerate(configs)
        if puts[config_hash(c)] != 1 or not stored.contains(c)
    ]
    if len(stored) != len(configs):
        once.append(f"store holds {len(stored)} records for {len(configs)} configs")
    problems["grid stored exactly once"] = once
    if check_lane:
        i = inputs.derive_seeds(seed, 1, stream=1)[0] % len(configs)
        solo = api.run(configs[i])
        same = same_summary(solo.summary, results[i].summary) and same_summary(
            solo.training_summary, results[i].training_summary
        )
        problems["batched lane == solo run"] = [] if same else [f"lane {i} differs"]
    return problems


def measure(workload, seed, configs, scratch: Path, check_lane: bool) -> dict:
    """Untraced unit: execute with reference slices, then check; only a
    put counter is installed.  The slices' time is not compute time."""
    puts: Counter = Counter()
    undo = tracing.count_puts(puts)
    slices: list[float] = []
    try:
        results, wall_s = execute(
            workload, configs, scratch / "store", lambda: reference_slices(slices)
        )
    finally:
        undo()
    return {
        "compute_s": wall_s - sum(slices),
        "ref_slices": slices,
        "digest": digest(results),
        "checks": check(workload, seed, configs, results, scratch / "store", puts, check_lane),
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    if spec["mode"] == "slices":
        print(json.dumps({"ref_slices": slices_until_eof()}))
        return 0
    workload, seed, mode = spec["workload"], int(spec["seed"]), spec["mode"]
    root = Path(spec["scratch"])
    root.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{mode}-", dir=root))
    out: dict = {"mode": mode}

    if mode == "census":
        import repro.api  # noqa: F401 - imports happen before counting

        configs = inputs.sim_configs(workload, seed, inputs.CENSUS_HORIZON[workload])
        # The first run in a fresh process makes one-time calls that later
        # runs do not, so an unprofiled run of the same configs goes first.
        execute(workload, configs, scratch / "warm")
        out["census"], out["digests"], out["checks"] = [], [], {}
        for n in range(2):
            store_dir = scratch / f"pass{n}"
            # Stores are written outside every phase, so counting puts
            # does not change the per-phase census.
            puts: Counter = Counter()
            undo = tracing.count_puts(puts)
            try:
                (results, _), counts = tracing.census(
                    lambda d=store_dir: execute(workload, configs, d)
                )
            finally:
                undo()
            out["census"].append(counts)
            out["digests"].append(digest(results))
            for name, problems in check(
                workload, seed, configs, results, store_dir, puts, False
            ).items():
                out["checks"].setdefault(name, []).extend(problems)
    else:
        configs = inputs.sim_configs(workload, seed)
        if mode == "traced":
            log = tracing.SpanLog(spec["run_id"])
            tracing.install_wrappers(log)
            puts = Counter()
            undo = tracing.count_puts(puts)
            try:
                results, compute_s = execute(workload, configs, scratch / "store")
            finally:
                undo()
                log.uninstall()
            out.update(
                compute_s=compute_s,
                digest=digest(results),
                checks=check(workload, seed, configs, results, scratch / "store", puts, False),
                trace=log.aggregate(),
                counts=dict(log.counts),
                missing=log.missing,
            )
            log.dump(spec["span_file"])
        else:
            stamp: dict = {}
            hook_first_step(stamp, stop=mode == "probe")
            out["checks"] = {}
            try:
                out.update(measure(workload, seed, configs, scratch, spec.get("check_lane", False)))
            except SetupReached:
                pass
            first = stamp.get("t_first_step")
            out["setup_s"] = None if first is None else first - spec["t_spawn"]
            out["checks"]["set-up ends at the first protocol step"] = (
                [] if first is not None else ["no step_state or *_phase call was seen"]
            )
        out["agent_steps"] = inputs.agent_steps(configs)
        out["configs"] = len(configs)
        # Protocol steps this unit advances: a lane-batched step counts once.
        out["steps"] = (
            configs[0].training_steps + configs[0].eval_steps
            if workload == "fig-grid"
            else sum(c.training_steps + c.eval_steps for c in configs)
        )
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
