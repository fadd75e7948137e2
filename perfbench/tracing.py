"""Outside-in layer trace: benchmark-owned wrappers around public seams.

Nothing here turns on the program's own ``repro.obs`` tracer.  The timing
pass wraps public functions and methods of each layer in spans kept in
memory; the census pass counts interpreter ``call`` and ``c_call`` events
with ``sys.setprofile`` and attributes them to the phase they occur in.
A seam that cannot be found is reported as missing and its layer's
metrics as absent; the run itself still completes.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import Counter
from time import perf_counter

import numpy as np

PHASES = (
    "churn",
    "sybil",
    "act",
    "collusion",
    "download",
    "edit_vote",
    "learn",
    "record",
)
KERNELS = (
    "grouped_shares",
    "match_sources",
    "settle_downloads",
    "filter_vote_candidates",
    "tally_votes",
    "ledger_lookup",
    "ledger_add",
    "q_update",
)
STORE_LOOKUPS = ("get", "get_record", "contains", "contains_hash")


def bindings(obj) -> list[tuple]:
    """``(module, attribute)`` of every ``repro`` module global bound to ``obj``.

    The program calls its layers through such globals, so rebinding them
    is how a wrapper reaches the program's own call sites.
    """
    return [
        (module, attr)
        for name, module in list(sys.modules.items())
        if name.startswith("repro") and module is not None
        for attr, value in list(vars(module).items())
        if value is obj
    ]


class SpanLog:
    """Spans ``(name, start, end, parent)`` per thread, plus counters.

    Each thread keeps its own span list and open-span stack, so compute
    threads of the service nest their spans correctly.  Bookkeeping a
    wrapper does after its call (byte counts, state sizes) is recorded as
    a ``bench/bookkeeping`` span, so it is excluded from every program
    layer's self time.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._threads: list[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list = []

    def count(self, key: str, n: int = 1) -> None:
        """Add to a counter; wrappers run in several threads under the service."""
        with self._lock:
            self.counts[key] += n

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans, local.stack = [], []
            self._threads.append(local.spans)
        return local.spans, local.stack

    def wrap(self, name: str, fn, note=None):
        """``fn`` timed as span ``name``; ``note(args, result)`` runs after."""

        def traced(*args, **kwargs):
            spans, stack = self._thread_state()
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if note is not None:
                spans.append(None)
                note(args, out)
                spans[-1] = ("bench/bookkeeping", t1, perf_counter(), parent)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- installing -----------------------------------------------------
    def rebind(self, original, replacement) -> int:
        """Point every ``repro`` module global bound to ``original`` at ``replacement``."""
        found = bindings(original)
        for module, attr in found:
            setattr(module, attr, replacement)
            self._undo.append((setattr, (module, attr, original)))
        return len(found)

    def patch(self, owner, attr: str, replacement, restore) -> None:
        """Set ``owner.attr``; ``restore`` puts the original back."""
        setattr(owner, attr, replacement)
        self._undo.append(restore)

    def uninstall(self) -> None:
        for fn, args in reversed(self._undo):
            fn(*args)
        self._undo.clear()

    # -- reading --------------------------------------------------------
    def spans(self):
        """``(name, start, end, parent_or_-1, thread_no)`` for every closed span."""
        for thread_no, spans in enumerate(self._threads):
            for span in spans:
                if span is not None:
                    yield (*span, thread_no)

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: count, inclusive seconds and self seconds."""
        out: dict[str, dict[str, float]] = {}
        for spans in self._threads:
            child = [0.0] * len(spans)
            for span in spans:
                if span is not None and span[3] >= 0:
                    child[span[3]] += span[2] - span[1]
            for i, span in enumerate(spans):
                if span is None:
                    continue
                agg = out.setdefault(span[0], {"n": 0, "incl_s": 0.0, "self_s": 0.0})
                dur = span[2] - span[1]
                agg["n"] += 1
                agg["incl_s"] += dur
                agg["self_s"] += dur - child[i]
        return out

    def dump(self, path) -> None:
        """Write every span as ``run_id name start end parent thread`` lines."""
        offsets, total = [], 0
        for spans in self._threads:
            offsets.append(total)
            total += len(spans)
        lines = []
        for name, t0, t1, parent, thread_no in self.spans():
            base = offsets[thread_no]
            parent_id = base + parent if parent >= 0 else -1
            lines.append(f"{self.run_id} {name} {t0:.9f} {t1:.9f} {parent_id} {thread_no}")
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            fh.write("run_id name start_s end_s parent_id thread\n")
            fh.write("\n".join(lines))
            fh.write("\n")
        os.replace(tmp, path)


def array_bytes(obj, depth: int = 4, seen: set | None = None) -> int:
    """Bytes of the NumPy arrays reachable from ``obj`` (computed, not RSS).

    Walks attributes, containers and ``__slots__`` up to ``depth`` levels,
    counting each underlying buffer once.
    """
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        base = obj
        while isinstance(base.base, np.ndarray):
            base = base.base
        if base is not obj:
            if id(base) in seen:
                return 0
            seen.add(id(base))
        return int(base.nbytes)
    if depth <= 0 or isinstance(obj, (str, bytes, int, float, bool, type(None))):
        return 0
    if isinstance(obj, dict):
        children = list(obj.values())
    elif isinstance(obj, (list, tuple, set, frozenset)):
        children = list(obj)
    else:
        children = list(getattr(obj, "__dict__", {}).values())
        for cls in type(obj).__mro__:
            for slot in getattr(cls, "__slots__", ()):
                if hasattr(obj, slot):
                    children.append(getattr(obj, slot))
    return sum(array_bytes(c, depth - 1, seen) for c in children)


def install_wrappers(log: SpanLog) -> None:
    """Wrap every layer seam the benchmark measures; record what is missing."""
    import repro.api  # noqa: F401 - binds the sweep facade before rebinding
    import repro.sim as sim
    import repro.store as store

    try:
        import repro.sim.phases as phases
    except ImportError:
        phases = None
    for p in PHASES:
        fn = getattr(phases, f"{p}_phase", None)
        if fn is None or not log.rebind(fn, log.wrap(f"phase/{p}", fn)):
            log.missing.append(f"phase/{p}")

    try:
        from repro.sim.backends import get_backend

        backend = get_backend("numpy")
    except (ImportError, ValueError):
        backend = None
    for k in KERNELS:
        method = getattr(backend, k, None)
        if method is None:
            log.missing.append(f"kernel/{k}")
            continue
        log.patch(backend, k, log.wrap(f"kernel/{k}", method), (delattr, (backend, k)))

    def note_state(args, state):
        log.count("engine.state_bytes", array_bytes(state))

    build = getattr(sim, "build_sim_state", None)
    if build is None or not log.rebind(build, log.wrap("engine/build", build, note_state)):
        log.missing.append("engine/build")
    for cls_name in ("CollaborationSimulation", "BatchedSimulation"):
        cls = getattr(sim, cls_name, None)
        if cls is None or not hasattr(cls, "run"):
            log.missing.append(f"engine/run:{cls_name}")
            continue
        log.patch(cls, "run", log.wrap("engine/run", cls.run), (setattr, (cls, "run", cls.run)))

    def note_plan(args, batches):
        log.count("sweep.batches", len(batches))

    plan = getattr(sim, "plan_lane_batches", None)
    if plan is None or not log.rebind(plan, log.wrap("sweep/plan", plan, note_plan)):
        log.missing.append("sweep/plan")
    run_sweep = getattr(sim, "run_sweep", None)
    if run_sweep is None or not log.rebind(run_sweep, log.wrap("sweep/run", run_sweep)):
        log.missing.append("sweep/run")

    config_hash = getattr(store, "config_hash", None)
    if config_hash is None or not log.rebind(
        config_hash, log.wrap("store/hash", config_hash)
    ):
        log.missing.append("store/hash")
    run_store = getattr(store, "RunStore", None)

    def note_lookup(args, found):
        log.count("store.hits", found is not None and found is not False)

    def note_put(args, key):
        try:
            log.count("store.put_bytes", os.path.getsize(args[0].runs_dir / f"{key}.json"))
        except (AttributeError, OSError, TypeError):
            log.count("store.put_bytes_unknown")

    for attr in STORE_LOOKUPS:
        method = getattr(run_store, attr, None)
        if method is None:
            log.missing.append(f"store/{attr}")
            continue
        log.patch(
            run_store,
            attr,
            log.wrap("store/get", method, note_lookup),
            (setattr, (run_store, attr, method)),
        )
    put = getattr(run_store, "put", None)
    if put is None:
        log.missing.append("store/put")
    else:
        log.patch(run_store, "put", log.wrap("store/put", put, note_put), (setattr, (run_store, "put", put)))


def count_puts(counts: Counter):
    """Count ``RunStore.put`` calls per returned key (no timing); returns an undo."""
    from repro.store import RunStore

    put = RunStore.put

    def counted(self, *args, **kwargs):
        key = put(self, *args, **kwargs)
        counts[key] += 1
        return key

    RunStore.put = counted
    return lambda: setattr(RunStore, "put", put)


def census(run):
    """Run ``run()`` under ``sys.setprofile``; count calls per phase and kernel.

    Returns ``(result, counts)`` where counts hold, per phase, the Python
    ``call`` and C ``c_call`` events inside it, and per kernel its calls
    and the elements of its array arguments.  Phases and kernels are
    recognised by their code objects, so no wrapper frame is counted.
    """
    import repro.sim.phases as phases
    from repro.sim.backends import get_backend

    backend_cls = type(get_backend("numpy"))
    phase_codes = {}
    for p in PHASES:
        fn = getattr(phases, f"{p}_phase", None)
        if fn is not None:
            phase_codes[fn.__code__] = p
    kernel_codes = {}
    for k in KERNELS:
        fn = getattr(backend_cls, k, None)
        if fn is not None:
            kernel_codes[fn.__code__] = k
    entries, py_calls, c_calls = Counter(), Counter(), Counter()
    k_calls, k_elems = Counter(), Counter()
    current = [None, None]  # phase name, its frame

    def profile(frame, event, arg):
        phase = current[0]
        if event == "c_call":
            if phase is not None:
                c_calls[phase] += 1
        elif event == "call":
            code = frame.f_code
            if phase is None:
                p = phase_codes.get(code)
                if p is not None:
                    current[0], current[1] = p, frame
                    entries[p] += 1
                return
            py_calls[phase] += 1
            k = kernel_codes.get(code)
            if k is not None:
                k_calls[k] += 1
                k_elems[k] += sum(
                    v.size for v in frame.f_locals.values() if isinstance(v, np.ndarray)
                )
        elif event == "return" and frame is current[1]:
            current[0] = current[1] = None

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    counts = {
        "steps": entries.get("churn", 0),
        "phases_found": sorted(phase_codes.values()),
        "kernels_found": sorted(kernel_codes.values()),
        "py_calls": dict(py_calls),
        "c_calls": dict(c_calls),
        "kernel_calls": dict(k_calls),
        "kernel_elems": dict(k_elems),
    }
    return result, counts
