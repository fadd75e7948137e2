"""The repository benchmark: run one workload, check its outputs, print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-run --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs the same inputs untraced, then under the benchmark's
span wrappers, then under the call census, and reports the per-layer
metrics.  Human-readable lines come first; the last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 only when every output check passed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

sys.path.insert(0, str(BENCH))
import inputs  # noqa: E402
import loadgen  # noqa: E402
from tracing import KERNELS, PHASES  # noqa: E402
from worker import same_summary, summary_problems  # noqa: E402

# Fresh processes (or server spawns) that stop at the first protocol step
# (or the first 200 from /healthz), run before the measured units; each is
# followed by a reference spawn.
SETUP_PROBES = 5
# Median seconds of one reference spawn (reference_spawn) on the reference
# machine (2 cores): set-up time is scaled by the square root of this / the
# spawn beside it (see setup_metric).
REF_SPAWN_S = 0.15
# Nominal seconds one unit takes on the reference machine (2 cores): a run
# makes floor(--seconds / UNIT_S) units, at least one, so every run of a
# workload does the same work.
UNIT_S = {"paper-run": 16.0, "fig-grid": 4.0, "scale-50k": 6.5}
# Mean seconds of one reference slice (worker.reference_slice) inside a
# simulation unit on the reference machine (2 cores): throughput is scaled
# by the run's mean slice / this.
REF_SLICE_S = 0.035
# Worker processes are killed once the run has lasted this long, so a hung
# program fails the run inside the 180 s one benchmark run may take.
RUN_BUDGET_S = 170.0
T_START = time.monotonic()


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class Report:
    """Operations attempted, checks, and the lines printed before the JSON."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.lines: list[str] = []
        self.problems: list[str] = []

    def op(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def check(self, name: str, problems: list[str]) -> None:
        """One output check: counted as one operation, failed if any problem."""
        self.op(not problems, f"{name}: {'; '.join(problems[:5])}")
        self.lines.append(f"check {name}: {'ok' if not problems else 'FAILED ' + '; '.join(problems[:5])}")

    def metric(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.lines.append(f"metric {name} = {value:.6g} {unit}{' ' + note if note else ''}")


# -- statistics ---------------------------------------------------------
def tail(values: list[float]):
    """Highest percentile with at least ten samples beyond it: (value, pct, n)."""
    v = sorted(values)
    if len(v) < 11:
        return None
    k = len(v) - 11
    return v[k], 100.0 * (k + 1) / len(v), len(v)


def report_latency(rep: Report, name: str, values_s: list[float]) -> None:
    if not values_s:
        rep.lines.append(f"metric {name}_p50_ms: no samples")
        return
    rep.metric(f"{name}_p50_ms", statistics.median(values_s) * 1e3, "ms", f"(n={len(values_s)})")
    t = tail(values_s)
    if t is None:
        rep.lines.append(f"metric {name}_tail_ms: fewer than 11 samples (n={len(values_s)})")
    else:
        rep.metric(f"{name}_tail_ms", t[0] * 1e3, "ms", f"(p{t[1]:.1f} of n={t[2]})")


# -- machine fingerprint ------------------------------------------------
def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def fingerprint() -> dict:
    import numpy

    try:
        from repro.api import list_backends

        compiled = next((b for b in list_backends() if b["name"] == "compiled"), {})
    except Exception:  # noqa: BLE001 - the fingerprint must not stop the run
        compiled = {}
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": "numpy",
        "compiled_backend": compiled.get("mode", "native" if compiled.get("available") else "n/a"),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


# -- processes ----------------------------------------------------------
def worker(spec: dict, env: dict) -> tuple[dict | None, str]:
    """Run ``worker.py`` in a fresh process: ``(its JSON result, "")``, or
    ``(None, why)`` when it errs, times out or the run's budget is spent."""
    left = RUN_BUDGET_S - (time.monotonic() - T_START)
    if left < 1.0:
        return None, "the run's time budget is spent"
    spec = dict(spec, t_spawn=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=left,
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {left:.0f} s"
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or ["no stderr"])[-1]
        return None, f"exited {proc.returncode}: {last[-500:]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), ""
    except (IndexError, ValueError):
        return None, "printed no result"


@contextlib.contextmanager
def slices_beside(env: dict):
    """Reference slices timed by a process of their own while the block
    runs; the yielded list fills when the block ends."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), json.dumps({"mode": "slices"})],
        env=env, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    slices: list[float] = []
    try:
        yield slices
    finally:
        try:
            out, _ = proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, _ = proc.communicate()
        try:
            slices += json.loads(out.strip().splitlines()[-1])["ref_slices"]
        except (IndexError, ValueError, KeyError):
            pass


def reference_line(rep: Report, slices: list[float]) -> float:
    """The run's mean reference slice / ``REF_SLICE_S``, printed."""
    mean = statistics.fmean(slices)
    rep.lines.append(
        f"reference: {len(slices)} slices, mean {mean * 1e3:.2f} ms "
        f"(x{mean / REF_SLICE_S:.3f} of the reference machine's {REF_SLICE_S * 1e3:.0f} ms)"
    )
    return mean / REF_SLICE_S


def reference_spawn(env: dict) -> float:
    """Seconds from spawning an interpreter to its having imported NumPy:
    set-up work of the kind a probe does, none of it the program's."""
    t0 = time.monotonic()
    out = subprocess.run(
        [sys.executable, "-c", "import time, numpy; print(time.monotonic())"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=60,
    ).stdout
    return float(out.strip().splitlines()[-1]) - t0


def setup_metric(rep: Report, env: dict, probe) -> dict[str, float]:
    """``setup_s`` from ``SETUP_PROBES`` calls of ``probe(i)`` (set-up
    seconds, or None when the probe failed), each followed by a reference
    spawn: the median of set-up x sqrt(``REF_SPAWN_S`` / reference spawn).

    The square root splits the difference between not scaling (set-up
    follows the machine's fast and slow spells) and scaling fully (a bare
    spawn speeds up and slows down more than set-up does).
    """
    pairs = []
    for i in range(SETUP_PROBES):
        setup = probe(i)
        if setup is not None:
            pairs.append((setup, reference_spawn(env)))
    if not pairs:
        return {}
    setups, refs = zip(*pairs)
    rep.metric("setup_s_raw", statistics.median(setups), "s", f"(median of {len(setups)} probes)")
    rep.lines.append(
        f"reference spawns: median {statistics.median(refs) * 1e3:.1f} ms "
        f"(x{statistics.median(refs) / REF_SPAWN_S:.3f} of the reference machine's {REF_SPAWN_S * 1e3:.0f} ms)"
    )
    return {"setup_s": statistics.median(s * math.sqrt(REF_SPAWN_S / r) for s, r in pairs)}


def record(rep: Report, label: str, result: dict | None, why: str) -> bool:
    """Count one worker process as an operation, failed if it did not
    finish or failed a check; whether it finished."""
    if result is None:
        rep.op(False, f"{label}: {why}")
        return False
    bad = [f"{name}: {p}" for name, ps in result["checks"].items() for p in ps]
    rep.op(not bad, f"{label}: {'; '.join(bad[:5])}")
    return True


def check_lines(rep: Report, label: str, results: list[dict]) -> None:
    """One ``check`` line per check name over the processes that ran it."""
    for name in dict.fromkeys(n for r in results for n in r["checks"]):
        ran = [r["checks"][name] for r in results if name in r["checks"]]
        rep.lines.append(
            f"check {label}{name}: {'ok' if not any(ran) else 'FAILED'} ({len(ran)} processes)"
        )


# -- per-layer metrics --------------------------------------------------
def layer_metrics(trace: dict, counts: dict, census: dict | None) -> dict[str, float]:
    """Per-layer metrics from span aggregates, counters and one census pass.

    Metrics of a layer the workload does not reach, or whose seam is
    missing, are absent from the returned dict.
    """
    out: dict[str, float] = {}

    def span(name):
        return trace.get(name, {"n": 0, "incl_s": 0.0, "self_s": 0.0})

    steps = span("phase/churn")["n"] or max(
        (span(f"phase/{p}")["n"] for p in PHASES), default=0
    )
    if steps:
        for p in PHASES:
            s = span(f"phase/{p}")
            if s["n"]:
                out[f"phase.{p}.self_us_per_step"] = s["self_s"] / steps * 1e6
        for k in KERNELS:
            s = span(f"kernel/{k}")
            if s["n"]:
                out[f"kernel.{k}.us_per_step"] = s["incl_s"] / steps * 1e6
    if census and census["steps"]:
        n = census["steps"]
        for p in census["phases_found"]:
            out[f"phase.{p}.c_calls_per_step"] = census["c_calls"].get(p, 0) / n
            out[f"phase.{p}.py_calls_per_step"] = census["py_calls"].get(p, 0) / n
        for k in census["kernels_found"]:
            if census["kernel_calls"].get(k):
                out[f"kernel.{k}.calls_per_step"] = census["kernel_calls"][k] / n
                out[f"kernel.{k}.elems_per_step"] = census["kernel_elems"][k] / n
    build, run = span("engine/build"), span("engine/run")
    if build["n"]:
        out["engine.build_ms"] = build["incl_s"] / build["n"] * 1e3
        out["engine.state_mb"] = counts.get("engine.state_bytes", 0) / build["n"] / 2**20
    if run["n"]:
        out["engine.protocol_s"] = run["incl_s"]
    plan, sweep = span("sweep/plan"), span("sweep/run")
    if plan["n"]:
        out["sweep.plan_ms"] = plan["incl_s"] * 1e3
        out["sweep.batches"] = counts.get("sweep.batches", 0)
    if sweep["n"]:
        out["sweep.overhead_s"] = sweep["self_s"]
    put, get, hsh = span("store/put"), span("store/get"), span("store/hash")
    if put["n"]:
        out["store.puts"] = put["n"]
        out["store.put_ms"] = put["incl_s"] / put["n"] * 1e3
        if not counts.get("store.put_bytes_unknown"):
            out["store.bytes_per_put"] = counts.get("store.put_bytes", 0) / put["n"]
    if get["n"]:
        out["store.gets"] = get["n"]
        out["store.get_ms"] = get["incl_s"] / get["n"] * 1e3
        out["store.hit_ratio"] = counts.get("store.hits", 0) / get["n"]
    if hsh["n"]:
        out["store.hash_us"] = hsh["incl_s"] / hsh["n"] * 1e6
    return out


def coverage_lines(trace: dict) -> list[str]:
    """How much of the protocol the phase spans cover, and of each phase its kernels."""
    run = trace.get("engine/run", {}).get("incl_s", 0.0)
    phases = {p: trace[f"phase/{p}"] for p in PHASES if f"phase/{p}" in trace}
    if not run or not phases:
        return ["coverage: no protocol spans"]
    total = sum(s["incl_s"] for s in phases.values())
    lines = [f"coverage: phase spans cover {total / run:.1%} of engine.protocol_s ({run:.3f} s)"]
    for p, s in phases.items():
        share = 1.0 - s["self_s"] / s["incl_s"] if s["incl_s"] else 0.0
        lines.append(
            f"coverage: phase {p}: kernel spans {share:.1%} of {s['incl_s'] * 1e3:.1f} ms inclusive"
        )
    return lines


# -- simulation workloads -----------------------------------------------
def sim_untraced(workload, seed, seconds, env, scratch, rep: Report) -> dict:
    units = []
    base = {"workload": workload, "seed": seed, "scratch": str(scratch)}

    def probe(i):
        r, why = worker(dict(base, mode="probe"), env)
        return r["setup_s"] if record(rep, f"probe {i}", r, why) else None

    metrics = setup_metric(rep, env, probe)
    for i in range(max(1, int(seconds // UNIT_S[workload]))):
        r, why = worker(dict(base, mode="unit", check_lane=i == 0), env)
        if record(rep, f"unit {i}", r, why):
            units.append(r)
    check_lines(rep, "", units)
    digests = {u["digest"] for u in units}
    rep.check("units agree (same seed, same summaries)", [] if len(digests) <= 1 else [f"{len(digests)} digests"])
    rep.lines.append(f"units: {len(units)}")
    if not units:
        return metrics

    # Rates over the whole run, not medians of a few units: this machine's
    # speed wanders by ~20% over seconds, and the longest window averages
    # it best.  The reference slices, timed in the same windows, take out
    # the drift over minutes.
    def rate(key):
        return sum(u[key] for u in units) / sum(u["compute_s"] for u in units)

    slowdown = reference_line(rep, [s for u in units for s in u["ref_slices"]])
    rep.metric("agent_steps_per_s_raw", rate("agent_steps"), "agent-steps/s")
    metrics["peak_rss_mb"] = statistics.median(u["rss_mb"] for u in units)
    metrics["agent_steps_per_s"] = rate("agent_steps") * slowdown
    if workload == "paper-run":
        rep.metric("steps_per_s", rate("steps"), "steps/s")
    elif workload == "fig-grid":
        rep.metric("configs_per_s", rate("configs"), "configs/s")
    return metrics


def sim_traced(workload, seed, env, scratch, rep: Report, run_id: str) -> dict:
    """Untraced unit, timing pass and census pass; a pass that fails leaves
    its metrics absent."""
    base = {"workload": workload, "seed": seed, "scratch": str(scratch)}
    span_file = OUT / "spans" / f"{workload}-s{seed}.txt"
    span_file.parent.mkdir(parents=True, exist_ok=True)
    passes = {}
    for mode, extra in (
        ("unit", {}),
        ("traced", {"run_id": run_id, "span_file": str(span_file)}),
        ("census", {}),
    ):
        r, why = worker(dict(base, mode=mode, **extra), env)
        if record(rep, f"{mode} pass", r, why):
            passes[mode] = r
            check_lines(rep, f"{mode}: ", [r])
    plain, traced, census = (passes.get(m) for m in ("unit", "traced", "census"))
    out: dict[str, float] = {}
    if plain and traced:
        rep.check("traced summaries == untraced", [] if plain["digest"] == traced["digest"] else ["digests differ"])
        out["obs.trace_overhead"] = traced["compute_s"] / plain["compute_s"] - 1.0
    if census:
        rep.check(
            "census passes repeat exactly",
            [] if census["census"][0] == census["census"][1] and len(set(census["digests"])) == 1
            else ["counts or summaries differ between the two census passes"],
        )
    out.update(layer_metrics(
        traced["trace"] if traced else {},
        traced["counts"] if traced else {},
        census["census"][0] if census else None,
    ))
    if traced:
        rep.lines += coverage_lines(traced["trace"])
        rep.lines.append(f"spans: {span_file.relative_to(ROOT)}")
        if traced["missing"]:
            rep.lines.append(f"missing seams: {', '.join(traced['missing'])}")
    return out


# -- service workload ---------------------------------------------------
def index_lines(store_dir: Path) -> int:
    """Lines of the store's append-only ``index.jsonl``: one per ``put``."""
    try:
        data = (store_dir / "index.jsonl").read_bytes()
    except OSError:
        return 0
    return sum(1 for line in data.splitlines() if line.strip())


def service_pass(cmd, env, store_dir: Path, plans, configs, rep: Report, label: str,
                 reference: bool = False):
    """One server lifetime under the schedule, with its output checks:
    records, summaries, rss, wall and (with ``reference``) the reference
    slices timed beside the load, or None when the server did not start."""
    from repro.store import RunStore, canonical_config_dict, config_hash

    try:
        proc, port, _ = loadgen.start_server(cmd, env, str(ROOT))
    except (OSError, RuntimeError) as exc:
        rep.op(False, f"{label}: {exc}")
        return None
    try:
        with slices_beside(env) if reference else contextlib.nullcontext([]) as slices:
            records, wall = loadgen.drive(port, plans, [canonical_config_dict(c) for c in configs])
        views = {}
        for rec in records:
            if "job_id" in rec:
                try:
                    status, body = loadgen.request(port, "GET", f"/jobs/{rec['job_id']}")
                except OSError:
                    status = None
                views[rec["job_id"]] = json.loads(body) if status == 200 else None
    finally:
        rss = loadgen.stop_server(proc)
    puts = index_lines(store_dir)
    store = RunStore(store_dir)
    hashes = [config_hash(c) for c in configs]
    unique = {hashes[i] for rec in records for i in rec["grid"]}
    landed: dict[int, float] = {}  # config index -> first terminal event of a job holding it
    for rec in records:
        if rec.get("state") == "completed":
            for i in rec["grid"]:
                landed[i] = min(landed.get(i, rec["t_done"]), rec["t_done"])
    summaries: dict[str, dict] = {}
    for rec in records:
        problems = [rec["error"]] if "error" in rec else []
        if not problems and rec.get("state") != "completed":
            problems.append(f"job ended {rec.get('state')}")
        if not problems and rec["kind"] != "hit" and all(
            landed.get(i, rec["t_post"]) < rec["t_post"] for i in rec["grid"]
        ):
            problems.append("every config had landed before the POST, yet it was not a store hit")
        view = views.get(rec.get("job_id"))
        if not problems:
            got = {r["config_hash"]: r for r in (view or {}).get("results", [])}
            if set(got) != {hashes[i] for i in rec["grid"]}:
                problems.append("job results do not match the submitted configs")
            for h, r in got.items():
                stored = store.get_record(h)
                if r.get("status") != "done" or stored is None or not same_summary(r["summary"], stored.summary):
                    problems.append(f"{h[:12]}: result differs from the store's record")
                else:
                    problems += [f"{h[:12]}: {p}" for p in summary_problems(r["summary"])]
                summaries[h] = r["summary"]
        rep.op(not problems, f"{label} job {rec.get('job_id')}: {'; '.join(problems[:3])}")
    rep.check(
        f"{label}: no config computed twice (store index lines)",
        [] if puts == len(unique) else [f"{puts} puts for {len(unique)} unique configs"],
    )
    queued = sum(r.get("queued", 0) for r in records)
    rep.check(
        f"{label}: no config computed twice (units the service queued)",
        [] if queued == len(unique) else [f"{queued} units queued for {len(unique)} unique configs"],
    )
    rep.check(
        f"{label}: store holds exactly the submitted configs",
        [] if set(store.iter_hashes()) == unique else [f"store has {len(store)} records, want {len(unique)}"],
    )
    return {"records": records, "summaries": summaries, "rss_mb": rss, "wall_s": wall,
            "ref_slices": slices}


def service_stats(p: dict, configs) -> dict:
    """Client-side figures of one pass."""
    recs = [r for r in p["records"] if "t_done" in r]
    fresh = [r for r in recs if r["kind"] != "hit"]
    computed = [configs[i] for i in {i for r in recs for i in r["grid"]}]
    return {
        "fresh_s": [r["t_done"] - r["t_post"] for r in fresh],
        "hit_s": [r["t_done"] - r["t_post"] for r in recs if r["kind"] == "hit"],
        "submit_s": [r["t_resp"] - r["t_post"] for r in recs],
        "queue_s": [max(0.0, r.get("t_started", r["t_done"]) - r["t_resp"]) for r in fresh],
        "run_s": [r["t_done"] - r.get("t_started", r["t_done"]) for r in fresh],
        "jobs_per_s": len(recs) / p["wall_s"],
        "agent_steps_per_s": inputs.agent_steps(computed) / p["wall_s"],
        "rejected": sum(1 for r in p["records"] if r.get("status") in (429, 503)),
        "dedup_ratio": 1.0 - sum(r.get("queued", 0) for r in recs) / max(1, sum(r.get("total", 0) for r in recs)),
    }


def mix_line(records: list[dict]) -> str:
    """What the server made of the schedule: job kinds and config sources."""
    recs = [r for r in records if "kind" in r]
    total = sum(r.get("total", 0) for r in recs)
    cached = sum(r.get("cached", 0) for r in recs)
    joined = sum(r.get("joined", 0) for r in recs)
    queued = sum(r.get("queued", 0) for r in recs)
    return (
        "jobs: " + ", ".join(f"{sum(r['kind'] == k for r in recs)} {k}" for k in ("fresh", "join", "hit"))
        + f"; configs submitted: {total} ({cached} from the store, {joined} joined in flight, "
        f"{queued} computed)"
    )


def service_workload(seed, seconds, trace, env, scratch, rep: Report, run_id: str):
    plans, configs = loadgen.build_schedule(seed, seconds)
    serve = [sys.executable, "-m", "repro.store.cli", "serve", "--port", "0", "--workers", "2", "--store"]
    jobs = sum(len(g) for plan in plans for g in plan)
    rep.lines.append(
        f"schedule: {jobs} jobs over {len(plans)} closed-loop clients in {len(plans[0])} rounds, "
        f"each a pool of {loadgen.POOL_SIZE} configs"
    )
    if not trace:
        def probe(i):
            try:
                proc, _, setup_s = loadgen.start_server(serve + [str(scratch / f"probe{i}")], env, str(ROOT))
            except (OSError, RuntimeError) as exc:
                rep.op(False, f"probe {i}: {exc}")
                return None
            loadgen.stop_server(proc)
            rep.op(True)
            return setup_s

        metrics = setup_metric(rep, env, probe)
        p = service_pass(serve + [str(scratch / "store")], env, scratch / "store", plans, configs, rep,
                         "serve", reference=True)
        if p is not None:
            s = service_stats(p, configs)
            rep.lines.append(mix_line(p["records"]))
            report_latency(rep, "fresh", s["fresh_s"])
            report_latency(rep, "hit", s["hit_s"])
            rep.metric("jobs_per_s", s["jobs_per_s"], "jobs/s")
            rep.metric("agent_steps_per_s_raw", s["agent_steps_per_s"], "agent-steps/s")
            metrics["peak_rss_mb"] = p["rss_mb"]
            if p["ref_slices"]:
                metrics["agent_steps_per_s"] = s["agent_steps_per_s"] * reference_line(rep, p["ref_slices"])
            else:
                rep.op(False, "reference slices: none were timed beside the server")
        return metrics
    plain = service_pass(serve + [str(scratch / "plain")], env, scratch / "plain", plans, configs, rep, "serve")
    span_file = OUT / "spans" / f"service-mixed-s{seed}.txt"
    span_file.parent.mkdir(parents=True, exist_ok=True)
    trace_out = scratch / "server-trace.json"
    launcher = [sys.executable, str(BENCH / "serve_traced.py"), "--trace-out", str(trace_out),
                "--span-file", str(span_file), "--run-id", run_id, "--workers", "2", "--store"]
    traced = service_pass(launcher + [str(scratch / "traced")], env, scratch / "traced", plans, configs, rep, "traced")
    if traced is None:
        return {}
    out: dict[str, float] = {}
    if plain is not None:
        differ = [
            h for h, a in plain["summaries"].items() if not same_summary(a, traced["summaries"].get(h, {}))
        ]
        rep.check("traced results == untraced", [f"{len(differ)} configs differ"] if differ else [])
        out["obs.trace_overhead"] = traced["wall_s"] / plain["wall_s"] - 1.0
    try:
        server = json.loads(trace_out.read_text())
    except (OSError, ValueError) as exc:
        rep.op(False, f"traced server wrote no trace: {exc}")
        server = {"trace": {}, "counts": {}, "missing": []}
    out.update(layer_metrics(server["trace"], server["counts"], None))
    s = service_stats(traced, configs)
    rep.lines.append(mix_line(traced["records"]))
    for name, values in (("submit_ms", s["submit_s"]), ("queue_wait_ms", s["queue_s"]), ("run_ms", s["run_s"])):
        if values:
            out[f"service.{name}"] = statistics.median(values) * 1e3
    out.update({"service.rejected": s["rejected"], "service.dedup_ratio": s["dedup_ratio"]})
    rep.lines += coverage_lines(server["trace"])
    client_file = span_file.with_name(f"service-mixed-s{seed}-client.txt")
    loadgen.dump_client_spans(traced["records"], run_id, client_file)
    rep.lines.append(f"spans: {span_file.relative_to(ROOT)} (server), {client_file.relative_to(ROOT)} (client)")
    if server["missing"]:
        rep.lines.append(f"missing seams: {', '.join(server['missing'])}")
    return out


# -- entry point --------------------------------------------------------
def main() -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "api.py").is_file():
        print(f"perfbench: the program's source is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    units = metric_units("per_layer" if args.trace else "end_to_end")
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    scratch = OUT / "runs" / run_id
    scratch.mkdir(parents=True, exist_ok=True)
    rep = Report()
    fp: dict = {}
    metrics: dict[str, float] = {}
    try:
        fp = fingerprint()
        if args.workload == "service-mixed":
            metrics = service_workload(args.seed, args.seconds, args.trace, env, scratch, rep, run_id)
        elif args.trace:
            metrics = sim_traced(args.workload, args.seed, env, scratch, rep, run_id)
        else:
            metrics = sim_untraced(args.workload, args.seed, args.seconds, env, scratch, rep)
    except Exception as exc:  # noqa: BLE001 - a failure still ends in a result line
        rep.op(False, f"{args.workload}: {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    # A metric the run could not measure (a failed pass, a missing seam, a
    # layer the workload does not reach) is 0 in the result line, whose
    # entries hold only value and unit; the "absent" line printed before it
    # and .perfbench/last-*.json name them.
    table = {
        name: {"value": float(metrics.get(name, 0.0)), "unit": unit} for name, unit in units.items()
    }
    absent = [name for name in units if name not in metrics]
    rep.metric("failed_frac", rep.failed / max(1, rep.attempted), "ratio")
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in fp.items()))
    for line in rep.lines:
        print(line)
    for name, entry in table.items():
        if name not in absent:
            print(f"metric {name} = {entry['value']:.6g} {entry['unit']}")
    if absent:
        print(f"absent (0 in the result): {', '.join(absent)}")
    for problem in rep.problems[:20]:
        print(f"failed: {problem}")
    saved = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
             "machine": fp, "lines": rep.lines, "absent": absent, "metrics": table}
    (OUT / f"last-{args.workload}-t{args.trace}.json").write_text(json.dumps(saved, indent=1))
    correct = rep.failed == 0
    print(json.dumps({"correct": correct, "attempted": rep.attempted, "failed": rep.failed, "metrics": table}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
