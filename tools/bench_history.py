#!/usr/bin/env python
"""Persist the perf trajectory: distill benchmark medians into a baseline.

Two modes:

``python tools/bench_history.py``
    Run the kernel + engine + sweep benches under ``pytest-benchmark
    --benchmark-json`` and distill the per-bench **median seconds** (plus
    machine info and the speedup extra-infos) into ``BENCH_engine.json``
    at the repo root.  Commit the file so later PRs can diff against it.

``python tools/bench_history.py --check [--max-regression 2.0] [--strict]``
    Run the same benches fresh and compare every *kernel* bench median
    against the committed baseline; exit non-zero when any regresses by
    more than the factor (default 2x — generous on purpose: CI runners
    are noisy, and the guard is for order-of-magnitude mistakes, not
    microbenchmark drift).  Engine medians are reported but not gated
    (they are single-round end-to-end runs and far noisier).  Absolute
    medians only transfer between comparable machines, so when the
    machine fingerprint (arch, cpu count, python major.minor) differs
    from the baseline's the gate downgrades to warnings — reseed the
    baseline on the new machine class, or pass ``--strict`` to enforce
    anyway.  A failing bench does not hide the others: pytest-benchmark
    still writes the medians of the benches that ran, so the report
    covers them all before the failed run makes the exit non-zero.
    Seeding refuses to write a baseline from a failed run.

No third-party dependencies beyond the test stack the repo already uses.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE = REPO_ROOT / "BENCH_engine.json"

#: Bench files distilled into the baseline.  Kernel benches are the
#: regression-gated set (stable microbenchmarks); engine and sweep
#: benches are recorded for trend-watching only (single-round end-to-end
#: runs; the sweep benches additionally involve subprocess workers).
KERNEL_BENCH_FILE = "benchmarks/test_bench_kernels.py"
ENGINE_BENCH_FILE = "benchmarks/test_bench_engine.py"
SWEEP_BENCH_FILE = "benchmarks/test_bench_sweep.py"
BENCH_FILES = (KERNEL_BENCH_FILE, ENGINE_BENCH_FILE, SWEEP_BENCH_FILE)


def run_benches(extra_args: list[str] | None = None) -> tuple[dict, int]:
    """Execute the benches: pytest-benchmark's JSON payload and the exit code.

    The payload holds every bench that produced a median, failed ones
    included; it is empty when pytest wrote none (say, a collection error).
    """
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        json_path = Path(tmp.name)
    cmd = [
        sys.executable,
        "-m",
        "pytest",
        *BENCH_FILES,
        "-q",
        f"--benchmark-json={json_path}",
        *(extra_args or []),
    ]
    # Inherit the full environment (conda/virtualenv interpreters need
    # more than PATH to start) and only pin PYTHONPATH at the repo's src.
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    proc = subprocess.run(cmd, cwd=REPO_ROOT, env=env)
    try:
        text = json_path.read_text()
    finally:
        json_path.unlink(missing_ok=True)
    return (json.loads(text) if text else {"benchmarks": []}), proc.returncode


def _failed_run(returncode: int) -> str:
    return f"bench run failed with exit code {returncode}: pytest {' '.join(BENCH_FILES)}"


def distill(payload: dict) -> dict:
    """Reduce a pytest-benchmark payload to the committed baseline shape."""
    machine = payload.get("machine_info", {})
    benches: dict[str, dict] = {}
    for bench in payload["benchmarks"]:
        entry: dict = {
            "median_s": bench["stats"]["median"],
            "group": (
                "kernel"
                if "test_bench_kernels" in bench["fullname"]
                else "sweep"
                if "test_bench_sweep" in bench["fullname"]
                else "engine"
            ),
        }
        extra = bench.get("extra_info") or {}
        if extra:
            entry["extra_info"] = extra
        benches[bench["name"]] = entry
    return {
        "schema_version": 1,
        "machine": {
            "node": machine.get("node"),
            "machine": machine.get("machine"),
            "processor": machine.get("processor"),
            "cpu_count": machine.get("cpu", {}).get("count"),
            "python": machine.get("python_version", platform.python_version()),
        },
        "benchmarks": benches,
    }


def seed(args: argparse.Namespace) -> int:
    """Run the benches and (re)write the committed baseline."""
    payload, returncode = run_benches()
    if returncode != 0:
        raise SystemExit(_failed_run(returncode) + "; baseline not written")
    baseline = distill(payload)
    BASELINE.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    n = len(baseline["benchmarks"])
    print(f"wrote {BASELINE.name}: {n} bench medians")
    return 0


def _machine_fingerprint(machine: dict) -> tuple:
    """The bits of machine info that make absolute medians comparable."""
    python = str(machine.get("python") or "")
    return (
        machine.get("machine"),
        machine.get("cpu_count"),
        ".".join(python.split(".")[:2]),  # major.minor
    )


def check(args: argparse.Namespace) -> int:
    """Compare fresh kernel medians against the committed baseline.

    Absolute microbenchmark medians only transfer between comparable
    machines, so the gate is advisory (warn, exit 0) when the fresh
    machine fingerprint differs from the baseline's — a slower runner
    must not fail CI on hardware, and the right response is to reseed
    the baseline from that class of machine.  ``--strict`` forces the
    gate regardless.
    """
    if not BASELINE.exists():
        raise SystemExit(f"no baseline at {BASELINE}; run without --check first")
    baseline_doc = json.loads(BASELINE.read_text())
    baseline = baseline_doc["benchmarks"]
    payload, returncode = run_benches()
    fresh = distill(payload)
    if args.out:
        Path(args.out).write_text(
            json.dumps(fresh, indent=2, sort_keys=True) + "\n"
        )
        print(f"fresh medians written to {args.out}")
    same_machine = _machine_fingerprint(
        baseline_doc.get("machine", {})
    ) == _machine_fingerprint(fresh["machine"])
    enforce = same_machine or args.strict
    if not enforce:
        print(
            "note: machine fingerprint differs from the baseline's "
            "(different hardware class / python); regressions are "
            "reported as warnings only — reseed BENCH_engine.json on "
            "this machine class or pass --strict to enforce"
        )
    failures: list[str] = []
    for name, entry in sorted(fresh["benchmarks"].items()):
        base = baseline.get(name)
        if base is None:
            print(f"  NEW      {name}: {entry['median_s']:.3e}s (no baseline)")
            continue
        ratio = entry["median_s"] / base["median_s"]
        gated = base.get("group") == "kernel"
        tag = base.get("group") or "engine"
        print(
            f"  {tag:<8} {name}: {entry['median_s']:.3e}s "
            f"vs {base['median_s']:.3e}s ({ratio:.2f}x)"
        )
        if gated and ratio > args.max_regression:
            failures.append(f"{name}: {ratio:.2f}x > {args.max_regression}x")
    for name in sorted(set(baseline) - set(fresh["benchmarks"])):
        print(f"  MISSING  {name}: no fresh median")
    status = 0
    if failures:
        stream = sys.stderr if enforce else sys.stdout
        label = "kernel bench regressions beyond the gate" + (
            "" if enforce else " (warning only: different machine)"
        )
        print(f"{label}:", file=stream)
        for line in failures:
            print(f"  {line}", file=stream)
        status = 1 if enforce else 0
    else:
        print("no kernel bench regression beyond the gate")
    if returncode != 0:
        print(_failed_run(returncode), file=sys.stderr)
        status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare fresh medians against the committed baseline",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=2.0,
        help="fail --check when a kernel bench regresses beyond this factor",
    )
    parser.add_argument(
        "--out",
        help="with --check: also write the fresh distilled medians here "
        "(CI uploads them as an artifact)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="with --check: enforce the gate even when the machine "
        "fingerprint differs from the baseline's",
    )
    args = parser.parse_args(argv)
    return check(args) if args.check else seed(args)


if __name__ == "__main__":
    sys.exit(main())
