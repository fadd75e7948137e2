#!/usr/bin/env python3
"""Append one A/B entry to the performance ledger, ``BENCH_perfbench.json``.

Usage::

    python tools/perf_ledger.py --parent RUNS... --change RUNS... \\
        --claim "fig-grid agent_steps_per_s +20%" \\
        --claim-metric fig-grid:agent_steps_per_s [--ledger BENCH_perfbench.json]

Each ``RUNS`` argument is a file or a directory of files (searched
recursively for ``*.json``); every file is one saved
``.perfbench/last-<workload>-t0.json`` of ``perfbench/run.py``, copied
aside after its run because the next run of the workload overwrites it.
Runs of the parent and of the change are paired by (workload, seed);
unpaired runs are left out, and a seed run twice on one side is an
error.  The entry records, per workload and per end-to-end metric of
``BENCHMARK.json``: each side's median and quartiles, the number of
pairs and how many the change won (ties count for neither side).  It
also records the seeds, the machine fingerprint of the runs, both
commits with their source digests (``src_sha256``) and the claim.

A side's runs must come from one source tree: runs carrying more than
one source digest are an error, and so are two sides that name the same
commit with different digests (one of them ran from a working tree that
differs from its commit, so its runs would be filed under the wrong
commit).

``--claim-metric WORKLOAD:METRIC`` names the claimed metric; the entry
then says whether the claim holds by the rule the benchmark's readers
apply: the change wins at least nine tenths of the pairs and the medians
differ by more than the parent's quartile spread.

Quartiles are linear-interpolation percentiles (``statistics.quantiles``
with ``method="inclusive"``, the same as ``numpy.percentile``'s
default).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
LEDGER = REPO_ROOT / "BENCH_perfbench.json"
BENCHMARK = REPO_ROOT / "BENCHMARK.json"
SCHEMA_VERSION = 1
#: Fingerprint fields that identify the code, not the machine.
CODE_FIELDS = ("git_commit", "src_sha256")


def load_runs(paths: list[str]) -> dict[tuple[str, int], dict]:
    """Saved untraced runs under ``paths``, keyed by (workload, seed)."""
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        files.extend(sorted(path.rglob("*.json")) if path.is_dir() else [path])
    runs: dict[tuple[str, int], dict] = {}
    for path in files:
        run = json.loads(path.read_text())
        if run.get("trace") != 0:
            raise ValueError(f"{path}: not an untraced (--trace 0) run")
        key = (run["workload"], int(run["seed"]))
        if key in runs:
            raise ValueError(f"{path}: {key[0]} seed {key[1]} appears twice")
        runs[key] = run
    return runs


def failed_frac(run: dict) -> float:
    """The run's share of failed operations, from its printed metric line."""
    for line in run.get("lines", []):
        if line.startswith("metric failed_frac = "):
            return float(line.split()[3])
    raise ValueError(f"{run['workload']} seed {run['seed']}: no failed_frac line")


def quartiles(values: list[float]) -> dict[str, float]:
    """Median and quartiles of ``values``."""
    if len(values) == 1:
        v = values[0]
        return {"median": v, "q1": v, "q3": v}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """Per-metric statistics over aligned pairs of runs."""
    sign = 1.0 if better == "higher" else -1.0
    won = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    lost = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    p, c = quartiles(parent), quartiles(change)
    return {
        "better": better,
        "parent": p,
        "change": c,
        "pairs": len(parent),
        "pairs_won": won,
        "pairs_lost": lost,
        "median_ratio": c["median"] / p["median"] if p["median"] else None,
    }


def claim_holds(stats: dict) -> bool:
    """Wins >= 9/10 of the pairs and the median gap exceeds the parent IQR."""
    gap = stats["change"]["median"] - stats["parent"]["median"]
    if stats["better"] == "lower":
        gap = -gap
    iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
    return stats["pairs_won"] * 10 >= stats["pairs"] * 9 and gap > iqr


def machine(runs: list[dict]) -> dict:
    """The runs' shared machine fingerprint, without the code fields."""
    prints = [
        {k: v for k, v in run.get("machine", {}).items() if k not in CODE_FIELDS}
        for run in runs
    ]
    first = prints[0]
    return {k: v for k, v in first.items() if all(p.get(k) == v for p in prints)}


def code(runs: list[dict]) -> tuple[str, str | None]:
    """The one commit and source digest the runs of one side come from."""
    fingerprint = {
        (run.get("machine", {}).get("git_commit", "unknown"),
         run.get("machine", {}).get("src_sha256"))
        for run in runs
    }
    commits = {c for c, _ in fingerprint}
    if len(commits) != 1:
        raise ValueError(f"runs of one side come from several commits: {sorted(commits)}")
    if len(fingerprint) != 1:
        digests = sorted(str(d) for _, d in fingerprint)
        raise ValueError(f"runs of one side come from several source trees: {digests}")
    return fingerprint.pop()


def build_entry(
    parent: dict[tuple[str, int], dict],
    change: dict[tuple[str, int], dict],
    metrics: list[dict],
    claim: str,
    claim_metric: str | None = None,
) -> dict:
    """One ledger entry from paired parent/change runs."""
    pairs = sorted(set(parent) & set(change))
    if not pairs:
        raise ValueError("no (workload, seed) appears on both sides")
    workloads: dict[str, dict] = {}
    for name in sorted({w for w, _ in pairs}):
        seeds = [s for w, s in pairs if w == name]
        table = {}
        for metric in metrics:
            key = metric["name"]
            p = [parent[(name, s)]["metrics"][key]["value"] for s in seeds]
            c = [change[(name, s)]["metrics"][key]["value"] for s in seeds]
            table[key] = {"unit": metric["unit"], **compare(p, c, metric["better"])}
        failed = {
            side: max(failed_frac(runs[(name, s)]) for s in seeds)
            for side, runs in (("parent", parent), ("change", change))
        }
        workloads[name] = {"seeds": seeds, "max_failed_frac": failed, "metrics": table}
    (parent_commit, parent_src), (change_commit, change_src) = (
        code([side[k] for k in pairs]) for side in (parent, change)
    )
    if parent_commit == change_commit and parent_src != change_src:
        raise ValueError(
            f"both sides name commit {parent_commit} but their sources differ "
            f"({parent_src} vs {change_src}): one side ran from a working tree "
            "that is not its commit"
        )
    entry = {
        "recorded": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "commits": {"parent": parent_commit, "change": change_commit},
        "src_sha256": {"parent": parent_src, "change": change_src},
        "machine": machine([parent[k] for k in pairs] + [change[k] for k in pairs]),
        "claim": {"text": claim},
        "workloads": workloads,
    }
    if claim_metric:
        workload, _, metric = claim_metric.partition(":")
        if workload not in workloads or metric not in workloads[workload]["metrics"]:
            raise ValueError(f"claimed metric {claim_metric!r} has no pairs")
        entry["claim"].update(
            workload=workload,
            metric=metric,
            holds=claim_holds(workloads[workload]["metrics"][metric]),
        )
    return entry


def validate(table: dict) -> list[str]:
    """Schema problems of a ledger; empty when the ledger is well formed."""
    if table.get("schema_version") != SCHEMA_VERSION:
        return [f"schema_version is {table.get('schema_version')!r}, not {SCHEMA_VERSION}"]
    entries = table.get("entries")
    if not isinstance(entries, list) or not entries:
        return ["entries must be a non-empty list"]
    problems = []
    for i, entry in enumerate(entries):
        where = f"entries[{i}]"
        commits = entry.get("commits", {})
        if not all(isinstance(commits.get(side), str) for side in ("parent", "change")):
            problems.append(f"{where}: commits need parent and change")
        if "src_sha256" in entry and set(entry["src_sha256"]) != {"parent", "change"}:
            problems.append(f"{where}: src_sha256 needs parent and change")
        if not isinstance(entry.get("machine"), dict) or not isinstance(entry.get("recorded"), str):
            problems.append(f"{where}: machine and recorded are required")
        claim = entry.get("claim", {})
        if not isinstance(claim.get("text"), str):
            problems.append(f"{where}: claim.text is required")
        if "holds" in claim and not (
            isinstance(claim["holds"], bool)
            and claim.get("metric") in entry.get("workloads", {}).get(claim.get("workload"), {}).get("metrics", {})
        ):
            problems.append(f"{where}: claim names no recorded metric")
        for name, wl in entry.get("workloads", {}).items():
            seeds = wl.get("seeds", [])
            if not seeds or len(set(seeds)) != len(seeds):
                problems.append(f"{where}.{name}: seeds must be non-empty and distinct")
            if set(wl.get("max_failed_frac", {})) != {"parent", "change"}:
                problems.append(f"{where}.{name}: max_failed_frac needs both sides")
            for key, st in wl.get("metrics", {}).items():
                at = f"{where}.{name}.{key}"
                if st.get("better") not in ("higher", "lower") or "unit" not in st:
                    problems.append(f"{at}: unit and better are required")
                for side in ("parent", "change"):
                    q = st.get(side, {})
                    if not q.get("q1", 1) <= q.get("median", 0) <= q.get("q3", -1):
                        problems.append(f"{at}: {side} needs q1 <= median <= q3")
                if st.get("pairs") != len(seeds) or st.get("pairs_won", -1) + st.get(
                    "pairs_lost", -1
                ) not in range(len(seeds) + 1):
                    problems.append(f"{at}: pair counts do not match the seeds")
        if not entry.get("workloads"):
            problems.append(f"{where}: no workloads")
    return problems


def append(ledger: Path, entry: dict) -> dict:
    """Append ``entry`` to the ledger file (created when missing)."""
    table = (
        json.loads(ledger.read_text())
        if ledger.exists()
        else {"schema_version": SCHEMA_VERSION, "entries": []}
    )
    table["entries"].append(entry)
    problems = validate(table)
    if problems:
        raise ValueError(f"{ledger}: " + "; ".join(problems))
    ledger.write_text(json.dumps(table, indent=1) + "\n")
    return table


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", nargs="+", required=True, help="saved parent runs")
    ap.add_argument("--change", nargs="+", required=True, help="saved change runs")
    ap.add_argument("--claim", required=True, help="the claim, in words")
    ap.add_argument("--claim-metric", help="WORKLOAD:METRIC the claim is about")
    ap.add_argument("--ledger", default=str(LEDGER), help="ledger file to append to")
    args = ap.parse_args(argv)
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    entry = build_entry(
        load_runs(args.parent), load_runs(args.change), metrics, args.claim, args.claim_metric
    )
    append(Path(args.ledger), entry)
    for name, wl in entry["workloads"].items():
        for key, st in wl["metrics"].items():
            print(
                f"{name:14s} {key:18s} parent {st['parent']['median']:.6g} "
                f"change {st['change']['median']:.6g} "
                f"won {st['pairs_won']}/{st['pairs']}"
            )
    if "holds" in entry["claim"]:
        print(f"claim {entry['claim']['metric']} on {entry['claim']['workload']}: "
              f"{'holds' if entry['claim']['holds'] else 'does not hold'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
