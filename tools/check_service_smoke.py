#!/usr/bin/env python
"""End-to-end smoke of the simulation service: serve, submit, stream.

Usage::

    python tools/check_service_smoke.py [STORE_DIR]

Starts ``repro serve`` as a real subprocess on an ephemeral port, then
drives the full client lifecycle over actual sockets:

* ``/healthz`` answers ok;
* a scenario submission is accepted and computes to completion;
* the SSE stream replays the whole lifecycle (queued -> ... ->
  completed) with contiguous event ids;
* resubmitting the same scenario is served entirely from cache with no
  new store records (the dedup contract);
* a fresh grid of structurally compatible configs (computed as one lane
  batch by a service worker) returns, for every config, exactly the
  summary an in-process ``repro.api.run`` of the stored config gives;
* two malformed submissions (a config dict with a misspelled nested key,
  a scenario override with an integral float in an int field) get a 400
  and leave no store record, job or queued unit behind;
* ``/metrics`` exposes the service counters;
* SIGTERM shuts the server down gracefully (exit code 0).

Exits non-zero with a diagnostic on any violation.  Used by the CI
service smoke step; handy locally as a one-shot install check.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
REPO_SRC = REPO_ROOT / "src"
sys.path.insert(0, str(REPO_SRC))

import repro.api as api  # noqa: E402
from repro.store._runstore import RunStore  # noqa: E402
from repro.store.hashing import canonical_config_dict, config_from_dict  # noqa: E402

SCENARIO = "base/default"
STARTUP_TIMEOUT_S = 30.0
COMPLETE_TIMEOUT_S = 180.0
#: A fresh grid of structurally compatible configs (they differ only in
#: non-structural knobs), so one service worker runs it as a lane batch.
LANE_GRID = [
    api.SimulationConfig(
        n_agents=12, n_articles=3, founders_per_article=2,
        training_steps=40, eval_steps=20, seed=seed, **knobs,
    )
    for seed, knobs in (
        (101, {}),
        (102, {"t_eval": 0.5}),
        (103, {"download_probability": 0.6}),
        (104, {"edit_attempt_prob": 0.15}),
    )
]


#: Submissions that would hash as valid configs (the misspelled key
#: dropped, 100.0 canonicalized to 100) but do not say what they mean or
#: cannot run: the service must answer 400 and enqueue nothing.
_TYPO = canonical_config_dict(LANE_GRID[0])
_TYPO["constants"]["service"]["edit_treshold"] = 0.5
MALFORMED = [
    {"config": _TYPO},
    {"scenario": SCENARIO, "fast": True, "overrides": {"n_agents": 100.0}},
]


def _same_summary(a: dict, b: dict) -> bool:
    """Exact equality, NaN matching NaN (absent behaviour types)."""
    return a.keys() == b.keys() and all(
        a[k] == b[k] or (a[k] != a[k] and b[k] != b[k]) for k in a
    )


def _request(base: str, method: str, path: str, body: dict | None = None):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(base + path, method=method, data=data)
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:  # error statuses still carry JSON
        return exc.code, json.loads(exc.read())


def _wait_finished(base: str, job: dict) -> dict:
    """Poll a job until it reaches a terminal state (or time runs out)."""
    deadline = time.monotonic() + COMPLETE_TIMEOUT_S
    view = job
    while time.monotonic() < deadline and view.get("state") not in (
        "completed", "partial", "failed",
    ):
        time.sleep(0.25)
        _, view = _request(base, "GET", f"/jobs/{job.get('id', '')}")
    return view


def _read_sse_events(base: str, path: str, max_events: int = 50) -> list[dict]:
    """Read SSE events until the terminal one (the replay covers it)."""
    events: list[dict] = []
    with urllib.request.urlopen(base + path, timeout=30) as resp:
        fields: dict = {}
        for raw in resp:
            line = raw.decode("utf-8").rstrip("\n")
            if not line:
                if fields:
                    events.append(
                        {
                            "seq": int(fields.get("id", 0)),
                            "event": fields.get("event", ""),
                            "data": json.loads(fields.get("data", "null")),
                        }
                    )
                    fields = {}
                    if events[-1]["event"] in ("completed", "failed"):
                        break
                    if len(events) >= max_events:
                        break
                continue
            if line.startswith(":"):
                continue
            name, _, value = line.partition(":")
            fields[name] = value.lstrip(" ")
    return events


def main(argv: list[str]) -> int:
    """Run the smoke; ``argv`` is ``[store_dir?]``."""
    store_dir = (
        Path(argv[0]) if argv else Path("service-smoke-store")
    ).resolve()
    failures: list[str] = []

    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.store.cli", "serve",
            "--host", "127.0.0.1", "--port", "0",
            "--store", str(store_dir), "--workers", "2",
        ],
        env={**os.environ, "PYTHONPATH": str(REPO_SRC)},
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    base = None
    try:
        # The serve banner names the bound (ephemeral) port.
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        banner = ""
        while time.monotonic() < deadline:
            banner = proc.stdout.readline()
            match = re.search(r"http://127\.0\.0\.1:(\d+)", banner)
            if match:
                base = f"http://127.0.0.1:{match.group(1)}"
                break
            if proc.poll() is not None:
                break
        if base is None:
            print(f"FAIL: server never announced a port (last: {banner!r})")
            return 1
        # Wait until the socket actually accepts.
        port = int(base.rsplit(":", 1)[1])
        while time.monotonic() < deadline:
            try:
                socket.create_connection(("127.0.0.1", port), 1).close()
                break
            except OSError:
                time.sleep(0.1)

        status, health = _request(base, "GET", "/healthz")
        if status != 200 or health.get("status") != "ok":
            failures.append(f"healthz: {status} {health}")

        status, job = _request(
            base, "POST", "/jobs",
            body={"scenario": SCENARIO, "fast": True, "seeds": 1},
        )
        if status != 201:
            failures.append(f"submit: expected 201, got {status} {job}")
        job_id = job.get("id", "")

        view = _wait_finished(base, job)
        if view.get("state") != "completed":
            failures.append(f"job never completed: {view}")

        events = _read_sse_events(base, f"/jobs/{job_id}/events")
        kinds = [e["event"] for e in events]
        if not events or kinds[-1] != "completed":
            failures.append(f"SSE stream did not end in 'completed': {kinds}")
        if "progress" not in kinds:
            failures.append(f"SSE stream carried no progress events: {kinds}")
        seqs = [e["seq"] for e in events]
        if seqs != list(range(1, len(seqs) + 1)):
            failures.append(f"SSE event ids not contiguous from 1: {seqs}")

        store = RunStore(store_dir)
        if len(store) != view.get("total"):
            failures.append(
                f"store has {len(store)} records, job computed "
                f"{view.get('total')} configs"
            )

        status, again = _request(
            base, "POST", "/jobs",
            body={"scenario": SCENARIO, "fast": True, "seeds": 1},
        )
        if status != 201 or again.get("state") != "completed":
            failures.append(f"cached resubmit not instant: {status} {again}")
        elif again.get("cached") != again.get("total"):
            failures.append(f"cached resubmit recomputed: {again}")
        store.refresh()
        if len(store) != view.get("total"):
            failures.append("cached resubmit grew the store")

        status, grid_job = _request(
            base, "POST", "/jobs",
            body={"configs": [canonical_config_dict(c) for c in LANE_GRID]},
        )
        if status != 201:
            failures.append(f"grid submit: expected 201, got {status} {grid_job}")
        grid_view = _wait_finished(base, grid_job)
        if grid_view.get("state") != "completed":
            failures.append(f"grid job never completed: {grid_view}")
        elif grid_view.get("computed") != len(LANE_GRID):
            failures.append(f"grid job was not computed fresh: {grid_view}")
        if len(grid_view.get("results", [])) != len(LANE_GRID):
            failures.append(f"grid job view lacks per-config results: {grid_view}")
        store.refresh()
        for row in grid_view.get("results", []):
            rec = store.get_record(row["config_hash"])
            if rec is None or rec.config is None:
                failures.append(f"grid config {row['config_hash'][:12]} not stored")
                continue
            solo = api.run(config_from_dict(rec.config)).summary
            if not _same_summary(row.get("summary") or {}, solo):
                failures.append(
                    f"grid config {row['config_hash'][:12]}: service summary "
                    f"differs from an in-process run"
                )

        _, before = _request(base, "GET", "/healthz")
        for i, body in enumerate(MALFORMED):
            status, reply = _request(base, "POST", "/jobs", body=body)
            if status != 400:
                failures.append(f"malformed submit #{i}: expected 400, got {status} {reply}")
        _, after = _request(base, "GET", "/healthz")
        for key in ("jobs", "queue_depth", "inflight_units"):
            if after.get(key) != before.get(key):
                failures.append(
                    f"malformed submits moved {key}: {before.get(key)} -> {after.get(key)}"
                )
        records = len(store)
        store.refresh()
        if len(store) != records:
            failures.append("malformed submits grew the store")

        status, _ = _request(base, "GET", "/jobs")
        if status != 200:
            failures.append(f"list jobs: {status}")

        req = urllib.request.Request(base + "/metrics")
        with urllib.request.urlopen(req, timeout=30) as resp:
            metrics_text = resp.read().decode()
        for needle in (
            "service_requests_total",
            "service_jobs_total",
            "service_configs_total",
        ):
            if needle not in metrics_text:
                failures.append(f"/metrics missing {needle}")
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                failures.append("server did not exit within 60s of SIGTERM")
    if proc.returncode != 0:
        failures.append(f"server exit code {proc.returncode}")

    if failures:
        print("FAIL: service smoke violations:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(
        f"OK: served {SCENARIO} ({view.get('total')} configs), "
        f"{len(events)} SSE events, cache-hit resubmit, "
        f"{len(LANE_GRID)}-config lane grid == in-process runs, "
        f"{len(MALFORMED)} malformed submits rejected, clean shutdown"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
