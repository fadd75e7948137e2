"""service-mixed: two closed-loop clients driving a ``repro serve`` process.

The traffic has the shape of the repository's own service load test
(``tests/service/test_load.py``): every job is a grid of 2 to 6 configs
sampled from a shared pool of 10 unique configs, and the pool receives
18 jobs.  Here the 18 jobs come from the 2 clients, 9 each, and the
shape repeats in rounds, each over a fresh pool drawn from the workload
seed.  Both clients start a round together, as the load test's clients
start together on one pool.  Nothing fixes the mix of job kinds: a job
whose configs have all landed is a store hit and comes back
``completed`` in the POST answer, a config the other client's job is
computing is joined in flight, and the rest are computed fresh.  The
server's answers say which happened.  Every timestamp here is taken on
the client side, from the HTTP answers and the SSE stream.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import subprocess
import threading
import time

# Pool configs are small (~0.09 s of engine work each), so HTTP, hashing,
# dedup and store lookups are a visible share of latency, yet a config is
# in flight long enough for the other client to join it.
SERVICE_OVERRIDES = {"n_agents": 30, "n_articles": 8, "training_steps": 60, "eval_steps": 20}
CLIENTS = 2
# The load test's shape: pool size, grid sizes, and jobs per pool (6
# clients x 3 jobs there, 2 clients x 9 jobs here).
POOL_SIZE = 10
GRID_SIZES = (2, 6)
JOBS_PER_ROUND = 9  # per client
ROUNDS_PER_SECOND = 0.7
HTTP_TIMEOUT_S = 60.0
# A job not finished this long after its POST counts as timed out; SSE
# keep-alives arrive every 15 s, so the stream is checked at least that often.
JOB_TIMEOUT_S = 60.0
TERMINAL = ("completed", "partial", "failed")


def build_schedule(seed: int, seconds: int):
    """Per-client, per-round job grids (indices into the configs) and the configs."""
    import repro.api as api

    base = api.compose("base/default", n_seeds=1)[0].with_(**SERVICE_OVERRIDES)
    rng = random.Random(seed)
    seeds = rng.sample(range(2**32), POOL_SIZE * max(2, round(seconds * ROUNDS_PER_SECOND)))
    configs = [base.with_(seed=s) for s in seeds]
    plans: list[list[list[tuple[int, ...]]]] = [[] for _ in range(CLIENTS)]
    for start in range(0, len(configs), POOL_SIZE):
        pool = range(start, start + POOL_SIZE)
        for plan in plans:
            plan.append([
                tuple(rng.sample(pool, rng.randint(*GRID_SIZES))) for _ in range(JOBS_PER_ROUND)
            ])
    return plans, configs


# -- the server process -------------------------------------------------
def start_server(cmd: list[str], env: dict, cwd: str):
    """Spawn a server; return ``(proc, port, setup_s)`` once /healthz answers 200.

    A server that does not get there within 60 s is killed, and the
    RuntimeError raised carries the end of its stderr.
    """
    t0 = time.monotonic()
    proc = subprocess.Popen(
        cmd, env=env, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    line = proc.stdout.readline()
    why = f"server did not start: {line.strip()!r}"
    if "listening on http://" in line:
        port = int(line.split("listening on http://", 1)[1].split()[0].rsplit(":", 1)[1])
        why = "server never answered /healthz with 200"
        while time.monotonic() < t0 + 60.0 and proc.poll() is None:
            try:
                status, _ = request(port, "GET", "/healthz", timeout=5.0)
            except OSError:
                status = None
            if status == 200:
                return proc, port, time.monotonic() - t0
            time.sleep(0.005)
    proc.kill()
    _, err = proc.communicate()
    raise RuntimeError(f"{why}; stderr: {err.strip()[-500:]}")


def stop_server(proc, timeout_s: float = 60.0) -> float:
    """SIGTERM, reap, and return the server's peak RSS in MiB.

    The process is reaped with ``wait4`` (never ``Popen.poll``, which
    would reap it first and lose its resource usage).
    """
    pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
    if not pid:
        os.kill(proc.pid, signal.SIGTERM)
        deadline = time.monotonic() + timeout_s
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                os.kill(proc.pid, signal.SIGKILL)
                _, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)
    for stream in (proc.stdout, proc.stderr):
        if stream is not None:
            stream.close()
    return usage.ru_maxrss / 1024.0


# -- HTTP and SSE -------------------------------------------------------
def request(port: int, method: str, path: str, body: bytes | None = None, timeout=HTTP_TIMEOUT_S):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def run_job(port: int, grid: tuple[int, ...], payload: bytes) -> dict:
    """Submit one job and follow it to its terminal event.

    The record's ``kind`` is what the server made of the job: ``hit``
    when it came back finished in the POST answer, ``join`` when it
    joined at least one config in flight, ``fresh`` otherwise.
    """
    rec: dict = {"grid": grid, "t_post": time.monotonic()}
    try:
        status, body = request(port, "POST", "/jobs", payload)
    except OSError as exc:
        rec["error"] = f"POST failed: {exc}"
        return rec
    rec["t_resp"] = time.monotonic()
    rec["status"] = status
    if status != 201:
        rec["error"] = f"HTTP {status}: {body[:200]!r}"
        return rec
    view = json.loads(body)
    rec.update(job_id=view["id"], state=view["state"], total=view["total"], cached=view["cached"])
    if view["state"] in TERMINAL:
        rec.update(kind="hit", t_done=rec["t_resp"], queued=0, joined=0)
        return rec
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=HTTP_TIMEOUT_S)
    try:
        conn.request("GET", f"/jobs/{view['id']}/events")
        resp = conn.getresponse()
        event = None
        while "t_done" not in rec:
            if time.monotonic() - rec["t_post"] > JOB_TIMEOUT_S:
                rec["error"] = f"timed out after {JOB_TIMEOUT_S:.0f} s"
                break
            line = resp.readline()
            if not line:
                rec["error"] = "SSE stream closed before a terminal event"
                break
            text = line.decode("utf-8").rstrip("\r\n")
            if text.startswith("event:"):
                event = text[6:].strip()
            elif text.startswith("data:"):
                now = time.monotonic()
                data = json.loads(text[5:])
                if event == "queued":
                    rec["queued"], rec["joined"] = data["queued"], data["inflight"]
                    rec["kind"] = "join" if data["inflight"] else "fresh"
                elif event == "started":
                    rec.setdefault("t_started", now)
                elif event in ("completed", "failed"):
                    rec["t_done"] = now
                    rec["state"] = data.get("state", event)
    except OSError as exc:
        rec["error"] = f"SSE failed: {exc}"
    finally:
        conn.close()
    if "t_done" in rec and "kind" not in rec:
        rec["error"] = "the job's stream had no queued event"
    return rec


def dump_client_spans(records: list[dict], run_id: str, path) -> None:
    """Client spans of every job, sharing its job id: the whole job, the
    POST round trip, the wait for ``started`` and the run to the terminal event."""
    lines = ["run_id job_id name start_s end_s"]
    for rec in records:
        if "t_done" not in rec:
            continue
        started = rec.get("t_started", rec["t_done"])
        for name, t0, t1 in (
            ("client/job", rec["t_post"], rec["t_done"]),
            ("client/submit", rec["t_post"], rec["t_resp"]),
            ("client/queue", rec["t_resp"], max(rec["t_resp"], started)),
            ("client/run", max(rec["t_resp"], started), rec["t_done"]),
        ):
            lines.append(f"{run_id} {rec['job_id']} {name} {t0:.9f} {t1:.9f}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def drive(port: int, plans, config_dicts: list[dict]) -> tuple[list[dict], float]:
    """Run every client's plan concurrently; ``(job records, wall seconds)``.

    The clients wait for each other at the start of every round.  The
    first failed job stops both, so a broken service ends the run in
    about one job timeout instead of one per remaining job.
    """
    barrier = threading.Barrier(len(plans), timeout=JOB_TIMEOUT_S * 2)
    stop = threading.Event()
    records: list[list[dict]] = [[] for _ in plans]

    def client(c: int) -> None:
        for jobs in plans[c]:
            try:
                barrier.wait()
            except threading.BrokenBarrierError:
                return
            for grid in jobs:
                if stop.is_set():
                    return
                payload = json.dumps({"configs": [config_dicts[i] for i in grid]}).encode()
                try:
                    rec = run_job(port, grid, payload)
                except Exception as exc:  # noqa: BLE001 - a malformed answer fails the job
                    rec = {"grid": grid, "error": f"{type(exc).__name__}: {exc}"}
                records[c].append(rec)
                if "error" in rec:
                    stop.set()
                    barrier.abort()

    threads = [threading.Thread(target=client, args=(c,)) for c in range(len(plans))]
    t0 = time.monotonic()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return [r for recs in records for r in recs], time.monotonic() - t0
