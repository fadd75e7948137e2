"""End-to-end HTTP tests: real sockets, real store, real (tiny) compute.

Covers the acceptance criteria of the service PR: concurrent duplicate
submissions compute once while both clients complete, SSE delivers
progress while compute is still running, and a full queue answers with
backpressure instead of accepting the job.
"""

import asyncio
import threading

from repro.service import ServiceSettings, SimulationService
from repro.sim._sweep import run_sweep
from repro.store.hashing import config_hash
from repro.store._runstore import RunStore

from svc_helpers import http, make_tiny, sse_open, tiny_dict


def run(coro):
    return asyncio.run(coro)


def make_service(tmp_path, runner=None, **settings_kw):
    settings_kw.setdefault("port", 0)
    settings_kw.setdefault("workers", 2)
    store = RunStore(tmp_path / "runstore")
    service = SimulationService(
        store, ServiceSettings(**settings_kw), runner=runner
    )
    return store, service


class GatedRunner:
    """Real compute that pauses after the first config until released."""

    def __init__(self, store):
        self.store = store
        self.first_done = threading.Event()
        self.release = threading.Event()

    def __call__(self, configs, progress, on_failure):
        def paced(done, total, index, result, cached, stats):
            progress(done, total, index, result, cached, stats)
            if not self.first_done.is_set():
                self.first_done.set()
                assert self.release.wait(timeout=30), "gate never released"

        run_sweep(configs, backend="serial", store=self.store, progress=paced)


class TestEndpoints:
    def test_index_health_metrics_and_errors(self, tmp_path):
        async def body():
            _, svc = make_service(tmp_path)
            await svc.start()
            try:
                r = await http(svc.port, "GET", "/")
                assert r.status == 200
                assert "POST /jobs" in r.json()["endpoints"]

                r = await http(svc.port, "GET", "/healthz")
                assert r.status == 200
                health = r.json()
                assert health["status"] == "ok"
                assert health["queue_depth"] == 0

                r = await http(svc.port, "GET", "/metrics")
                assert r.status == 200
                assert r.headers["content-type"].startswith("text/plain")

                r = await http(svc.port, "GET", "/jobs/nope")
                assert r.status == 404
                r = await http(svc.port, "DELETE", "/jobs")
                assert r.status == 405
                r = await http(svc.port, "GET", "/no/such/thing")
                assert r.status == 404
            finally:
                await svc.stop()

        run(body())

    def test_submit_rejects_bad_bodies(self, tmp_path):
        async def body():
            _, svc = make_service(tmp_path)
            await svc.start()
            try:
                r = await http(svc.port, "POST", "/jobs")
                assert r.status == 400
                r = await http(svc.port, "POST", "/jobs", body={"x": 1})
                assert r.status == 400
                assert "exactly one" in r.json()["error"]
                r = await http(
                    svc.port, "POST", "/jobs", body={"scenario": "no/such"}
                )
                assert r.status == 400
            finally:
                await svc.stop()

        run(body())

    def test_submit_compute_status_and_resubmit_cached(self, tmp_path):
        async def body():
            store, svc = make_service(tmp_path)
            await svc.start()
            try:
                payload = {"configs": [tiny_dict(seed=s) for s in range(2)]}
                r = await http(svc.port, "POST", "/jobs", body=payload)
                assert r.status == 201
                job = r.json()
                assert r.headers["location"] == f"/jobs/{job['id']}"
                assert job["total"] == 2

                while True:
                    r = await http(svc.port, "GET", f"/jobs/{job['id']}")
                    view = r.json()
                    if view["state"] in ("completed", "failed"):
                        break
                    await asyncio.sleep(0.05)
                assert view["state"] == "completed"
                assert view["computed"] == 2
                assert len(view["results"]) == 2
                for entry in view["results"]:
                    assert entry["summary"], "per-config summary missing"
                assert len(store) == 2

                # The same grid again: served from cache, done on arrival.
                r = await http(svc.port, "POST", "/jobs", body=payload)
                assert r.status == 201
                assert r.json()["state"] == "completed"
                assert r.json()["cached"] == 2
                assert len(store) == 2

                cached_job_id = r.json()["id"]
                r = await http(svc.port, "GET", "/jobs")
                listing = r.json()
                assert listing["count"] == 2
                # Most recent first: the cached resubmission leads.
                assert listing["jobs"][0]["id"] == cached_job_id
                assert {j["id"] for j in listing["jobs"]} == {
                    job["id"], cached_job_id,
                }
            finally:
                await svc.stop()

        run(body())


class TestConcurrentDedup:
    def test_two_clients_same_scenario_compute_once(self, tmp_path):
        """The headline acceptance test: N concurrent duplicate clients,
        one computed run in the store, every client completed."""

        async def body():
            store, svc = make_service(tmp_path, workers=2)
            await svc.start()
            try:
                payload = {"configs": [tiny_dict(seed=s) for s in range(3)]}

                async def client():
                    r = await http(svc.port, "POST", "/jobs", body=payload)
                    assert r.status == 201
                    job_id = r.json()["id"]
                    while True:
                        r = await http(svc.port, "GET", f"/jobs/{job_id}")
                        view = r.json()
                        if view["state"] in ("completed", "failed"):
                            return view
                        await asyncio.sleep(0.02)

                views = await asyncio.gather(client(), client())
                for view in views:
                    assert view["state"] == "completed"
                    assert view["done"] == 3
                # Exactly one stored record per unique config — nothing
                # was computed twice, nothing is missing.
                assert len(store) == 3
                hashes = {
                    e["config_hash"] for v in views for e in v["results"]
                }
                assert hashes == set(store.iter_hashes())
                # The two jobs are distinct even though the work was shared.
                assert views[0]["id"] != views[1]["id"]
            finally:
                await svc.stop()

        run(body())


class TestSse:
    def test_progress_streams_during_compute(self, tmp_path):
        """A progress event must arrive while the job is still running."""

        async def body():
            store = RunStore(tmp_path / "runstore")
            runner = GatedRunner(store)
            svc = SimulationService(
                store,
                ServiceSettings(port=0, workers=1, batch_width=4),
                runner=runner,
            )
            await svc.start()
            try:
                payload = {"configs": [tiny_dict(seed=s) for s in range(2)]}
                r = await http(svc.port, "POST", "/jobs", body=payload)
                job_id = r.json()["id"]
                stream = await sse_open(svc.port, f"/jobs/{job_id}/events")
                seen = {}
                while "progress" not in seen:
                    ev = await stream.next_event(timeout=30)
                    seen[ev["event"]] = ev
                # The runner is gated after config 1 of 2: compute is
                # provably still in flight while this progress event is
                # already on the wire.
                r = await http(svc.port, "GET", f"/jobs/{job_id}")
                assert r.json()["state"] == "running"
                progress = seen["progress"]["data"]
                assert progress["done"] == 1 and progress["total"] == 2
                assert progress["source"] == "computed"
                assert progress["sweep"]["computed"] == 1

                runner.release.set()
                events = await stream.collect_until_terminal(timeout=30)
                kinds = [e["event"] for e in events]
                assert kinds[-1] == "completed"
                assert kinds.count("progress") == 2
                await stream.close()
                # Replay: a late subscriber sees the whole lifecycle.
                replay = await sse_open(svc.port, f"/jobs/{job_id}/events")
                replayed = await replay.collect_until_terminal(timeout=10)
                assert [e["event"] for e in replayed] == [
                    "queued", "started", "progress", "progress", "completed",
                ]
                assert [e["seq"] for e in replayed] == [1, 2, 3, 4, 5]
                await replay.close()
            finally:
                runner.release.set()
                await svc.stop()

        run(body())

    def test_events_for_unknown_job_404(self, tmp_path):
        async def body():
            _, svc = make_service(tmp_path)
            await svc.start()
            try:
                r = await http(svc.port, "GET", "/jobs/ghost/events")
                assert r.status == 404
            finally:
                await svc.stop()

        run(body())


class TestBackpressureHttp:
    def test_full_queue_answers_429_with_retry_after(self, tmp_path):
        async def body():
            store = RunStore(tmp_path / "runstore")
            hold = threading.Event()

            def blocking_runner(configs, progress, on_failure):
                assert hold.wait(timeout=30)
                run_sweep(
                    configs, backend="serial", store=store, progress=progress
                )

            svc = SimulationService(
                store,
                ServiceSettings(
                    port=0, workers=1, max_pending=1, batch_width=1
                ),
                runner=blocking_runner,
            )
            await svc.start()
            try:
                # First job occupies the lone worker; second fills the
                # one-slot queue; the third must be pushed back.
                r1 = await http(
                    svc.port, "POST", "/jobs",
                    body={"config": tiny_dict(seed=0)},
                )
                assert r1.status == 201
                while svc.manager.queue_depth != 0:
                    await asyncio.sleep(0.01)  # worker claimed job 1
                r2 = await http(
                    svc.port, "POST", "/jobs",
                    body={"config": tiny_dict(seed=1)},
                )
                assert r2.status == 201
                r3 = await http(
                    svc.port, "POST", "/jobs",
                    body={"config": tiny_dict(seed=2)},
                )
                assert r3.status == 429
                assert int(r3.headers["retry-after"]) >= 1
                assert "queue full" in r3.json()["error"]

                hold.set()
                # Backpressure is transient: the same submission goes
                # through once the queue drains.
                for _ in range(600):
                    r4 = await http(
                        svc.port, "POST", "/jobs",
                        body={"config": tiny_dict(seed=2)},
                    )
                    if r4.status == 201:
                        break
                    assert r4.status == 429
                    await asyncio.sleep(0.05)
                assert r4.status == 201
                text = (await http(svc.port, "GET", "/metrics")).body.decode()
                assert "service_backpressure_total" in text
            finally:
                hold.set()
                await svc.stop()

        run(body())


class TestShutdown:
    def test_stop_wakes_streams_and_health_reports_closing(self, tmp_path):
        async def body():
            store = RunStore(tmp_path / "runstore")
            # Pre-seed the store so a submitted job completes instantly,
            # then hold a stream on a *second*, never-completing job.
            cfg = make_tiny(seed=9)
            run_sweep([cfg], backend="serial", store=store)
            hold = threading.Event()

            def stuck_runner(configs, progress, on_failure):
                hold.wait(timeout=5)
                raise RuntimeError("never ran")

            svc = SimulationService(
                store,
                ServiceSettings(port=0, workers=1, shutdown_timeout_s=10),
                runner=stuck_runner,
            )
            await svc.start()
            r = await http(
                svc.port, "POST", "/jobs", body={"config": tiny_dict(seed=11)}
            )
            job_id = r.json()["id"]
            stream = await sse_open(svc.port, f"/jobs/{job_id}/events")
            stop_task = asyncio.create_task(svc.stop())
            hold.set()
            events = await stream.collect_until_terminal(timeout=15)
            assert events[-1]["event"] == "failed"
            await stream.close()
            await stop_task
            job = svc.manager.jobs[job_id]
            assert job.state == "failed"

        run(body())
