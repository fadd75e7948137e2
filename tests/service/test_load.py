"""Concurrent-client load test: dedup correctness under real traffic.

N async clients hammer one service with overlapping config grids drawn
from a small pool of unique configs.  The invariants under load are the
whole point of the service layer:

* every unique config is computed exactly once (store record count and
  the ``service_configs_total{source="computed"}`` counter agree);
* every client's every job reaches ``completed``, including the ones
  that were initially pushed back — a 429 means retry, never data loss;
* the queue bound holds: pending depth never exceeds ``max_pending``.

The per-PR run keeps the client count small (the tier-1 suite must stay
fast); the nightly lane re-runs it with ``SERVICE_LOAD_CLIENTS=24`` the
same way the scale memory tests re-run with ``SCALE_BENCH_AGENTS``.
"""

import asyncio
import os
import random

from svc_helpers import http, tiny_dict

from repro.service import ServiceSettings, SimulationService
from repro.store._runstore import RunStore

N_CLIENTS = int(os.environ.get("SERVICE_LOAD_CLIENTS", "6"))
N_UNIQUE = int(os.environ.get("SERVICE_LOAD_UNIQUE", "10"))
JOBS_PER_CLIENT = int(os.environ.get("SERVICE_LOAD_JOBS", "3"))


def test_overlapping_grids_compute_each_config_once(tmp_path):
    async def body():
        store = RunStore(tmp_path / "runstore")
        svc = SimulationService(
            store,
            ServiceSettings(port=0, workers=2, max_pending=8, batch_width=4),
        )
        await svc.start()
        pool = [tiny_dict(seed=s) for s in range(N_UNIQUE)]
        stats = {"submitted": 0, "backpressured": 0, "max_depth": 0}

        async def submit_with_retry(rng):
            grid = rng.sample(pool, k=rng.randint(2, min(6, N_UNIQUE)))
            while True:
                r = await http(svc.port, "POST", "/jobs", body={"configs": grid})
                if r.status == 201:
                    stats["submitted"] += 1
                    return r.json()["id"], len(grid)
                assert r.status == 429, r.body
                stats["backpressured"] += 1
                retry_after = int(r.headers["retry-after"])
                assert retry_after >= 1
                await asyncio.sleep(min(retry_after, 0.05))

        async def poll_to_completion(job_id, n_configs):
            while True:
                r = await http(svc.port, "GET", f"/jobs/{job_id}")
                view = r.json()
                stats["max_depth"] = max(
                    stats["max_depth"], svc.manager.queue_depth
                )
                if view["state"] in ("completed", "failed"):
                    return view
                await asyncio.sleep(0.02)

        async def client(cid):
            rng = random.Random(1000 + cid)
            views = []
            for _ in range(JOBS_PER_CLIENT):
                job_id, n = await submit_with_retry(rng)
                view = await poll_to_completion(job_id, n)
                views.append(view)
            return views

        try:
            per_client = await asyncio.gather(
                *(client(c) for c in range(N_CLIENTS))
            )
        finally:
            await svc.stop()

        all_views = [v for views in per_client for v in views]
        assert len(all_views) == N_CLIENTS * JOBS_PER_CLIENT
        assert all(v["state"] == "completed" for v in all_views)
        for view in all_views:
            assert view["done"] == view["total"]
            assert all(e["summary"] for e in view["results"])

        # Exactly-once compute: one store record per touched config, and
        # the computed counter agrees (nothing ran twice and was merely
        # deduplicated at persistence time).
        touched = {
            e["config_hash"] for v in all_views for e in v["results"]
        }
        assert set(store.iter_hashes()) == touched
        snap = svc.metrics.snapshot()
        computed = sum(
            entry["value"]
            for entry in snap["service_configs_total"]
            if entry["labels"]["source"] == "computed"
        )
        assert computed == len(touched)
        assert stats["max_depth"] <= svc.manager.max_pending

    asyncio.run(body())
