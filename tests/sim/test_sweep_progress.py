"""Progress-callback statistics and sweep telemetry in ``run_sweep``."""

from repro.obs import tracing
from repro.sim.config import SimulationConfig
from repro.sim._sweep import SweepProgress, run_sweep
from repro.store._runstore import RunStore


def tiny(seed=0, **kw):
    return SimulationConfig(
        n_agents=20, n_articles=5, training_steps=40, eval_steps=30, seed=seed, **kw
    )


class TestSweepProgressStats:
    def test_stats_passed_to_new_style_callback(self):
        seen = []

        def progress(done, total, index, result, cached, stats):
            seen.append(stats)

        run_sweep([tiny(1), tiny(2)], backend="serial", progress=progress)
        assert [s.done for s in seen] == [1, 2]
        assert all(s.total == 2 for s in seen)
        assert all(s.cached == 0 for s in seen)
        assert [s.computed for s in seen] == [1, 2]
        assert all(s.elapsed_s > 0 for s in seen)
        assert isinstance(seen[0], SweepProgress)

    def test_eta_drops_to_zero_at_completion(self):
        etas = []

        def progress(done, total, index, result, cached, stats):
            etas.append(stats.eta_s)

        run_sweep([tiny(1), tiny(2)], backend="serial", progress=progress)
        assert etas[0] is not None and etas[0] > 0
        assert etas[-1] == 0.0

    def test_cached_vs_computed_split(self, tmp_path):
        store = RunStore(tmp_path)
        run_sweep([tiny(1)], backend="serial", store=store)
        seen = []

        def progress(done, total, index, result, cached, stats):
            seen.append((cached, stats.cached, stats.computed))

        run_sweep(
            [tiny(1), tiny(2)], backend="serial", store=store, progress=progress
        )
        assert seen[0] == (True, 1, 0)  # store hit
        assert seen[1] == (False, 1, 1)  # fresh simulation

    def test_all_cached_sweep_reports_no_eta_until_done(self, tmp_path):
        store = RunStore(tmp_path)
        run_sweep([tiny(1), tiny(2)], backend="serial", store=store)
        etas = []

        def progress(done, total, index, result, cached, stats):
            etas.append(stats.eta_s)

        run_sweep(
            [tiny(1), tiny(2)], backend="serial", store=store, progress=progress
        )
        assert etas == [None, 0.0]


class TestSweepTelemetry:
    def test_slot_counters_and_task_spans(self, tmp_path):
        store = RunStore(tmp_path)
        run_sweep([tiny(1)], backend="serial", store=store)
        with tracing() as tracer:
            run_sweep([tiny(1), tiny(2)], backend="serial", store=store)
        snap = tracer.metrics.snapshot()
        slots = {
            entry["labels"]["outcome"]: entry["value"]
            for entry in snap["sweep_slots_total"]
        }
        assert slots == {"cached": 1.0, "computed": 1.0}
        task = tracer.spans()["sweep/task"]
        assert task.count == 1
        assert task.attrs["backend"] == "serial"
        (hist,) = snap["sweep_task_seconds"]
        assert hist["count"] == 1
        assert hist["sum"] > 0

    def test_untraced_sweep_records_nothing(self):
        from repro.obs import get_tracer

        run_sweep([tiny(3)], backend="serial")
        assert "sweep/task" not in get_tracer().spans()

    def test_pool_sweep_records_worker_gauge(self):
        # 3 compatible configs on 2 workers plan as 2 lane batches.
        with tracing() as tracer:
            run_sweep(
                [tiny(1), tiny(2), tiny(3)], backend="thread", workers=2
            )
        snap = tracer.metrics.snapshot()
        assert snap["sweep_workers"] == [{"type": "gauge", "value": 2.0}]
        assert tracer.spans()["sweep/task"].count == 2
        (wait,) = snap["sweep_queue_wait_seconds"]
        assert wait["count"] == 2
