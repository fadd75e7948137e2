"""Tests for the parallel sweep runner."""

import numpy as np
import pytest

from repro.sim.config import SimulationConfig
from repro.sim.engine import replicate_configs
from repro.sim._sweep import available_workers, run_sweep


def tiny(seed=0, **kw):
    return SimulationConfig(
        n_agents=20, n_articles=5, training_steps=40, eval_steps=30, seed=seed, **kw
    )


class TestRunSweep:
    def test_empty(self):
        assert run_sweep([]) == []

    def test_serial(self):
        results = run_sweep([tiny(1), tiny(2)], executor="serial")
        assert len(results) == 2
        assert results[0].config.seed == 1

    def test_results_align_with_inputs(self):
        configs = [tiny(s) for s in (5, 6, 7)]
        results = run_sweep(configs, executor="serial")
        assert [r.config.seed for r in results] == [5, 6, 7]

    def test_thread_backend_matches_serial(self):
        from tests.conftest import assert_summaries_equal

        configs = [tiny(1), tiny(2)]
        serial = run_sweep(configs, executor="serial")
        threaded = run_sweep(configs, executor="thread", workers=2)
        for a, b in zip(serial, threaded):
            assert_summaries_equal(a.summary, b.summary)

    def test_process_backend_matches_serial(self):
        from tests.conftest import assert_summaries_equal

        configs = [tiny(1), tiny(2)]
        serial = run_sweep(configs, executor="serial")
        procs = run_sweep(configs, executor="process", workers=2)
        for a, b in zip(serial, procs):
            assert_summaries_equal(a.summary, b.summary)

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            run_sweep([tiny(), tiny()], executor="gpu")

    def test_single_config_short_circuits(self):
        results = run_sweep([tiny()], executor="process")
        assert len(results) == 1


class TestReplicate:
    def test_replicate_spawns_distinct_seeds(self):
        configs = replicate_configs(tiny(3), 4)
        seeds = [c.seed for c in configs]
        assert len(set(seeds)) == 4

    def test_replicate_deterministic(self):
        a = [c.seed for c in replicate_configs(tiny(3), 3)]
        b = [c.seed for c in replicate_configs(tiny(3), 3)]
        assert a == b

    def test_replicate_keeps_other_fields(self):
        cfg = tiny(3, incentives_enabled=False)
        for c in replicate_configs(cfg, 2):
            assert not c.incentives_enabled

    def test_validation(self):
        with pytest.raises(ValueError):
            replicate_configs(tiny(), 0)


def test_available_workers_positive():
    assert available_workers() >= 1
