"""Bench FIG3: incentive vs no-incentive sharing (paper Figure 3).

Regenerates the paper's headline comparison at bench scale and checks the
direction: with incentives rational peers share more bandwidth and
articles than without.
"""

import numpy as np

from conftest import bench_config
from repro.sim._sweep import run_sweep


def run_fig3():
    configs = [
        bench_config(incentives_enabled=True, seed=101),
        bench_config(incentives_enabled=True, seed=202),
        bench_config(incentives_enabled=False, seed=101),
        bench_config(incentives_enabled=False, seed=202),
    ]
    return run_sweep(configs, executor="process", workers=4)


def test_fig3_incentive_effect(benchmark):
    results = benchmark.pedantic(run_fig3, rounds=1, iterations=1)
    inc_bw = np.mean([r.summary["shared_bandwidth"] for r in results[:2]])
    base_bw = np.mean([r.summary["shared_bandwidth"] for r in results[2:]])
    inc_f = np.mean([r.summary["shared_files"] for r in results[:2]])
    base_f = np.mean([r.summary["shared_files"] for r in results[2:]])
    assert inc_bw > base_bw, "incentives must raise bandwidth sharing"
    assert inc_f > base_f, "incentives must raise article sharing"
