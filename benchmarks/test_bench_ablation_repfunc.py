"""Ablation bench: reputation-function shape vs sharing (paper future work).

"Future work will investigate new and existing reputation functions in
order to maximize sharing of resources" — this bench regenerates the
comparison at bench scale across the function families.
"""

from conftest import bench_config
from repro.sim._sweep import run_sweep

FAMILIES = ("logistic", "linear", "power")


def run_families():
    configs = [
        bench_config(reputation_fn_s=f, seed=23) for f in FAMILIES
    ]
    results = run_sweep(configs, executor="process", workers=3)
    return {
        f: (r.summary["shared_files"], r.summary["shared_bandwidth"])
        for f, r in zip(FAMILIES, results)
    }


def test_ablation_reputation_function(benchmark):
    table = benchmark.pedantic(run_families, rounds=1, iterations=1)
    assert set(table) == set(FAMILIES)
    for files, bw in table.values():
        assert 0.0 <= files <= 1.0
        assert 0.0 <= bw <= 1.0
