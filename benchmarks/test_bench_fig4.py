"""Bench FIG4: network-wide sharing vs population mix (paper Figure 4).

Three points per curve at bench scale; asserts the paper's shape —
sharing rises with the altruistic share and falls with the irrational
share.
"""

from conftest import bench_config
from repro.agents.population import mixture_sweep
from repro.sim._sweep import run_sweep


def run_fig4():
    pcts = [20, 50, 80]
    out = {}
    for vary in ("altruistic", "irrational"):
        configs = [
            bench_config(mix=mix, seed=7)
            for mix in mixture_sweep(vary, pcts)
        ]
        results = run_sweep(configs, executor="process", workers=3)
        out[vary] = [r.summary["shared_files"] for r in results]
    return out


def test_fig4_population_mix(benchmark):
    series = benchmark.pedantic(run_fig4, rounds=1, iterations=1)
    alt = series["altruistic"]
    irr = series["irrational"]
    assert alt[-1] > alt[0], "sharing must rise with altruistic share"
    assert irr[-1] < irr[0], "sharing must fall with irrational share"
