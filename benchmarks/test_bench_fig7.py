"""Bench FIG7: rational agents follow the majority (paper Figure 7).

One high-altruistic and one high-irrational point; asserts the takeover
direction in both panels.
"""

from conftest import bench_config
from repro.agents.population import PopulationMix
from repro.sim._sweep import run_sweep


SEEDS = (5, 23)


def run_fig7():
    configs = [
        bench_config(
            mix=PopulationMix(0.15, 0.70, 0.15),
            enforce_edit_threshold=False,
            seed=s,
        )
        for s in SEEDS
    ] + [
        bench_config(
            mix=PopulationMix(0.15, 0.15, 0.70),
            enforce_edit_threshold=False,
            seed=s,
        )
        for s in SEEDS
    ]
    results = run_sweep(configs, executor="process", workers=4)
    fracs = [r.summary["edit_constructive_fraction_rational"] for r in results]
    k = len(SEEDS)
    return sum(fracs[:k]) / k, sum(fracs[k:]) / k


def test_fig7_majority_following(benchmark):
    high_alt, high_irr = benchmark.pedantic(run_fig7, rounds=1, iterations=1)
    assert high_alt > 0.55, "altruistic majority must pull rational agents up"
    assert high_irr < 0.45, "irrational majority must pull rational agents down"
    assert high_alt > high_irr + 0.2
