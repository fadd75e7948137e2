"""Bench ADVERSARY: the cost of the adversary kernels.

An adversary-enabled run pays for the extra masking, share
renormalization and identity resets, but must stay within 2x of the
adversary-free engine at the same scale (the kernels are vectorized;
only the per-replicate sybil draws add per-step Python work).  The
collusion and sybil direction checks live in
``tests/sim/test_adversary.py``.
"""

import statistics
import time

from conftest import bench_config
from repro.sim.engine import CollaborationSimulation

ADVERSARY = dict(
    collusion_fraction=0.25,
    collusion_ring_size=4,
    sybil_fraction=0.2,
    sybil_rate=0.05,
)


def test_adversary_overhead_bounded(benchmark):
    # Median of back-to-back paired rounds in CPU time, like the engine
    # speedup bench: robust to shared-runner stalls a single wall-clock
    # sample would turn into flakes.
    base = bench_config(training_steps=150, eval_steps=100)
    adv = base.with_(**ADVERSARY)

    def paired_rounds(rounds=3):
        ratios = []
        for _ in range(rounds):
            t0 = time.process_time()
            CollaborationSimulation(base).run()
            t_base = time.process_time() - t0
            t0 = time.process_time()
            CollaborationSimulation(adv).run()
            t_adv = time.process_time() - t0
            ratios.append(t_adv / max(t_base, 1e-9))
        return ratios

    ratios = benchmark.pedantic(paired_rounds, rounds=1, iterations=1)
    ratio = statistics.median(ratios)
    benchmark.extra_info["overhead_ratio"] = ratio
    assert ratio <= 2.0
