"""The scale path's memory gates: capped tit-for-tat stays O(N).

Peak traced allocation of a capped tit-for-tat run must grow
**sub-quadratically** in the population (doubling N must cost well
under the 4x a dense history matrix would), and must stay a small
fraction of the dense equivalent.  Each peak comes from
:func:`_peak_bytes`, the one measurement recipe over the canonical
``scale_config`` workload (tit-for-tat, ledger cap 64, 5 steps).

Sizes default small enough for tier-1; the nightly ``scale-smoke`` CI
job re-runs this file with ``SCALE_BENCH_AGENTS=10000`` to exercise a
genuinely large population (see .github/workflows/ci.yml).
"""

import os
import tracemalloc

import numpy as np

from repro.sim.engine import CollaborationSimulation
from repro.sim.scenarios import scale_config

#: Population for the large size; the growth test pairs it with half.
SCALE_AGENTS = int(os.environ.get("SCALE_BENCH_AGENTS", "3000"))
SCALE_STEPS = 5


def _scale_config(n_agents, **overrides):
    """The canonical scale workload at a 5-step horizon."""
    defaults = dict(
        training_steps=SCALE_STEPS, eval_steps=1, scheme="tft", seed=4
    )
    defaults.update(overrides)
    return scale_config(n_agents, **defaults)


def _peak_bytes(n_agents) -> int:
    """Traced allocation peak of a short tft scale run.

    numpy routes its buffers through the traced allocator, so the peak
    covers the whole engine state, ledger included.
    """
    tracemalloc.start()
    try:
        sim = CollaborationSimulation(_scale_config(n_agents))
        for _ in range(SCALE_STEPS):
            sim.step(float("inf"))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sparse_peak_memory_grows_subquadratically():
    """Doubling the population must not quadruple peak memory.

    A dense (N, N) history quadruples; the sparse path's state is O(N),
    so the observed ratio should sit near 2.  The 3x bound leaves head
    room for allocator noise while still failing any reintroduced
    quadratic structure.
    """
    small = _peak_bytes(SCALE_AGENTS // 2)
    large = _peak_bytes(SCALE_AGENTS)
    ratio = large / small
    print(f"peak({SCALE_AGENTS // 2})={small / 1e6:.1f}MB "
          f"peak({SCALE_AGENTS})={large / 1e6:.1f}MB ratio={ratio:.2f}x")
    assert ratio < 3.0, (
        f"peak memory grew {ratio:.2f}x for 2x agents — the scale path "
        "has regressed toward O(N^2)"
    )


def test_sparse_peak_memory_beats_dense_equivalent():
    """The whole sparse run must cost a sliver of the dense matrix alone."""
    dense_bytes = SCALE_AGENTS * SCALE_AGENTS * 8
    peak = _peak_bytes(SCALE_AGENTS)
    assert peak < 0.25 * dense_bytes, (
        f"sparse-path peak {peak / 1e6:.1f}MB is not under 25% of the "
        f"{dense_bytes / 1e6:.1f}MB dense history equivalent"
    )


def test_sparse_ledger_state_is_linear():
    """Resident ledger bytes scale with N * cap, not N * N."""
    sim = CollaborationSimulation(_scale_config(SCALE_AGENTS))
    ledger = sim.scheme._ledger
    assert ledger.nbytes <= SCALE_AGENTS * 64 * 17  # 16B/entry + counts


def test_bench_scale_step():
    """A large-N sparse run keeps stepping with per-peer state of width N."""
    sim = CollaborationSimulation(_scale_config(SCALE_AGENTS, training_steps=20))
    for _ in range(4):
        sim.step(float("inf"))
    offered = np.asarray(sim.peers.offered_bandwidth)
    assert offered.shape == (SCALE_AGENTS,)
