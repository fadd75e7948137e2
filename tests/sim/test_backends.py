"""The kernel seam: every kernel call goes through the one kernel instance.

Profilers observe the kernels by wrapping the methods of
``get_backend("numpy")`` as instance attributes.  That only sees every
call if every call site looks its kernel up on that instance at call
time — so this suite wraps all eight kernels the same way, runs the
engine solo and lane-batched, and checks that each kernel was reached
and that the wrapped runs are bit-identical to unwrapped ones.  Pickled
states (snapshots, process-pool payloads) must come back holding the
same instance, not a copy.
"""

import contextlib
import pickle
from collections import Counter

import pytest

from repro.sim._sweep import plan_lane_batches, run_sweep
from repro.sim.backends import KERNELS, NumpyKernels, get_backend
from repro.sim.config import ScaleConfig, SimulationConfig
from repro.sim.engine import CollaborationSimulation
from repro.sim.phases import step_state
from repro.sim.state import build_sim_state
from repro.sim.testing import compare_fingerprints, state_fingerprint
from tests.conftest import assert_summaries_equal

KERNEL_NAMES = (
    "grouped_shares",
    "match_sources",
    "settle_downloads",
    "filter_vote_candidates",
    "tally_votes",
    "ledger_lookup",
    "ledger_add",
    "q_update",
)

#: Churn with whitewashing plus both adversary kernels.
ADVERSARIES = dict(
    leave_rate=0.05, join_rate=0.3, whitewash_rate=0.02,
    collusion_fraction=0.25, sybil_fraction=0.125, sybil_rate=0.1,
)


def _config(**overrides) -> SimulationConfig:
    return SimulationConfig(
        n_agents=16, n_articles=4, founders_per_article=2,
        training_steps=30, eval_steps=20, **ADVERSARIES, **overrides,
    )


#: name -> (config, kernels its runs must reach)
CASES = {
    "dense-reputation": (
        _config(scheme="reputation", seed=3),
        set(KERNEL_NAMES) - {"ledger_lookup", "ledger_add"},
    ),
    "sparse-tft": (
        _config(
            scheme="tft", seed=4,
            scale=ScaleConfig(sparse=True, ledger_cap=4, chunk_size=5),
        ),
        set(KERNEL_NAMES),
    ),
}


@contextlib.contextmanager
def wrapped_kernels():
    """Wrap every kernel as an instance attribute; yield the call counts."""
    kernels = get_backend("numpy")
    calls: Counter = Counter()

    def wrap(name, method):
        def counted(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)

        return counted

    for name in KERNEL_NAMES:
        setattr(kernels, name, wrap(name, getattr(kernels, name)))
    try:
        yield calls
    finally:
        for name in KERNEL_NAMES:
            delattr(kernels, name)


def run_solo(cfg: SimulationConfig) -> dict:
    sim = CollaborationSimulation(cfg)
    sim.run()
    return state_fingerprint(sim.state)


def run_two_lanes(cfg: SimulationConfig) -> list:
    grid = [cfg, cfg.with_(seed=cfg.seed + 100)]
    return run_sweep(grid, backend="serial")


class TestKernelSeam:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_solo_run_reaches_every_kernel_unchanged(self, case):
        cfg, expected = CASES[case]
        plain = run_solo(cfg)
        with wrapped_kernels() as calls:
            wrapped = run_solo(cfg)
        assert set(calls) == expected
        assert compare_fingerprints(plain, wrapped) == []

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_two_lane_sweep_reaches_every_kernel_unchanged(self, case):
        cfg, expected = CASES[case]
        pending = [(cfg, [0]), (cfg.with_(seed=cfg.seed + 100), [1])]
        assert [len(batch) for batch in plan_lane_batches(pending)] == [2]
        plain = run_two_lanes(cfg)
        with wrapped_kernels() as calls:
            wrapped = run_two_lanes(cfg)
        assert set(calls) == expected
        for a, b in zip(plain, wrapped):
            assert_summaries_equal(a.summary, b.summary)
            assert_summaries_equal(a.training_summary, b.training_summary)

    def test_cases_cover_every_kernel(self):
        assert set().union(*(kernels for _, kernels in CASES.values())) == set(
            KERNEL_NAMES
        )


class TestConfigIntegration:
    def test_build_sim_state_threads_the_backend(self):
        cfg, _ = CASES["sparse-tft"]
        state = build_sim_state([cfg])
        holders = [
            state.scheme,
            state.scheme._ledger,
            state.behavior.sharing_learner,
            state.behavior.edit_learner,
        ]
        assert all(holder.kernels is get_backend("numpy") for holder in holders)


class TestRegistry:
    def test_default_is_numpy(self):
        assert get_backend() is get_backend("numpy") is KERNELS
        assert isinstance(KERNELS, NumpyKernels)

    def test_singleton_per_name(self):
        assert get_backend("numpy") is get_backend("numpy")

    def test_unknown_name_lists_known(self):
        # "com" "piled" spells the name of the JIT backend this module
        # used to offer; it is gone, like every other name but numpy.
        for name in ("com" "piled", "jit", "NUMPY", ""):
            with pytest.raises(ValueError, match="numpy"):
                get_backend(name)


class TestPickling:
    def test_backend_pickles_by_name_to_the_singleton(self):
        assert pickle.loads(pickle.dumps(KERNELS)) is KERNELS
        assert KERNELS.__reduce__() == (get_backend, ("numpy",))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_restored_state_routes_through_the_same_instance(self, case):
        cfg, expected = CASES[case]
        state = build_sim_state([cfg])
        restored = pickle.loads(pickle.dumps(state))
        holders = [
            restored.scheme,
            restored.behavior.sharing_learner,
            restored.behavior.edit_learner,
        ]
        if cfg.scale.sparse:
            holders.append(restored.scheme._ledger)
        assert all(holder.kernels is KERNELS for holder in holders)
        with wrapped_kernels() as calls:
            for _ in range(cfg.training_steps):
                step_state(restored, float("inf"), learn=True)
        assert set(calls) == expected
