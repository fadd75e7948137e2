"""The state-fingerprint helpers behind the golden behaviour lock.

:func:`~tests.sim.testing.state_fingerprint` and
:func:`~tests.sim.testing.compare_fingerprints` must see every slot
array of a built state, and a one-ulp difference in any of them.  The
state holds no random-number stream: its draws are counter-based
(:mod:`repro.sim.rng`), and their block cache is invisible to the walk.
"""

import numpy as np

from repro.agents.population import PopulationMix
from repro.sim.config import SimulationConfig
from tests.sim.testing import (
    collect_arrays,
    compare_fingerprints,
    state_fingerprint,
)

#: Mixed population so altruists, free-riders and learners all act.
MIX = PopulationMix(rational=0.5, altruistic=0.25, irrational=0.25)

BASE = dict(
    n_agents=18,
    n_articles=4,
    founders_per_article=2,
    training_steps=8,
    eval_steps=1,
    mix=MIX,
    leave_rate=0.05,
    join_rate=0.05,
    whitewash_rate=0.02,
    collusion_fraction=0.2,
    sybil_fraction=0.15,
    sybil_rate=0.1,
)


class TestFingerprint:
    """The diffing machinery itself must be able to see a divergence."""

    def _state(self):
        from repro.sim.state import build_sim_state

        cfg = SimulationConfig(scheme="tft", **BASE)
        return build_sim_state([cfg])

    def test_fingerprint_covers_slot_arrays(self):
        fp = state_fingerprint(self._state())
        assert "state.peers.online" in fp
        assert not any("draws" in path for path in fp)
        assert any("scheme" in path for path in fp)
        assert len(fp) > 20

    def test_detects_a_single_ulp_perturbation(self):
        state = self._state()
        # The fingerprint references the live arrays (no copies), so
        # snapshot it before perturbing the state.
        before = {k: v.copy() for k, v in state_fingerprint(state).items()}
        arrays = collect_arrays(state)
        path = next(
            p
            for p, a in arrays.items()
            if a.dtype.kind == "f" and a.size and "capacity" in p
        )
        arrays[path].flat[0] += 1e-9
        after = state_fingerprint(state)
        assert f"state.{path}" in compare_fingerprints(before, after)

    def test_identical_states_have_empty_diff(self):
        fp = state_fingerprint(self._state())
        assert compare_fingerprints(fp, dict(fp)) == []

    def test_collect_arrays_walks_nested_containers(self):
        class Box:
            def __init__(self):
                self.xs = [np.arange(3), {"deep": np.ones(2)}]
                self.skip_me = lambda: None

        got = collect_arrays(Box())
        assert {"xs[0]", "xs[1]['deep']"} <= set(got)
