"""Tests for saving and restoring a simulation's state.

The resume snapshot (:mod:`repro.resilience.snapshot`) is the one saved
form of a run: it pickles the whole state, so a restored state holds the
learned Q-matrices, ledgers and tit-for-tat history of the original and
continues bit-identically with it.  It restores only into the task it
was taken from.
"""

import numpy as np

from repro.resilience import SnapshotStore, decode_snapshot, encode_snapshot
from repro.sim.config import SimulationConfig
from repro.sim.engine import CollaborationSimulation
from repro.sim.phases import step_state
from repro.store.hashing import config_hash


def make_sim(seed=9, n_agents=20, **kw):
    cfg = SimulationConfig(
        n_agents=n_agents,
        n_articles=5,
        training_steps=60,
        eval_steps=30,
        seed=seed,
        **kw,
    )
    return CollaborationSimulation(cfg)


def snapshot_of(sim):
    """``sim``'s whole state as a resume snapshot of its own task."""
    return encode_snapshot(sim.state, sim.step_count, [config_hash(sim.config)])


def restore(blob, config):
    """The state ``blob`` restores into ``config``'s task (or ``None``)."""
    decoded = decode_snapshot(blob, [config_hash(config)])
    return None if decoded is None else decoded[0]


class TestCheckpoint:
    def test_roundtrip(self):
        sim = make_sim()
        for _ in range(50):
            sim.step(float("inf"))
        state, steps_done = decode_snapshot(snapshot_of(sim), [config_hash(sim.config)])

        fresh = make_sim()
        assert not np.array_equal(fresh.sharing_learner.q, sim.sharing_learner.q)
        assert np.array_equal(state.sharing_learner.q, sim.sharing_learner.q)
        assert np.array_equal(state.edit_learner.q, sim.edit_learner.q)
        assert np.array_equal(state.scheme.ledger.sharing, sim.scheme.ledger.sharing)
        assert state.step_count == steps_done == sim.step_count

    def test_restored_sim_continues(self):
        sim = make_sim()
        for _ in range(30):
            sim.step(float("inf"))
        state = restore(snapshot_of(sim), sim.config)
        step_state(state, 1.0)
        sim.step(1.0)
        # The snapshot carries the RNG streams too: both copies take the
        # same step.
        assert state.step_count == sim.step_count == 31
        assert np.array_equal(state.sharing_learner.q, sim.sharing_learner.q)
        assert np.array_equal(state.edit_learner.q, sim.edit_learner.q)

    def test_population_mismatch_rejected(self):
        blob = snapshot_of(make_sim(n_agents=20))
        other = make_sim(n_agents=24)
        assert restore(blob, other.config) is None

    def test_type_layout_mismatch_rejected(self):
        from repro.agents.population import PopulationMix

        blob = snapshot_of(make_sim(seed=9))
        other = make_sim(seed=9, mix=PopulationMix(0.5, 0.25, 0.25))
        assert restore(blob, other.config) is None

    def test_creates_parent_dirs(self, tmp_path):
        snaps = SnapshotStore(tmp_path / "deep" / "nest")
        snaps.save("ck", snapshot_of(make_sim()))
        assert snaps.path("ck").exists()


def make_tft_sim(seed=9, n_agents=20, steps=50, ledger_cap=None):
    cfg = SimulationConfig(
        n_agents=n_agents,
        n_articles=5,
        training_steps=60,
        eval_steps=30,
        scheme="tft",
        seed=seed,
        tft_ledger_cap=ledger_cap,
    )
    sim = CollaborationSimulation(cfg)
    for _ in range(steps):
        sim.step(float("inf"))
    return sim


class TestTftLedgerCheckpoint:
    """The snapshot carries the tit-for-tat history in either storage mode."""

    def test_dense_roundtrip_restores_history(self):
        sim = make_tft_sim()
        state = restore(snapshot_of(sim), sim.config)
        fresh = make_tft_sim(steps=0)
        assert not np.array_equal(fresh.scheme.given, sim.scheme.given)
        assert np.array_equal(state.scheme.given, sim.scheme.given)
        assert np.array_equal(state.scheme._totals, sim.scheme._totals)
        assert np.array_equal(state.scheme.reputation_s(), sim.scheme.reputation_s())

    def test_sparse_roundtrip_restores_ledger(self):
        sim = make_tft_sim(ledger_cap=19)
        state = restore(snapshot_of(sim), sim.config)
        led, want = state.scheme._ledger, sim.scheme._ledger
        assert np.array_equal(led.partners, want.partners)
        assert np.array_equal(led.amounts, want.amounts)
        assert np.array_equal(led.counts, want.counts)
        assert np.array_equal(state.scheme.reputation_s(), sim.scheme.reputation_s())

    def test_foreign_scheme_checkpoint_rejected_for_tft_sim(self):
        karma = make_sim(scheme="karma")
        for _ in range(50):
            karma.step(float("inf"))
        fresh = make_tft_sim(steps=0)
        assert restore(snapshot_of(karma), fresh.config) is None
