"""Integration tests for the simulation engine (small horizons)."""

import numpy as np
import pytest

from repro.agents.population import PopulationMix
from repro.sim.config import SimulationConfig
from repro.sim.engine import CollaborationSimulation, run_simulation


def tiny_config(**overrides) -> SimulationConfig:
    defaults = dict(
        n_agents=30,
        n_articles=8,
        training_steps=120,
        eval_steps=80,
        seed=5,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestEngineBasics:
    def test_run_completes(self):
        res = run_simulation(tiny_config())
        assert res.summary["shared_files"] >= 0.0
        assert res.wall_time_s > 0.0

    def test_deterministic_given_seed(self):
        from tests.conftest import assert_summaries_equal

        r1 = run_simulation(tiny_config(seed=11))
        r2 = run_simulation(tiny_config(seed=11))
        assert_summaries_equal(r1.summary, r2.summary)

    def test_different_seeds_differ(self):
        r1 = run_simulation(tiny_config(seed=1))
        r2 = run_simulation(tiny_config(seed=2))
        assert r1.summary != r2.summary

    def test_metrics_cover_all_steps(self):
        cfg = tiny_config()
        sim = CollaborationSimulation(cfg)
        sim.run()
        assert sim.metrics.steps_recorded == cfg.total_steps

    def test_fractions_in_range(self):
        res = run_simulation(tiny_config())
        for key in ("shared_files", "shared_bandwidth"):
            assert 0.0 <= res.summary[key] <= 1.0

    def test_training_summary_present(self):
        res = run_simulation(tiny_config())
        assert "shared_files" in res.training_summary

    def test_no_training_phase(self):
        res = run_simulation(tiny_config(training_steps=0))
        assert res.training_summary == {}

    def test_unknown_reputation_fn_rejected(self):
        with pytest.raises(ValueError):
            CollaborationSimulation(tiny_config(reputation_fn_s="magic"))


class TestPhaseProtocol:
    def test_reputation_reset_between_phases(self):
        """Paper IV-B: reputations reset at the train/eval boundary, the
        Q-matrices survive."""
        cfg = tiny_config(training_steps=60, eval_steps=1)
        sim = CollaborationSimulation(cfg)
        for _ in range(cfg.training_steps):
            sim.step(cfg.t_train)
        rep_before = sim.scheme.reputation_s().copy()
        q_before = sim.sharing_learner.q.copy()
        assert rep_before.max() > 0.05  # training moved reputations
        sim.scheme.reset_reputations()
        assert np.allclose(sim.scheme.reputation_s(), 0.05)
        assert np.array_equal(sim.sharing_learner.q, q_before)

    @pytest.mark.parametrize("t_train", [0.0, float("nan"), float("-inf")])
    def test_non_positive_training_temperature_fails_the_first_step(self, t_train):
        """NaN and -inf are rejected like 0, solo and on a batched lane,
        before any step runs: neither is a temperature (NaN would play
        action 0 throughout, -inf would explore as +inf)."""
        from repro.sim.engine import BatchedSimulation

        cfg = tiny_config(n_agents=16, training_steps=5, eval_steps=2, t_train=t_train)
        for sim in (
            CollaborationSimulation(cfg),
            BatchedSimulation([cfg.with_(t_train=2.0, seed=6), cfg]),
        ):
            with pytest.raises(ValueError, match="positive"):
                sim.run()
            assert sim.state.step_count == 0

    def test_training_is_uniform_exploration(self):
        """At T = inf the act phase plays every sharing action roughly
        equally often."""
        cfg = tiny_config(n_agents=40, training_steps=200, eval_steps=1)
        sim = CollaborationSimulation(cfg)
        counts = np.zeros(9)
        for _ in range(50):
            sim.step(np.inf)
            counts += np.bincount(
                sim.state.ctx.share_actions[sim.rational_idx], minlength=9
            )
        freq = counts / counts.sum()
        assert np.all(np.abs(freq - 1 / 9) < 0.05)


class TestBehaviourTypes:
    def test_altruists_share_fully(self):
        cfg = tiny_config(mix=PopulationMix(0.0, 1.0, 0.0))
        res = run_simulation(cfg)
        assert res.summary["shared_files_altruistic"] == pytest.approx(1.0)
        assert res.summary["shared_bandwidth_altruistic"] == pytest.approx(1.0)

    def test_irrationals_share_nothing(self):
        cfg = tiny_config(mix=PopulationMix(0.0, 0.5, 0.5))
        res = run_simulation(cfg)
        assert res.summary["shared_files_irrational"] == 0.0
        assert res.summary["shared_bandwidth_irrational"] == 0.0

    def test_irrational_edits_all_destructive(self):
        cfg = tiny_config(
            mix=PopulationMix(0.0, 0.5, 0.5),
            enforce_edit_threshold=False,
            edit_attempt_prob=0.3,
        )
        res = run_simulation(cfg)
        assert res.summary["edits_constructive_irrational"] == 0.0
        assert res.summary["edits_destructive_irrational"] > 0.0

    def test_altruist_edits_all_constructive(self):
        cfg = tiny_config(
            mix=PopulationMix(0.0, 1.0, 0.0), edit_attempt_prob=0.3
        )
        res = run_simulation(cfg)
        assert res.summary["edits_destructive_altruistic"] == 0.0
        assert res.summary["edits_constructive_altruistic"] > 0.0


class TestServiceDifferentiationIntegration:
    def test_edit_threshold_blocks_free_riders(self):
        """With the theta gate on, pure free-riders never edit."""
        cfg = tiny_config(
            mix=PopulationMix(0.0, 0.5, 0.5),
            enforce_edit_threshold=True,
            edit_attempt_prob=0.3,
        )
        res = run_simulation(cfg)
        assert res.summary["edits_destructive_irrational"] == 0.0
        assert res.summary["edits_constructive_altruistic"] > 0.0

    def test_no_incentive_scheme_runs(self):
        res = run_simulation(tiny_config(incentives_enabled=False))
        assert 0.0 <= res.summary["shared_files"] <= 1.0

    def test_altruists_outrank_irrationals_in_reputation(self):
        cfg = tiny_config(mix=PopulationMix(0.0, 0.5, 0.5))
        res = run_simulation(cfg)
        assert (
            res.summary["reputation_s_altruistic"]
            > res.summary["reputation_s_irrational"]
        )


class TestChurnIntegration:
    def test_whitewash_resets_reputation(self):
        cfg = tiny_config(whitewash_rate=0.01)
        sim = CollaborationSimulation(cfg)
        res = sim.run()
        assert res.extras["whitewash_count"] > 0

    def test_leave_join_cycle(self):
        cfg = tiny_config(leave_rate=0.05, join_rate=0.2)
        res = run_simulation(cfg)
        assert 0.0 <= res.summary["shared_files"] <= 1.0


class TestEventCollection:
    def test_events_recorded_when_enabled(self):
        cfg = tiny_config(collect_events=True, edit_attempt_prob=0.3)
        res = run_simulation(cfg)
        assert res.events is not None
        assert len(res.events.edits) > 0

    def test_events_disabled_by_default(self):
        res = run_simulation(tiny_config())
        assert res.events is None

    def test_edit_events_consistent(self):
        cfg = tiny_config(collect_events=True, edit_attempt_prob=0.3)
        res = run_simulation(cfg)
        for ev in res.events.edits[:200]:
            assert 0.0 <= ev.for_weight <= 1.0 + 1e-9
            assert 0.5 <= ev.required_majority <= 0.75
            if ev.accepted:
                assert ev.for_weight >= ev.required_majority


class TestNoRationalPopulation:
    def test_pure_fixed_population(self):
        cfg = tiny_config(mix=PopulationMix(0.0, 0.6, 0.4))
        res = run_simulation(cfg)
        assert np.isnan(res.summary["shared_files_rational"])
        assert res.summary["shared_files_altruistic"] == pytest.approx(1.0)
