"""Cross-module integration tests: causality, punishment flow, trust stack."""

import numpy as np
import pytest

from repro.agents.population import PopulationMix
from repro.sim.config import SimulationConfig
from repro.sim.engine import CollaborationSimulation, run_simulation
from repro.trust.eigentrust import eigentrust
from repro.trust.local_trust import LocalTrustMatrix


def cfg(**overrides) -> SimulationConfig:
    defaults = dict(
        n_agents=30,
        n_articles=8,
        training_steps=150,
        eval_steps=100,
        collect_events=True,
        edit_attempt_prob=0.25,
        enforce_edit_threshold=False,
        seed=77,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestEventCausality:
    @pytest.fixture(scope="class")
    def result(self):
        return run_simulation(cfg(mix=PopulationMix(0.3, 0.4, 0.3)))

    def test_every_acceptance_met_its_majority(self, result):
        for ev in result.events.edits:
            if ev.accepted:
                assert ev.for_weight >= ev.required_majority - 1e-9

    def test_no_quorum_edits_declined(self, result):
        for ev in result.events.edits:
            if ev.n_voters == 0:
                assert not ev.accepted

    def test_vote_bans_hit_the_minority_camp(self):
        """With a 70/30 constructive majority, the destructive minority
        votes against the majority and accumulates most of the bans.
        (An altruist can occasionally be banned too when a small sampled
        voter pool happens to carry a destructive local majority.)"""
        sim = CollaborationSimulation(cfg(mix=PopulationMix(0.0, 0.7, 0.3)))
        res = sim.run()
        bans = [p for p in res.events.punishments if p.kind == "vote_ban"]
        assert bans, "expected at least one vote ban"
        banned_types = np.array([sim.peers.types[b.peer_id] for b in bans])
        n_irrational = int((banned_types == 2).sum())
        assert n_irrational >= len(bans) / 2

    def test_punished_editor_loses_reputation(self):
        sim = CollaborationSimulation(cfg(mix=PopulationMix(0.0, 0.8, 0.2)))
        res = sim.run()
        resets = [
            p for p in res.events.punishments if p.kind == "reputation_reset"
        ]
        if resets:  # destructive editors against a big majority
            for r in resets[:5]:
                assert sim.peers.types[r.peer_id] == 2


class TestQualityProtection:
    def test_quality_rises_with_constructive_majority(self):
        sim = CollaborationSimulation(cfg(mix=PopulationMix(0.2, 0.6, 0.2)))
        sim.run()
        assert sim.articles.total_quality() > 0
        # The store's books agree with each other and with the metrics.
        good, bad = sim.articles.accepted_counts()
        assert good - bad == sim.articles.total_quality()
        assert good + bad == sim.articles.n_versions.sum()
        accepted = sim.metrics.accepted.sum(axis=(0, 1))
        assert (bad, good) == tuple(accepted)

    def test_quality_falls_with_destructive_majority(self):
        sim = CollaborationSimulation(cfg(mix=PopulationMix(0.2, 0.2, 0.6)))
        sim.run()
        assert sim.articles.total_quality() < 0


class TestTrustStackOnSimulationData:
    def test_eigentrust_ranks_altruists_above_irrationals(self):
        """Feed download outcomes into the trust substrate the paper
        assumes, and check the propagated values agree with the oracle."""
        config = cfg(mix=PopulationMix(0.0, 0.5, 0.5), collect_events=False)
        sim = CollaborationSimulation(config)
        sim.run()
        # Build local trust from 'was the source offering bandwidth'.
        lt = LocalTrustMatrix(config.n_agents)
        rng = np.random.default_rng(0)
        offered = sim.peers.offered_bandwidth
        for _ in range(300):
            i, j = rng.integers(0, config.n_agents, size=2)
            if i == j:
                continue
            lt.record(
                np.array([i]), np.array([j]), np.array([offered[j] > 0.0])
            )
        trust = eigentrust(lt.matrix()).trust
        alt_mask = sim.peers.types == 1
        irr_mask = sim.peers.types == 2
        assert trust[alt_mask].mean() > trust[irr_mask].mean()


class TestScaleVariations:
    @pytest.mark.parametrize("n_agents", [10, 50])
    def test_population_sizes(self, n_agents):
        res = run_simulation(cfg(n_agents=n_agents, collect_events=False))
        assert 0.0 <= res.summary["shared_files"] <= 1.0

    def test_single_article(self):
        res = run_simulation(cfg(n_articles=1, collect_events=False))
        assert res.summary["votes_cast_per_step"] >= 0.0

    def test_large_vote_cap(self):
        res = run_simulation(cfg(max_voters_per_edit=100, collect_events=False))
        assert 0.0 <= res.summary["shared_files"] <= 1.0

    def test_tiny_vote_cap(self):
        res = run_simulation(cfg(max_voters_per_edit=1, collect_events=False))
        assert 0.0 <= res.summary["shared_files"] <= 1.0
