"""Unit tests for the adversary kernels: collusion rings and sybils.

Covers ring assignment, the serve-only-ring bandwidth mask, vote
rigging, the action override (including the Q-learning pairing), and
the full identity reset every incentive scheme must implement for the
sybil/whitewash kernel.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.agents.population import PopulationMix
from repro.core.baselines import KarmaScheme, PrivateHistoryScheme
from repro.core.incentives import NoIncentiveScheme, ReputationIncentiveScheme
from repro.sim.config import SimulationConfig
from repro.sim.engine import CollaborationSimulation, run_simulation
from repro.sim.phases.adversary import collusion_shares, collusion_votes
from repro.sim.state import assign_collusion_rings, build_sim_state

MIX = PopulationMix(rational=0.5, altruistic=0.25, irrational=0.25)

TINY = dict(
    n_agents=24,
    n_articles=6,
    training_steps=25,
    eval_steps=20,
    founders_per_article=3,
    mix=MIX,
)


def tiny(seed=0, **overrides):
    params = dict(TINY)
    params.update(overrides)
    return SimulationConfig(seed=seed, **params)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("collusion_fraction", -0.1),
            ("collusion_fraction", 1.5),
            ("collusion_ring_size", 1),
            ("sybil_fraction", -0.1),
            ("sybil_rate", 2.0),
        ],
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError):
            SimulationConfig(**{field: value})


class TestRingAssignment:
    def test_fraction_and_membership(self):
        rng = np.random.default_rng(0)
        rings = assign_collusion_rings(rng, 100, 0.25, 5)
        members = rings >= 0
        assert members.sum() == 25
        # Five full rings of five.
        ids, counts = np.unique(rings[members], return_counts=True)
        assert list(counts) == [5] * 5
        assert set(ids) == set(range(5))

    def test_lone_remainder_merged(self):
        rng = np.random.default_rng(1)
        rings = assign_collusion_rings(rng, 100, 0.09, 4)  # 9 = 4 + 4 + 1
        _, counts = np.unique(rings[rings >= 0], return_counts=True)
        assert sorted(counts) == [4, 5]

    def test_small_remainder_kept_as_ring(self):
        rng = np.random.default_rng(2)
        rings = assign_collusion_rings(rng, 100, 0.10, 4)  # 10 = 4 + 4 + 2
        _, counts = np.unique(rings[rings >= 0], return_counts=True)
        assert sorted(counts) == [2, 4, 4]

    def test_below_two_colluders_no_rings_no_draws(self):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        rings = assign_collusion_rings(rng, 100, 0.01, 4)  # rounds to 1
        assert (rings == -1).all()
        assert rng.bit_generator.state == before  # stream untouched

    def test_offset_applied(self):
        rng = np.random.default_rng(4)
        rings = assign_collusion_rings(rng, 20, 0.5, 5, offset=40)
        assert set(rings[rings >= 0]) == {40, 41}


def _ring_stub(rings, n_slots):
    """A minimal stand-in for SimState as the share/vote helpers see it."""
    return SimpleNamespace(
        collusion_rings=np.asarray(rings, dtype=np.int64),
        peers=SimpleNamespace(n=n_slots),
    )


class TestCollusionShares:
    def test_outsiders_blocked_ring_renormalized(self):
        # Peers 0,1 in ring 0; peer 2 outside.  Source 0 receives one
        # request from its ring-mate and one from the outsider.
        state = _ring_stub([0, 0, -1], 3)
        src = np.array([0, 0])
        dl = np.array([1, 2])
        shares = np.array([0.3, 0.7])
        out = collusion_shares(state, src, dl, shares)
        assert out[0] == pytest.approx(1.0)  # ring-mate takes everything
        assert out[1] == 0.0

    def test_fully_blocked_source_serves_nobody(self):
        state = _ring_stub([0, 0, -1], 3)
        out = collusion_shares(
            state, np.array([0, 0]), np.array([2, 2]), np.array([0.5, 0.5])
        )
        assert (out == 0.0).all()

    def test_non_colluding_sources_untouched(self):
        state = _ring_stub([-1, -1, 0, 0], 4)
        shares = np.array([0.25, 0.75])
        out = collusion_shares(
            state, np.array([0, 0]), np.array([1, 2]), shares.copy()
        )
        np.testing.assert_array_equal(out, shares)

    def test_cross_ring_blocked(self):
        # Two different rings never serve each other.
        state = _ring_stub([0, 1], 2)
        out = collusion_shares(
            state, np.array([0]), np.array([1]), np.array([1.0])
        )
        assert out[0] == 0.0

    def test_non_colluders_bit_identical_in_mixed_batches(self):
        # A non-colluding source's rows survive untouched even when other
        # sources in the same request batch get renormalized.
        state = _ring_stub([0, 0, -1, -1], 4)
        src = np.array([0, 0, 3, 3, 3])
        dl = np.array([1, 2, 0, 1, 2])
        shares = np.array([0.4, 0.6, 1 / 3, 1 / 3, 1 / 3])
        out = collusion_shares(state, src, dl, shares.copy())
        assert out[2] == shares[2] and out[3] == shares[3] and out[4] == shares[4]
        assert out[0] == pytest.approx(1.0) and out[1] == 0.0

    def test_zero_reputation_ring_mates_split_equally(self):
        # Ring-mates with zero original share still receive the ring's
        # bandwidth (equal split); the blocked outsider stays at zero.
        state = _ring_stub([0, 0, 0, -1], 4)
        src = np.array([0, 0, 0])
        dl = np.array([1, 2, 3])
        shares = np.array([0.0, 0.0, 1.0])  # outsider held all the rep
        out = collusion_shares(state, src, dl, shares)
        assert out[0] == pytest.approx(0.5)
        assert out[1] == pytest.approx(0.5)
        assert out[2] == 0.0


class TestCollusionVotes:
    def test_ring_line_overrides_content(self):
        # Voters: 0 (ring 0), 1 (ring 1), 2 (outsider); proposer 3 is in
        # ring 0.  Honest votes all say False.
        state = _ring_stub([0, 1, -1, 0], 4)
        votes = collusion_votes(
            state,
            flat_voters=np.array([0, 1, 2]),
            proposer_of_vote=np.array([3, 3, 3]),
            votes_for=np.array([False, False, False]),
        )
        assert list(votes) == [True, False, False]

    def test_colluders_badmouth_outsiders(self):
        state = _ring_stub([0, -1], 2)
        votes = collusion_votes(
            state,
            flat_voters=np.array([0]),
            proposer_of_vote=np.array([1]),  # outsider proposer
            votes_for=np.array([True]),  # honest vote would agree
        )
        assert list(votes) == [False]


class TestCollusionInEngine:
    def test_actions_forced_all_in(self):
        sim = CollaborationSimulation(tiny(collusion_fraction=0.5))
        state = sim.state
        assert state.colluder_mask.sum() >= 2
        sim.step(temperature=float("inf"))
        active = state.colluder_mask & state.peers.online
        assert (state.peers.offered_bandwidth[active] == 1.0).all()
        assert (state.peers.offered_files[active] == 1.0).all()
        # The forced action index is what the learner trained on.
        assert (
            state.ctx.share_actions[active] == state.sharing_space.max_action
        ).all()
        assert (
            state.ctx.edit_actions[active] == state.edit_space.constructive_action
        ).all()

    def test_ring_ids_offset_per_replicate(self):
        cfg = tiny(collusion_fraction=0.25)
        state = build_sim_state([cfg, cfg.with_(seed=1)])
        rings2d = state.rows(state.collusion_rings)
        r0 = set(rings2d[0][rings2d[0] >= 0])
        r1 = set(rings2d[1][rings2d[1] >= 0])
        assert r0 and r1 and not (r0 & r1)

    def test_collusion_off_state_unchanged(self):
        state = build_sim_state([tiny()])
        assert not state.colluder_mask.any()
        assert (state.collusion_rings == -1).all()


class TestSchemeIdentityResets:
    N = 6

    def test_reputation_scheme_full_wipe(self):
        scheme = ReputationIncentiveScheme(self.N)
        scheme.record_sharing(np.ones(self.N), np.ones(self.N))
        scheme.vote_punishment.banned[:] = True
        scheme.edit_punishment.declined_edits[:] = 2
        scheme.reset_identities(np.array([1, 3]))
        assert scheme.ledger.sharing[1] == 0.0 and scheme.ledger.sharing[3] == 0.0
        assert scheme.ledger.sharing[0] > 0.0  # others untouched
        assert not scheme.vote_punishment.banned[[1, 3]].any()
        assert scheme.vote_punishment.banned[0]
        assert (scheme.edit_punishment.declined_edits[[1, 3]] == 0).all()
        assert scheme.edit_punishment.declined_edits[0] == 2

    def test_tft_forgets_both_directions(self):
        scheme = PrivateHistoryScheme(self.N)
        scheme._given[0, :, :] = 1.0
        scheme.reset_identities(np.array([2]))
        assert (scheme.given[2, :] == 0.0).all()  # what 2 gave
        assert (scheme.given[:, 2] == 0.0).all()  # what others remember of 2
        assert scheme.given[0, 1] == 1.0

    def test_tft_reset_respects_replicates(self):
        scheme = PrivateHistoryScheme(self.N, n_replicates=2)
        scheme._given[:, :, :] = 1.0
        scheme.reset_identities(np.array([self.N + 2]))  # replicate 1, local 2
        assert (scheme.given[1, 2, :] == 0.0).all()
        assert (scheme.given[1, :, 2] == 0.0).all()
        assert (scheme.given[0] == 1.0).all()  # replicate 0 untouched

    def test_karma_refunds_newcomer_grant(self):
        scheme = KarmaScheme(self.N, initial_karma=1.0)
        scheme.balance[:] = 5.0
        scheme.reset_identities(np.array([4]))
        assert scheme.balance[4] == 1.0
        assert scheme.balance[0] == 5.0

    def test_none_scheme_resets_ledger(self):
        scheme = NoIncentiveScheme(self.N)
        scheme.record_sharing(np.ones(self.N), np.ones(self.N))
        scheme.reset_identities(np.array([0]))
        assert scheme.ledger.sharing[0] == 0.0


class TestSybilInEngine:
    def test_certain_rate_resets_every_step(self):
        cfg = tiny(sybil_fraction=0.25, sybil_rate=1.0)
        sim = CollaborationSimulation(cfg)
        n_sybils = int(sim.state.sybil_mask.sum())
        assert n_sybils == 6
        steps = 5
        for _ in range(steps):
            sim.step(temperature=float("inf"))
        assert sim.sybil_count == n_sybils * steps

    def test_offline_sybil_rejoins(self):
        cfg = tiny(sybil_fraction=0.25, sybil_rate=1.0)
        sim = CollaborationSimulation(cfg)
        sybils = np.flatnonzero(sim.state.sybil_mask)
        sim.peers.online[sybils] = False
        sim.step(temperature=float("inf"))
        assert sim.peers.online[sybils].all()

    def test_sybil_keeps_reputation_at_floor(self):
        # With certain per-step resets, a sybil's sharing contribution can
        # never accumulate across steps, so its ledger stays at the level
        # one single step can produce, while honest altruists accrue.
        cfg = tiny(
            mix=PopulationMix(0.0, 1.0, 0.0),
            sybil_fraction=0.25,
            sybil_rate=1.0,
            training_steps=0,
            eval_steps=30,
        )
        sim = CollaborationSimulation(cfg)
        sybils = np.flatnonzero(sim.state.sybil_mask)
        honest = np.flatnonzero(~sim.state.sybil_mask)
        for _ in range(20):
            sim.step(temperature=1.0)
        ledger = sim.scheme.ledger.sharing
        assert ledger[honest].mean() > ledger[sybils].mean()

    def test_extras_present_without_sybils(self):
        result = run_simulation(tiny())
        assert result.extras["sybil_count"] == 0.0

    @pytest.mark.parametrize("scheme", ["reputation", "none", "tft", "karma"])
    def test_all_schemes_accept_resets(self, scheme):
        result = run_simulation(
            tiny(scheme=scheme, sybil_fraction=0.25, sybil_rate=0.2)
        )
        assert result.extras["sybil_count"] > 0
