"""Tests for the incentive-scheme facade and the no-incentive baseline.

The voting rules are the edit-vote phase's: it weighs votes with the
``grouped_shares`` kernel and takes the accept majority from
``required_majority_values``, both over the scheme's ``reputation_e``.
"""

import numpy as np
import pytest

from repro.core.incentives import (
    NoIncentiveScheme,
    ReputationIncentiveScheme,
    make_scheme,
)
from repro.core.params import PaperConstants, ServiceParams
from repro.core.service import required_majority_values
from repro.sim.backends import KERNELS
from repro.sim.config import SimulationConfig
from repro.sim.engine import run_simulation


def accept_majority_of(scheme: ReputationIncentiveScheme) -> np.ndarray:
    """Every peer's accept majority, as the edit-vote phase computes it."""
    c = scheme.constants
    return required_majority_values(
        scheme.reputation_e(),
        c.reputation_e.r_min,
        c.reputation_e.r_max,
        c.service.majority_min,
        c.service.majority_max,
    )


@pytest.fixture(scope="module")
def no_incentive_edits():
    """Edits logged by a 250-step run without incentives.

    Its majority band starts at 0.6, which the no-incentive rule ignores.
    """
    cfg = SimulationConfig(
        incentives_enabled=False,
        collect_events=True,
        training_steps=150,
        eval_steps=100,
        constants=PaperConstants(service=ServiceParams(majority_min=0.6)),
    )
    edits = run_simulation(cfg).events.edits
    assert edits
    return edits


@pytest.fixture
def scheme() -> ReputationIncentiveScheme:
    return ReputationIncentiveScheme(n_peers=6)


class TestReputationIncentiveScheme:
    def test_newcomers_at_r_min(self, scheme):
        assert scheme.reputation_s() == pytest.approx([0.05] * 6)
        assert scheme.reputation_e() == pytest.approx([0.05] * 6)

    def test_sharing_raises_reputation(self, scheme):
        arts = np.zeros(6)
        arts[2] = 1.0
        for _ in range(30):
            scheme.record_sharing(arts, np.zeros(6))
        rep = scheme.reputation_s()
        assert rep[2] > rep[0]

    def test_bandwidth_shares_favour_reputation(self, scheme):
        arts = np.zeros(6)
        arts[1] = 1.0
        for _ in range(50):
            scheme.record_sharing(arts, arts)
        shares = scheme.bandwidth_shares(
            source_ids=np.array([0, 0]), downloader_ids=np.array([1, 2])
        )
        assert shares[0] > shares[1]

    def test_may_edit_requires_theta(self, scheme):
        assert not scheme.may_edit().any()
        arts = np.ones(6)
        for _ in range(30):
            scheme.record_sharing(arts, arts)
        assert scheme.may_edit().all()

    def test_accept_majority_decreases_with_reputation(self, scheme):
        votes = np.zeros(6)
        votes[0] = 3.0
        for _ in range(50):
            scheme.record_editing(votes, votes)
        majority = accept_majority_of(scheme)
        assert majority[0] < majority[1]

    def test_vote_ban_flow(self, scheme):
        threshold = scheme.constants.service.vote_punish_threshold
        for _ in range(threshold):
            scheme.record_vote_outcomes(np.array([3]), np.array([False]))
        assert not scheme.may_vote()[3]
        # An accepted edit restores voting rights.
        scheme.record_edit_outcomes(np.array([3]), np.array([True]))
        assert scheme.may_vote()[3]

    def test_edit_punishment_resets_reputations(self, scheme):
        arts = np.ones(6)
        for _ in range(30):
            scheme.record_sharing(arts, arts)
            scheme.record_editing(arts, arts)
        threshold = scheme.constants.service.edit_punish_threshold
        punished = np.empty(0)
        for _ in range(threshold):
            punished = scheme.record_edit_outcomes(np.array([4]), np.array([False]))
        assert punished.tolist() == [4]
        assert scheme.reputation_s()[4] == pytest.approx(0.05)
        assert scheme.reputation_e()[4] == pytest.approx(0.05)
        # Unpunished peers keep their reputation.
        assert scheme.reputation_s()[0] > 0.5

    def test_reset_reputations_clears_everything(self, scheme):
        arts = np.ones(6)
        for _ in range(20):
            scheme.record_sharing(arts, arts)
        scheme.record_vote_outcomes(
            np.array([0] * scheme.constants.service.vote_punish_threshold),
            np.zeros(scheme.constants.service.vote_punish_threshold, dtype=bool),
        )
        scheme.reset_reputations()
        assert scheme.reputation_s() == pytest.approx([0.05] * 6)
        assert scheme.may_vote().all()

    def test_vote_weights_normalized(self, scheme):
        rep = scheme.reputation_e()[[0, 1, 2]]
        w = KERNELS.grouped_shares(np.zeros(3, dtype=np.int64), rep, 1)
        assert w.sum() == pytest.approx(1.0)


class TestNoIncentiveScheme:
    def test_flat_reputation(self):
        s = NoIncentiveScheme(4)
        assert np.all(s.reputation_s() == 1.0)

    def test_equal_split(self):
        s = NoIncentiveScheme(4)
        shares = s.bandwidth_shares(np.array([0, 0]), np.array([1, 2]))
        assert shares == pytest.approx([0.5, 0.5])

    def test_everyone_may_edit_and_vote(self):
        s = NoIncentiveScheme(4)
        assert s.may_edit().all()
        assert s.may_vote().all()

    def test_simple_majority(self, no_incentive_edits):
        assert {ev.required_majority for ev in no_incentive_edits} == {0.5}

    def test_unweighted_votes(self, no_incentive_edits):
        """Each vote weighs 1 / n_voters, so the for-weight counts votes."""
        for ev in no_incentive_edits:
            votes_for = ev.for_weight * ev.n_voters
            assert votes_for == pytest.approx(round(votes_for), abs=1e-9)

    def test_punishments_are_noops(self):
        s = NoIncentiveScheme(4)
        assert s.record_vote_outcomes(np.array([0]), np.array([False])).size == 0
        assert s.record_edit_outcomes(np.array([0]), np.array([False])).size == 0
        assert s.may_vote().all()

    def test_contributions_still_tracked(self):
        s = NoIncentiveScheme(2)
        s.record_sharing(np.ones(2), np.ones(2))
        assert np.all(s.ledger.sharing > 0)


class TestMakeScheme:
    def test_factory(self):
        assert isinstance(make_scheme(3, True), ReputationIncentiveScheme)
        assert isinstance(make_scheme(3, False), NoIncentiveScheme)

    def test_differentiation_flags(self):
        assert make_scheme(3, True).differentiates_service
        assert not make_scheme(3, False).differentiates_service

    def test_custom_constants(self):
        constants = PaperConstants(service=ServiceParams(edit_threshold=0.3))
        s = make_scheme(3, True, constants)
        assert s.constants.service.edit_threshold == 0.3
