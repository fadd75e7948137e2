"""Tests for the paper's utility functions (section III-D).

The phases call the ``*_values`` functions with per-lane modifiers; these
tests pass a :class:`UtilityParams`' fields, one lane's constants.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import UtilityParams
from repro.core.utility import editing_utility_values, sharing_utility_values


def u_s(received, articles, offered, p: UtilityParams) -> np.ndarray:
    return sharing_utility_values(
        received, articles, offered, p.alpha, p.beta, p.gamma
    )


def u_e(accepted, votes, p: UtilityParams) -> np.ndarray:
    return editing_utility_values(accepted, votes, p.delta, p.epsilon)


class TestSharingUtility:
    def test_formula(self):
        p = UtilityParams(alpha=2.0, beta=0.5, gamma=0.25)
        u = sharing_utility_values(
            received_bandwidth=np.array([0.8]),
            shared_articles=np.array([1.0]),
            offered_bandwidth=np.array([0.5]),
            alpha=p.alpha,
            beta=p.beta,
            gamma=p.gamma,
        )
        assert u[0] == pytest.approx(2.0 * 0.8 - 0.5 * 1.0 - 0.25 * 0.5)

    def test_pure_free_rider_non_negative(self):
        """Sharing nothing has no cost; downloading is pure benefit."""
        p = UtilityParams()
        u = u_s(np.array([0.5]), np.array([0.0]), np.array([0.0]), p)
        assert u[0] > 0

    def test_pure_altruist_without_downloads_negative(self):
        p = UtilityParams()
        u = u_s(np.array([0.0]), np.array([1.0]), np.array([1.0]), p)
        assert u[0] < 0

    def test_vectorized(self):
        p = UtilityParams()
        u = u_s(np.zeros(5), np.ones(5), np.ones(5), p)
        assert u.shape == (5,)
        assert np.all(u == u[0])

    @given(
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0, max_value=1),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_monotone_in_benefit(self, received, arts, bw):
        p = UtilityParams()
        lo = u_s(np.array([received]), np.array([arts]), np.array([bw]), p)
        hi = u_s(np.array([received + 0.1]), np.array([arts]), np.array([bw]), p)
        assert hi[0] > lo[0]

    @given(st.floats(min_value=0, max_value=0.9))
    @settings(max_examples=50, deadline=None)
    def test_property_monotone_decreasing_in_cost(self, arts):
        p = UtilityParams()
        lo = u_s(np.array([0.5]), np.array([arts]), np.array([0.0]), p)
        hi = u_s(np.array([0.5]), np.array([arts + 0.1]), np.array([0.0]), p)
        assert hi[0] < lo[0]


class TestEditingUtility:
    def test_formula(self):
        p = UtilityParams(delta=3.0, epsilon=2.0)
        u = u_e(np.array([2.0]), np.array([4.0]), p)
        assert u[0] == pytest.approx(3.0 * 2.0 + 2.0 * 4.0)

    def test_non_negative(self):
        """The paper assigns editing/voting no rational cost."""
        p = UtilityParams()
        u = u_e(np.zeros(3), np.zeros(3), p)
        assert np.all(u == 0.0)

    def test_accepted_edit_worth_more_than_vote(self):
        p = UtilityParams()
        edit = u_e(np.array([1.0]), np.array([0.0]), p)
        vote = u_e(np.array([0.0]), np.array([1.0]), p)
        assert edit[0] > vote[0]
