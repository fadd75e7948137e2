"""Tests for service differentiation (bandwidth, voting, editing).

Bandwidth and vote shares are the engine's ``grouped_shares`` kernel,
grouped by source or by proposal; the accept majority is
``required_majority_values`` on the editor's band.  Both are exactly what
the download and edit-vote phases call.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import ReputationParams, ServiceParams
from repro.core.service import edit_eligibility, required_majority_values
from repro.sim.backends import KERNELS


def one_vote(voter_reputation):
    """One edit's voter set: a single group of zeros."""
    rep = np.asarray(voter_reputation, dtype=np.float64)
    return KERNELS.grouped_shares(np.zeros(rep.shape, dtype=np.int64), rep, 1)


class TestAllocateByReputation:
    def test_paper_formula_single_source(self):
        """B_i = R_i / sum_k R_k over downloaders of the same source."""
        sources = np.array([0, 0, 0])
        reps = np.array([0.2, 0.3, 0.5])
        shares = KERNELS.grouped_shares(sources, reps, 1)
        assert shares == pytest.approx([0.2, 0.3, 0.5])

    def test_shares_sum_to_one_per_source(self):
        rng = np.random.default_rng(0)
        sources = rng.integers(0, 5, size=40)
        reps = rng.uniform(0.05, 1.0, size=40)
        shares = KERNELS.grouped_shares(sources, reps, 5)
        for s in range(5):
            mask = sources == s
            if mask.any():
                assert shares[mask].sum() == pytest.approx(1.0)

    def test_higher_reputation_more_bandwidth(self):
        sources = np.array([0, 0])
        shares = KERNELS.grouped_shares(sources, np.array([0.05, 0.95]), 1)
        assert shares[1] > shares[0]
        assert shares[1] / shares[0] == pytest.approx(19.0)

    def test_sole_downloader_gets_everything(self):
        shares = KERNELS.grouped_shares(np.array([3]), np.array([0.05]), 5)
        assert shares[0] == pytest.approx(1.0)

    def test_zero_reputation_group_falls_back_to_equal(self):
        shares = KERNELS.grouped_shares(np.array([0, 0]), np.array([0.0, 0.0]), 1)
        assert shares == pytest.approx([0.5, 0.5])

    def test_empty_requests(self):
        shares = KERNELS.grouped_shares(np.empty(0, np.int64), np.empty(0), 4)
        assert shares.size == 0

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            KERNELS.grouped_shares(np.array([0]), np.array([-0.1]), 1)

    def test_rejects_out_of_range_groups(self):
        with pytest.raises(ValueError):
            KERNELS.grouped_shares(np.array([5]), np.array([0.5]), 2)

    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=6))
    @settings(max_examples=50, deadline=None)
    def test_property_shares_partition_unity(self, n_req, n_src):
        rng = np.random.default_rng(n_req * 100 + n_src)
        sources = rng.integers(0, n_src, size=n_req)
        reps = rng.uniform(0.05, 1.0, size=n_req)
        shares = KERNELS.grouped_shares(sources, reps, n_src)
        totals = np.zeros(n_src)
        np.add.at(totals, sources, shares)
        occupied = np.bincount(sources, minlength=n_src) > 0
        assert totals[occupied] == pytest.approx(np.ones(occupied.sum()))
        assert np.all(shares >= 0)


class TestAllocateEqualSplit:
    """The no-incentive split: unit weights, grouped by source."""

    def test_equal_shares(self):
        shares = KERNELS.grouped_shares(np.array([0, 0, 0, 1]), np.ones(4), 2)
        assert shares == pytest.approx([1 / 3, 1 / 3, 1 / 3, 1.0])

    def test_ignores_reputation_by_construction(self):
        s1 = KERNELS.grouped_shares(np.array([0, 0]), np.ones(2), 1)
        assert s1 == pytest.approx([0.5, 0.5])


class TestVotingWeights:
    def test_paper_formula(self):
        """v_i = R_iE / sum_k R_kE."""
        w = one_vote(np.array([0.1, 0.3, 0.6]))
        assert w == pytest.approx([0.1, 0.3, 0.6])

    def test_sums_to_one(self):
        rng = np.random.default_rng(1)
        w = one_vote(rng.uniform(0.05, 1, 17))
        assert w.sum() == pytest.approx(1.0)

    def test_empty_voters(self):
        assert one_vote(np.empty(0)).size == 0

    def test_all_zero_reputation_uniform(self):
        w = one_vote(np.zeros(4))
        assert w == pytest.approx([0.25] * 4)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            one_vote(np.array([0.5, -0.1]))


class TestRequiredMajority:
    def setup_method(self):
        self.service = ServiceParams(majority_min=0.5, majority_max=0.75)
        self.rep = ReputationParams()

    def majority(self, editor_reputation):
        return required_majority_values(
            editor_reputation,
            self.rep.r_min,
            self.rep.r_max,
            self.service.majority_min,
            self.service.majority_max,
        )

    def test_inverse_proportionality(self):
        """Higher editor reputation -> smaller required majority."""
        lo = self.majority(0.05)
        hi = self.majority(1.0)
        assert float(lo) == pytest.approx(0.75)
        assert float(hi) == pytest.approx(0.5)

    def test_monotone_decreasing(self):
        r = np.linspace(0.05, 1.0, 50)
        m = self.majority(r)
        assert np.all(np.diff(m) <= 1e-12)

    def test_clipped_outside_band(self):
        assert float(self.majority(0.0)) == pytest.approx(0.75)
        assert float(self.majority(2.0)) == pytest.approx(0.5)

    @given(st.floats(min_value=0.05, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_property_in_band(self, r):
        m = float(self.majority(r))
        assert 0.5 <= m <= 0.75


class TestEditEligibility:
    def test_threshold(self):
        service = ServiceParams(edit_threshold=0.10)
        mask = edit_eligibility(np.array([0.05, 0.10, 0.5]), service)
        assert mask.tolist() == [False, True, True]
