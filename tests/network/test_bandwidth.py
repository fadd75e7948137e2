"""Tests for download sampling and bandwidth settlement.

Both run as the download phase runs them: requests come from the
lane-batched sampler (``R = 1`` unless a test stacks lanes), shares from
the ``grouped_shares`` kernel and transfers from ``settle_downloads``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.bandwidth import DownloadRequests
from repro.sim.backends import KERNELS
from repro.sim.phases.download import sample_download_requests_batch


def sample_one(rng, sharing_mask, download_probability=None) -> DownloadRequests:
    """One lane's requests: the batch sampler at ``R = 1``."""
    return sample_download_requests_batch(
        [rng], sharing_mask[None, :], download_probability
    )


def settle(req, shares, offered, capacity, n_peers):
    return KERNELS.settle_downloads(
        req.downloader_ids, req.source_ids, shares, offered, capacity, n_peers
    )


class TestSampleDownloadRequests:
    def test_no_sharers_no_requests(self, rng):
        req = sample_one(rng, np.zeros(10, dtype=bool))
        assert req.n == 0

    def test_sources_are_sharers(self, rng):
        sharing = np.zeros(20, dtype=bool)
        sharing[[3, 7, 11]] = True
        req = sample_one(rng, sharing, download_probability=1.0)
        assert np.isin(req.source_ids, [3, 7, 11]).all()

    def test_never_self_download(self, rng_factory):
        sharing = np.ones(10, dtype=bool)
        for seed in range(20):
            req = sample_one(
                rng_factory(seed), sharing, download_probability=1.0
            )
            assert np.all(req.downloader_ids != req.source_ids)

    def test_single_sharer_cannot_serve_itself(self, rng):
        sharing = np.zeros(3, dtype=bool)
        sharing[1] = True
        req = sample_one(rng, sharing, download_probability=1.0)
        assert 1 not in req.downloader_ids.tolist()
        assert np.all(req.source_ids == 1)

    def test_probability_zero(self, rng):
        req = sample_one(
            rng, np.ones(10, dtype=bool), download_probability=0.0
        )
        assert req.n == 0

    def test_paper_default_probability(self, rng_factory):
        """P = 1/N_S: with N_S sharers each peer requests ~1/N_S per step."""
        sharing = np.ones(50, dtype=bool)
        total = 0
        n_trials = 300
        for seed in range(n_trials):
            req = sample_one(rng_factory(seed), sharing, None)
            total += req.n
        mean_requests = total / n_trials
        assert mean_requests == pytest.approx(1.0, abs=0.35)

    def test_full_probability_everyone_downloads(self, rng):
        sharing = np.ones(30, dtype=bool)
        req = sample_one(rng, sharing, download_probability=1.0)
        assert req.n == 30

    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=50, deadline=None)
    def test_property_requests_valid(self, n, seed):
        rng = np.random.default_rng(seed)
        sharing = rng.random(n) < 0.5
        req = sample_one(rng, sharing, download_probability=0.7)
        assert np.all(req.downloader_ids != req.source_ids)
        assert np.all(sharing[req.source_ids])



class TestSampleDownloadRequestsBatch:
    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=40, deadline=None)
    def test_lanes_equal_their_solo_draws(self, seed):
        """R = 3 with per-lane P: lane 0 has no sharers, lane 1 has P = 0.

        Each lane's requests are its ``R = 1`` draws on its own generator,
        offset by ``r * N``; each generator ends where its solo call left
        it, and no request crosses a lane.  The requesting lane comes
        last, so its sharers sit behind another lane's in the flat slots.
        """
        n = 12
        masks = np.random.default_rng(seed).random((3, n)) < 0.6
        masks[0] = False
        masks[1:, :2] = True  # lanes 1 and 2 always have sharers
        p = np.array([0.5, 0.0, 0.8])

        def lane_rngs():
            return [np.random.default_rng([seed, r]) for r in range(3)]

        batch_rngs, solo_rngs = lane_rngs(), lane_rngs()
        req = sample_download_requests_batch(batch_rngs, masks, p)
        solo = [sample_one(solo_rngs[r], masks[r], p[r]) for r in range(3)]

        assert solo[0].n == 0 and solo[1].n == 0 and solo[2].n > 0
        np.testing.assert_array_equal(
            req.downloader_ids,
            np.concatenate([s.downloader_ids + r * n for r, s in enumerate(solo)]),
        )
        np.testing.assert_array_equal(
            req.source_ids,
            np.concatenate([s.source_ids + r * n for r, s in enumerate(solo)]),
        )
        assert np.all(req.downloader_ids // n == req.source_ids // n)
        for a, b in zip(batch_rngs, solo_rngs):
            assert a.bit_generator.state == b.bit_generator.state

class TestSettleDownloads:
    def test_conservation(self):
        """Total received equals total served."""
        req = DownloadRequests(
            downloader_ids=np.array([1, 2, 3]), source_ids=np.array([0, 0, 4])
        )
        shares = np.array([0.6, 0.4, 1.0])
        offered = np.array([0.5, 0.0, 0.0, 0.0, 1.0])
        capacity = np.ones(5)
        received, served = settle(req, shares, offered, capacity, 5)
        assert received.sum() == pytest.approx(served.sum())

    def test_amounts(self):
        req = DownloadRequests(
            downloader_ids=np.array([1, 2]), source_ids=np.array([0, 0])
        )
        shares = np.array([0.75, 0.25])
        offered = np.array([0.8, 0.0, 0.0])
        received, served = settle(req, shares, offered, np.ones(3), 3)
        assert received[1] == pytest.approx(0.6)
        assert received[2] == pytest.approx(0.2)
        assert served[0] == pytest.approx(0.8)

    def test_source_offering_nothing_transfers_nothing(self):
        req = DownloadRequests(
            downloader_ids=np.array([1]), source_ids=np.array([0])
        )
        received, served = settle(
            req, np.array([1.0]), np.zeros(2), np.ones(2), 2
        )
        assert received.sum() == 0.0
        assert served.sum() == 0.0

    def test_empty_requests(self):
        req = DownloadRequests(
            downloader_ids=np.empty(0, np.int64), source_ids=np.empty(0, np.int64)
        )
        received, served = settle(req, np.empty(0), np.ones(3), np.ones(3), 3)
        assert received.sum() == 0.0 and served.sum() == 0.0

    def test_requests_validation(self):
        with pytest.raises(ValueError):
            DownloadRequests(
                downloader_ids=np.array([1, 2]), source_ids=np.array([0])
            )

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=40, deadline=None)
    def test_property_conservation_random(self, seed):
        rng = np.random.default_rng(seed)
        n = 12
        sharing = rng.random(n) < 0.7
        if not sharing.any():
            return
        req = sample_one(rng, sharing, download_probability=1.0)
        if req.n == 0:
            return
        # Reputation-style shares summing to 1 per source.
        reps = rng.uniform(0.05, 1.0, size=req.n)
        shares = KERNELS.grouped_shares(req.source_ids, reps, n)
        offered = rng.random(n)
        received, served = settle(req, shares, offered, np.ones(n), n)
        assert received.sum() == pytest.approx(served.sum())
        assert np.all(received >= 0) and np.all(served >= 0)
        # A source never serves more than it offers.
        assert np.all(served <= offered + 1e-9)
