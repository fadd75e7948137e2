"""Tests for the build's generators and the step path's counter-based draws."""

import pickle

import numpy as np
import pytest
from scipy.stats import chisquare

from repro.sim.rng import (
    BLOCK_TARGET,
    SITE_ARTICLE,
    SITE_CHURN,
    SITE_EDIT,
    SITE_PROPOSE,
    SITE_REQUEST,
    SITE_SHARE,
    SITE_SOURCE,
    SITE_SYBIL,
    SITE_VOTER_KEY,
    CounterDraws,
    lane_key,
    make_rng,
    spawn_rngs,
    spawn_seeds,
    to_below,
    to_uniform,
)


class TestMakeRng:
    def test_deterministic(self):
        a = make_rng(7).random(5)
        b = make_rng(7).random(5)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(make_rng(1).random(5), make_rng(2).random(5))


class TestSpawnSeeds:
    def test_count_and_determinism(self):
        s1 = spawn_seeds(42, 5)
        s2 = spawn_seeds(42, 5)
        assert s1 == s2
        assert len(s1) == 5

    def test_children_pairwise_distinct(self):
        seeds = spawn_seeds(0, 50)
        assert len(set(seeds)) == 50

    def test_independent_of_sibling_count_prefix(self):
        """The first k children are the same regardless of how many are
        spawned — sweeps can grow without invalidating earlier runs."""
        assert spawn_seeds(9, 3) == spawn_seeds(9, 6)[:3]

    def test_zero(self):
        assert spawn_seeds(1, 0) == []


class TestSpawnRngs:
    def test_streams_independent(self):
        rngs = spawn_rngs(123, 3)
        draws = [r.random(4).tolist() for r in rngs]
        assert draws[0] != draws[1] != draws[2]

    def test_deterministic(self):
        a = spawn_rngs(5, 2)[1].random(3)
        b = spawn_rngs(5, 2)[1].random(3)
        assert np.array_equal(a, b)


# ----------------------------------------------------------------------
# Counter-based draws
# ----------------------------------------------------------------------
def _draws(seeds, n_agents):
    return CounterDraws(np.array([lane_key(s) for s in seeds], dtype=np.uint64), n_agents)


class TestCounterDraws:
    def test_uniforms_are_uniform(self):
        draws = _draws([1, 2, 3, 4], 250)
        u = np.concatenate([draws.uniforms(step, SITE_CHURN) for step in range(100)])
        assert u.min() >= 0.0 and u.max() < 1.0
        counts = np.histogram(u, bins=50, range=(0.0, 1.0))[0]
        assert chisquare(counts).pvalue > 1e-4

    @pytest.mark.parametrize("n", [2, 3, 5, 7, 9])
    def test_bounded_integers_are_uniform(self, n):
        draws = _draws([11, 12], 500)
        x = np.concatenate(
            [draws.integers(step, SITE_SHARE, n) for step in range(100)]
        )
        assert x.dtype == np.int64 and x.min() == 0 and x.max() == n - 1
        assert chisquare(np.bincount(x, minlength=n)).pvalue > 1e-4

    def test_no_collisions_over_lanes_steps_sites_and_indices(self):
        draws = _draws([5, 6, 7, 8, 9, 10, 11, 12], 64)
        words = [
            draws.words(step, site) for step in range(100) for site in range(10)
        ]
        flat = np.concatenate(words)
        assert flat.size == 8 * 100 * 10 * 64
        assert np.unique(flat).size == flat.size

    def test_a_seed_draws_the_same_solo_and_at_any_lane_position(self):
        n = 30
        solo = _draws([77], n)
        for seeds, lane in (([77, 1, 2], 0), ([1, 77, 2], 1), ([1, 2, 3, 77], 3)):
            batch = _draws(seeds, n)
            for step in (0, 1, 999, 10**6):
                for site in (SITE_SHARE, SITE_CHURN, SITE_SYBIL):
                    assert np.array_equal(
                        batch.words(step, site)[lane * n : (lane + 1) * n],
                        solo.words(step, site),
                    )
            counters = np.array([0, 5, 29, 5 * n + 7])
            assert np.array_equal(
                batch.at(4, SITE_VOTER_KEY, np.full(4, lane), counters),
                solo.at(4, SITE_VOTER_KEY, np.zeros(4, np.int64), counters),
            )

    def test_block_size_never_changes_a_value(self):
        """B = 1 (hash per step) and B = BLOCK_TARGET agree at every
        step, for every conversion, with two conversions of one site
        cached side by side; steps are served out of order, across
        block boundaries."""
        per_step, blocked = _draws([3, 4], 20), _draws([3, 4], 20)
        per_step.block, blocked.block = 1, BLOCK_TARGET
        for step in [0, 1, 2, 5, BLOCK_TARGET - 1, BLOCK_TARGET, 3, 2 * BLOCK_TARGET + 1]:
            for a, b in (
                (per_step.words(step, SITE_SOURCE), blocked.words(step, SITE_SOURCE)),
                (per_step.uniforms(step, SITE_REQUEST), blocked.uniforms(step, SITE_REQUEST)),
                (per_step.integers(step, SITE_EDIT, 4), blocked.integers(step, SITE_EDIT, 4)),
                (per_step.uniforms(step, SITE_EDIT), blocked.uniforms(step, SITE_EDIT)),
            ):
                assert np.array_equal(a, b)
        assert per_step._cache == {}

    def test_ad_hoc_counters_match_the_slot_draws(self):
        draws = _draws([9, 10], 16)
        lanes = np.array([0, 1, 1])
        slots = np.array([3, 0, 15])
        assert np.array_equal(
            draws.at(7, SITE_ARTICLE, lanes, slots),
            draws.words(7, SITE_ARTICLE)[lanes * 16 + slots],
        )

    def test_conversions(self):
        u = np.array([0, 2**11 - 1, 2**64 - 1, 2**63], dtype=np.uint64)
        assert to_uniform(u).tolist() == [0.0, 0.0, 1.0 - 2.0**-53, 0.5]
        assert to_below(u, 10).tolist() == [0, 0, 9, 5]
        assert to_below(u, np.array([1, 2, 3, 4])).tolist() == [0, 0, 2, 2]
        # One word (the overlay sampler's per-requester pick) converts alike.
        for word, expected in zip(u, [0, 0, 6, 3]):
            pick = to_below(word, 7)
            assert isinstance(pick, np.int64) and pick == expected

    def test_pickles_without_its_cache(self):
        draws = _draws([1, 2], 8)
        draws.uniforms(0, SITE_PROPOSE)
        assert draws._cache
        restored = pickle.loads(pickle.dumps(draws))
        assert restored._cache == {}
        assert np.array_equal(restored.keys, draws.keys)
        assert np.array_equal(restored.uniforms(3, SITE_PROPOSE), draws.uniforms(3, SITE_PROPOSE))

    def test_lane_key_depends_on_the_seed_alone(self):
        assert lane_key(5) == lane_key(5) != lane_key(6)
        assert isinstance(lane_key(5), np.uint64)
