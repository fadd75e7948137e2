"""The voter-subsample sort: one packed argsort in place of a lexsort.

``proposal_key_order`` packs ``(proposal << 53) | key`` into one uint64
per candidate.  That is exact only because every key the engine draws
is an integer below 2**53, which the last tests pin for the keys
``subsample_keys`` hashes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.phases.edit_vote import _SORT_BLOCK, proposal_key_order, subsample_keys
from repro.sim.rng import CounterDraws, lane_key


@st.composite
def grouped_candidates(draw, max_props=3000):
    """Non-decreasing proposal ids with 53-bit integer keys: some
    proposals all-zero (not oversubscribed), some sharing keys."""
    n_props = draw(st.integers(1, max_props))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 6, size=n_props)
    cand_prop = np.repeat(np.arange(n_props), counts)
    grid = rng.integers(0, 2**53, size=cand_prop.size, dtype=np.uint64)
    kind = draw(st.sampled_from(["uniform", "zeros", "duplicates", "mixed"]))
    if kind == "zeros":
        keys = np.zeros(cand_prop.size, dtype=np.uint64)
    elif kind == "duplicates":
        pool = grid[:3] if grid.size else np.zeros(1, dtype=np.uint64)
        keys = rng.choice(pool, size=cand_prop.size)
    elif kind == "mixed":
        zero_prop = rng.random(n_props) < 0.4
        keys = np.where(zero_prop[cand_prop], np.uint64(0), grid)
    else:
        keys = grid
    return cand_prop, keys


@settings(max_examples=60, deadline=None)
@given(grouped_candidates())
def test_packed_order_equals_lexsort(data):
    cand_prop, keys = data
    assert np.array_equal(
        proposal_key_order(cand_prop, keys), np.lexsort((keys, cand_prop))
    )


def test_packed_order_spans_several_blocks():
    rng = np.random.default_rng(7)
    n_props = 2 * _SORT_BLOCK + 5
    cand_prop = np.repeat(np.arange(n_props), rng.integers(1, 4, size=n_props))
    keys = rng.integers(0, 4, size=cand_prop.size).astype(np.uint64)  # many ties
    assert np.array_equal(
        proposal_key_order(cand_prop, keys), np.lexsort((keys, cand_prop))
    )


def test_packed_order_empty():
    empty = np.empty(0, dtype=np.int64)
    assert proposal_key_order(empty, np.empty(0, dtype=np.uint64)).size == 0


def _draws(n_agents=50, seeds=(2008, 7, 2008)):
    keys = np.array([lane_key(s) for s in seeds], dtype=np.uint64)
    return CounterDraws(keys, n_agents)


def test_subsample_keys_are_integers_below_2_pow_53():
    draws = _draws()
    rng = np.random.default_rng(0)
    size = 20_000
    keys = subsample_keys(
        draws,
        step=123,
        lanes=rng.integers(0, 3, size=size),
        proposers=rng.integers(0, 50, size=size),
        voters=rng.integers(0, 50, size=size),
        n_agents=50,
    )
    assert keys.dtype == np.uint64
    assert int(keys.max()) < 2**53
    # The top bits are used: the keys are not confined to a small range.
    assert int(keys.max()) > 2**52


def test_subsample_key_depends_on_the_pair_not_its_position():
    """A candidate's key is keyed by (lane, proposer, voter, step): the
    same pairs in another gather order get the same keys, and a lane with
    the same seed draws the same keys at any position."""
    draws = _draws()
    lanes = np.array([0, 0, 1, 2, 2])
    proposers = np.array([3, 3, 3, 3, 9])
    voters = np.array([1, 4, 1, 1, 4])
    keys = subsample_keys(draws, 40, lanes, proposers, voters, 50)
    perm = np.array([4, 2, 0, 3, 1])
    again = subsample_keys(draws, 40, lanes[perm], proposers[perm], voters[perm], 50)
    assert np.array_equal(again, keys[perm])
    assert keys[0] == keys[3]  # lanes 0 and 2 share the seed 2008
    assert keys[0] != keys[2]  # lane 1 has its own key
    assert keys[0] != keys[1]
    assert subsample_keys(draws, 41, lanes, proposers, voters, 50)[0] != keys[0]
