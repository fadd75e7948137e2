"""The voter-subsample sort: one packed argsort in place of a lexsort.

``proposal_key_order`` packs ``(proposal, key * 2**53)`` into one uint64
per candidate.  That is exact only because every key the engine draws is
a multiple of 2**-53, which the second test pins for the buffered
streams the keys come from.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.phases.edit_vote import _SORT_BLOCK, proposal_key_order
from repro.sim.rng import BufferedRNG, make_rng


@st.composite
def grouped_candidates(draw, max_props=3000):
    """Non-decreasing proposal ids with keys from the engine's grid: some
    proposals all-zero (a lane that drew no keys), some sharing keys."""
    n_props = draw(st.integers(1, max_props))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 6, size=n_props)
    cand_prop = np.repeat(np.arange(n_props), counts)
    grid = rng.integers(0, 2**53, size=cand_prop.size) / 2.0**53
    kind = draw(st.sampled_from(["uniform", "zeros", "duplicates", "mixed"]))
    if kind == "zeros":
        keys = np.zeros(cand_prop.size)
    elif kind == "duplicates":
        keys = rng.choice(grid[:3] if grid.size else [0.0], size=cand_prop.size)
    elif kind == "mixed":
        zero_lane = rng.random(n_props) < 0.4
        keys = np.where(zero_lane[cand_prop], 0.0, grid)
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
    keys = rng.integers(0, 4, size=cand_prop.size) / 4.0  # many ties
    assert np.array_equal(
        proposal_key_order(cand_prop, keys), np.lexsort((keys, cand_prop))
    )


def test_packed_order_empty():
    empty = np.empty(0, dtype=np.int64)
    assert proposal_key_order(empty, np.empty(0)).size == 0


def test_buffered_uniforms_sit_on_the_2_pow_53_grid():
    rng = BufferedRNG(make_rng(2008), block=1000)
    for size in (1, 7, 999, 1000, 2500):  # within, across and past a block
        scaled = rng.random(size) * 2.0**53
        assert np.array_equal(scaled, np.floor(scaled))
        assert scaled.max() < 2.0**53
