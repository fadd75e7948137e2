"""The bincount kernels against the scatter-adds they replaced.

``grouped_shares``, ``settle_downloads`` and ``tally_votes`` total their
weights per group with ``np.bincount``; the references below are the
``np.add.at`` versions over zeroed targets.  Both add each weight into
its group in input order starting from ``0.0``, so the kernels must
match bit for bit, also for weights spread over many orders of
magnitude (where any other summation order would round differently).
``ArticleStore.book`` sums whole numbers per row and must equal its
element-by-element scatter-add reference exactly.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.articles import ArticleStore
from repro.sim.backends import KERNELS


def reference_grouped_shares(group_ids, weights, n_groups):
    totals = np.zeros(n_groups)
    np.add.at(totals, group_ids, weights)
    counts = np.bincount(group_ids, minlength=n_groups)
    group_total = totals[group_ids]
    degenerate = group_total <= 0.0
    shares = np.empty_like(weights)
    np.divide(weights, group_total, out=shares, where=~degenerate)
    shares[degenerate] = 1.0 / counts[group_ids[degenerate]]
    return shares


def reference_settle_downloads(
    downloader_ids, source_ids, shares, offered, capacity, n_peers
):
    received = np.zeros(n_peers)
    served = np.zeros(n_peers)
    amount = offered[source_ids] * capacity[source_ids] * shares
    received[downloader_ids] = amount
    np.add.at(served, source_ids, amount)
    return received, served


def reference_tally_votes(flat_prop, weights, votes_for, n_prop):
    for_weight = np.zeros(n_prop)
    np.add.at(for_weight, flat_prop[votes_for], weights[votes_for])
    return for_weight


def _weights(rng, k):
    """Non-negative weights over ~40 orders of magnitude, with exact zeros."""
    w = rng.random(k) * 10.0 ** rng.integers(-20, 20, size=k)
    w[rng.random(k) < 0.15] = 0.0
    return w


def _bits_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


SEEDS = st.integers(0, 2**32 - 1)


@given(seed=SEEDS)
@settings(max_examples=200, deadline=None)
def test_grouped_shares_matches_add_at(seed):
    rng = np.random.default_rng(seed)
    n_groups = int(rng.integers(1, 30))
    k = int(rng.integers(0, 200))
    group_ids = rng.integers(0, n_groups, size=k)
    weights = _weights(rng, k)
    got = KERNELS.grouped_shares(group_ids, weights, n_groups)
    assert _bits_equal(got, reference_grouped_shares(group_ids, weights, n_groups))


@given(seed=SEEDS)
@settings(max_examples=200, deadline=None)
def test_settle_downloads_matches_add_at(seed):
    rng = np.random.default_rng(seed)
    n_peers = int(rng.integers(1, 60))
    # One request per downloader at most, sources repeat freely.
    k = int(rng.integers(0, n_peers + 1))
    downloader_ids = rng.permutation(n_peers)[:k]
    source_ids = rng.integers(0, n_peers, size=k)
    shares = rng.random(k)
    offered = rng.choice([0.0, 0.25, 0.5, 1.0], size=n_peers)
    capacity = rng.lognormal(0.0, 1.0, size=n_peers) * 10.0 ** rng.integers(
        -15, 15, size=n_peers
    )
    got = KERNELS.settle_downloads(
        downloader_ids, source_ids, shares, offered, capacity, n_peers
    )
    want = reference_settle_downloads(
        downloader_ids, source_ids, shares, offered, capacity, n_peers
    )
    for g, w in zip(got, want):
        assert _bits_equal(g, w)


@given(seed=SEEDS)
@settings(max_examples=200, deadline=None)
def test_tally_votes_matches_add_at(seed):
    rng = np.random.default_rng(seed)
    n_prop = int(rng.integers(1, 40))
    counts = rng.integers(0, 12, size=n_prop)
    flat_prop = np.repeat(np.arange(n_prop), counts)
    weights = KERNELS.grouped_shares(flat_prop, _weights(rng, flat_prop.size), n_prop)
    votes_for = rng.random(flat_prop.size) < 0.6
    got = KERNELS.tally_votes(flat_prop, weights, votes_for, n_prop)
    assert _bits_equal(
        got, reference_tally_votes(flat_prop, weights, votes_for, n_prop)
    )


@given(seed=SEEDS)
@settings(max_examples=100, deadline=None)
def test_book_matches_add_at(seed):
    rng = np.random.default_rng(seed)
    lanes, n_articles, n_peers = int(rng.integers(1, 4)), 6, 20
    store = ArticleStore(
        n_articles, n_peers,
        [np.random.default_rng(seed + r) for r in range(lanes)],
        founders_per_article=3,
    )
    books = {
        name: getattr(store, name).copy()
        for name in ("quality", "n_versions", "n_constructive", "n_destructive")
    }
    for _ in range(5):
        k = int(rng.integers(0, 25))
        rows = rng.integers(0, lanes * n_articles, size=k)
        constructive = rng.random(k) < 0.6
        store.book(
            rows, rng.integers(0, n_peers, size=k), constructive, np.zeros(k, bool)
        )
        np.add.at(books["n_versions"], rows, 1)
        np.add.at(books["quality"], rows, np.where(constructive, 1.0, -1.0))
        np.add.at(books["n_constructive"], rows, constructive)
        np.add.at(books["n_destructive"], rows, ~constructive)
    for name, want in books.items():
        assert _bits_equal(getattr(store, name), want), name
