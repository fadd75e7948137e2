"""Tests for the lane-stacked article store: founders, books, voter order."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.articles import ArticleStore
from repro.sim.backends import KERNELS
from repro.sim.config import SimulationConfig
from repro.sim.engine import CollaborationSimulation


def make_store(lanes=1, n_articles=5, n_peers=20, founders=4, seed=12345):
    rngs = [np.random.default_rng(seed + r) for r in range(lanes)]
    return ArticleStore(n_articles, n_peers, rngs, founders_per_article=founders)


@pytest.fixture
def store():
    return make_store()


def book_one(store, row, editor, constructive):
    """Book one accepted edit the way the edit-vote phase does."""
    held = editor in store.voter_order[row, : store.n_voters[row]].tolist()
    store.book(
        np.array([row]), np.array([editor]), np.array([constructive]),
        np.array([not held]),
    )


class ReferenceArticles:
    """The per-article voter sets the store replaced, driven by the same
    calls: founders through a generator into ``set.update``, then one
    ``add`` per accepted edit."""

    def __init__(self, n_articles, n_peers, rngs, founders_per_article):
        self.voter_ids = []
        for rng in rngs:
            for _ in range(n_articles):
                founders = rng.choice(
                    n_peers, size=founders_per_article, replace=False
                )
                ids = set()
                ids.update(int(f) for f in founders)
                self.voter_ids.append(ids)
        self.quality = np.zeros(len(self.voter_ids))

    def record_accepted(self, row, editor, constructive):
        self.quality[row] += 1.0 if constructive else -1.0
        self.voter_ids[row].add(int(editor))

    def voter_array(self, row):
        ids = self.voter_ids[row]
        return np.fromiter(ids, dtype=np.int64, count=len(ids))


class TestBootstrap:
    def test_founder_seeding(self, store):
        assert (store.n_voters == 4).all()
        for a in range(5):
            voters = store.voters(0, a)
            assert len(set(voters.tolist())) == 4
            assert voters.min() >= 0 and voters.max() < 20

    def test_founders_unique_per_article(self):
        store = make_store(n_articles=3, n_peers=10, founders=10)
        for a in range(3):
            assert sorted(store.voters(0, a).tolist()) == list(range(10))

    def test_founders_drawn_per_lane(self):
        stacked = make_store(lanes=2, seed=7)
        for lane in range(2):
            solo = make_store(lanes=1, seed=7 + lane)
            for a in range(5):
                assert np.array_equal(stacked.voters(lane, a), solo.voters(0, a))

    def test_rejects_bad_params(self):
        rngs = [np.random.default_rng(0)]
        with pytest.raises(ValueError):
            ArticleStore(0, 10, rngs)
        with pytest.raises(ValueError):
            ArticleStore(1, 10, rngs, founders_per_article=0)
        with pytest.raises(ValueError):
            ArticleStore(1, 5, rngs, founders_per_article=6)
        with pytest.raises(ValueError):
            ArticleStore(1, 5, [])


class TestEligibleVoters:
    def test_gather_concatenates_rows_in_gather_order(self, store):
        rows = np.array([0, 3, 0])
        cand, counts = store.gather(rows)
        assert counts.tolist() == [4, 4, 4]
        expected = [store.voters(0, a) for a in (0, 3, 0)]
        assert np.array_equal(cand, np.concatenate(expected))

    def test_filters_by_vote_rights(self, store):
        cand, counts = store.gather(np.array([0]))
        proposer = np.array([19 if 19 not in cand else 18])
        none_vote = np.zeros(20, dtype=bool)
        voters, _ = KERNELS.filter_vote_candidates(
            cand, counts, proposer, np.zeros(1, np.int64), none_vote, False, 20, 64
        )
        assert voters.size == 0
        voters, _ = KERNELS.filter_vote_candidates(
            cand, counts, proposer, np.zeros(1, np.int64), ~none_vote, True, 20, 64
        )
        assert voters.tolist() == store.voters(0, 0).tolist()

    def test_excludes_editor(self, store):
        cand, counts = store.gather(np.array([0]))
        editor = int(cand[0])  # a founder proposing an edit of its own
        voters, _ = KERNELS.filter_vote_candidates(
            cand, counts, np.array([editor]), np.zeros(1, np.int64),
            np.ones(20, dtype=bool), True, 20, 64,
        )
        assert editor not in voters.tolist()
        assert voters.size == 3


class TestOutcomes:
    def test_accepted_constructive_edit(self, store):
        editor = next(i for i in range(20) if i not in store.voters(0, 1).tolist())
        book_one(store, 1, editor, True)
        assert store.quality[1] == 1.0
        assert store.n_versions[1] == 1
        assert store.n_constructive[1] == 1
        assert editor in store.voters(0, 1).tolist()  # gains vote rights
        assert store.n_voters[1] == 5

    def test_accepted_destructive_edit_lowers_quality(self, store):
        book_one(store, 1, 13, False)
        assert store.quality[1] == -1.0
        assert store.n_destructive[1] == 1

    def test_repeat_editor_holds_one_right(self, store):
        editor = int(store.voters(0, 2)[0])
        book_one(store, 2, editor, True)
        assert store.n_voters[2] == 4
        assert store.voters(0, 2).tolist().count(editor) == 1

    def test_rejected_edit_leaves_no_trace(self):
        """Voting rights come from founding or an accepted edit only."""
        cfg = SimulationConfig(
            n_agents=30, n_articles=4, founders_per_article=3,
            training_steps=60, eval_steps=20, seed=3, collect_events=True,
        )
        sim = CollaborationSimulation(cfg)
        founders = [set(sim.articles.voters(0, a).tolist()) for a in range(4)]
        result = sim.run()
        edits = result.events.edits
        assert any(not e.accepted for e in edits)
        for a in range(4):
            accepted = [e.editor_id for e in edits if e.article_id == a and e.accepted]
            assert set(sim.articles.voters(0, a).tolist()) == founders[a] | set(accepted)
            assert sim.articles.n_versions[a] == len(accepted)

    def test_aggregate_views(self):
        store = make_store(lanes=2)
        book_one(store, 0, 1, True)
        book_one(store, 1, 2, False)
        book_one(store, store.row(1, 0), 3, True)
        assert store.accepted_counts() == (1, 1)
        assert store.total_quality() == 0.0
        assert store.accepted_counts(lane=1) == (1, 0)
        assert store.total_quality(lane=1) == 1.0

    def test_rows_widen_past_founders(self, store):
        newcomers = [i for i in range(20) if i not in store.voters(0, 4).tolist()]
        for editor in newcomers:
            book_one(store, 4, editor, True)
        assert sorted(store.voters(0, 4).tolist()) == list(range(20))
        assert store.voter_log.shape[1] == 20  # never wider than n_peers
        assert store.n_voters[:4].tolist() == [4, 4, 4, 4]


class TestSampling:
    def test_sample_articles_in_range(self):
        cfg = SimulationConfig(
            n_agents=20, n_articles=5, founders_per_article=3,
            training_steps=30, eval_steps=10, seed=5, collect_events=True,
        )
        edits = CollaborationSimulation(cfg).run().events.edits
        picks = {e.article_id for e in edits}
        assert picks <= set(range(5)) and len(picks) > 1

    def test_row_layout(self):
        store = make_store(lanes=3, n_articles=5)
        assert store.n_lanes == 3 and store.quality.shape == (15,)
        assert store.row(2, 4) == 14
        assert store.voter_order.shape == store.voter_log.shape == (15, 4)


def _accept_batches(seed, lanes, n_articles, n_peers, n_batches):
    """Random accepted-edit batches shaped like the edit-vote phase's:
    distinct editors per lane, each on a random article of its lane."""
    rng = np.random.default_rng(seed)
    for _ in range(n_batches):
        rows, editors = [], []
        for lane in range(lanes):
            k = int(rng.integers(0, n_peers // 2))
            who = rng.choice(n_peers, size=k, replace=False)
            rows.extend(lane * n_articles + rng.integers(0, n_articles, size=k))
            editors.extend(who)
        yield (
            np.asarray(rows, dtype=np.int64),
            np.asarray(editors, dtype=np.int64),
            rng.random(len(rows)) < 0.7,
        )


class TestGatherOrder:
    """The stored gather order equals the replaced sets' iteration order."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lanes=st.integers(1, 3),
        n_peers=st.integers(4, 70),
        pickle_at=st.integers(0, 12),
    )
    def test_matches_reference_sets(self, seed, lanes, n_peers, pickle_at):
        n_articles, founders = 3, min(4, n_peers)
        store = ArticleStore(
            n_articles, n_peers,
            [np.random.default_rng(seed + r) for r in range(lanes)],
            founders_per_article=founders,
        )
        ref = ReferenceArticles(
            n_articles, n_peers,
            [np.random.default_rng(seed + r) for r in range(lanes)],
            founders,
        )
        batches = _accept_batches(seed, lanes, n_articles, n_peers, 12)
        for step, (rows, editors, constructive) in enumerate(batches):
            if step == pickle_at:
                store = pickle.loads(pickle.dumps(store))
            held = np.array([
                int(e) in ref.voter_ids[r] for r, e in zip(rows, editors)
            ], dtype=bool)
            store.book(rows, editors, constructive, ~held)
            for r, e, c in zip(rows, editors, constructive):
                ref.record_accepted(int(r), int(e), bool(c))
        assert np.array_equal(store.quality, ref.quality)
        for row in range(lanes * n_articles):
            lane, article = divmod(row, n_articles)
            assert np.array_equal(store.voters(lane, article), ref.voter_array(row))
