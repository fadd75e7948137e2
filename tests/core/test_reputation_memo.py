"""The memoized reputation views of the ledger-backed schemes.

``ReputationIncentiveScheme`` and ``NoIncentiveScheme`` hand out one
read-only reputation array per state of each contribution book.  After
every path that writes a book, the view must equal a fresh evaluation
of the reputation function on that book; between writes it is the same
object.  The memo is derived data: a pickled scheme or state resumes
with equal values, and the state fingerprint never sees it.
"""

import pickle

import numpy as np
import pytest

from repro.core.incentives import NoIncentiveScheme, ReputationIncentiveScheme
from repro.sim.config import SimulationConfig
from repro.sim.engine import CollaborationSimulation
from repro.sim.phases import step_state
from tests.sim.testing import compare_fingerprints, state_fingerprint

N = 12


def _schemes():
    return [
        ReputationIncentiveScheme(N),
        ReputationIncentiveScheme(N // 2, n_replicates=2),
        NoIncentiveScheme(N),
    ]


def _fns(scheme):
    """The functions the scheme's two views evaluate."""
    if isinstance(scheme, NoIncentiveScheme):
        return scheme._flat, scheme._flat
    return scheme.fn_s, scheme.fn_e


def _assert_fresh(scheme):
    fn_s, fn_e = _fns(scheme)
    assert np.array_equal(scheme.reputation_s(), fn_s(scheme.ledger.sharing))
    assert np.array_equal(scheme.reputation_e(), fn_e(scheme.ledger.editing))


def _book_some(scheme, rng):
    scheme.record_sharing(rng.random(N), rng.random(N))
    scheme.record_editing(
        rng.integers(0, 3, N).astype(float), rng.integers(0, 2, N).astype(float)
    )


#: Every path that writes a contribution book, as a call on the scheme.
MUTATIONS = {
    "record_sharing": lambda s, rng: s.record_sharing(rng.random(N), rng.random(N)),
    "record_editing": lambda s, rng: s.record_editing(
        rng.integers(0, 3, N).astype(float), np.ones(N)
    ),
    "reset_peers": lambda s, rng: s.ledger.reset_peers(np.array([0, 3])),
    "reset_peers_sharing_only": lambda s, rng: s.ledger.reset_peers(
        np.array([1, 4]), editing=False
    ),
    "reset_peers_editing_only": lambda s, rng: s.ledger.reset_peers(
        np.array([2, 5]), sharing=False
    ),
    "reset_all": lambda s, rng: s.ledger.reset_all(),
    "reset_identities": lambda s, rng: s.reset_identities(np.array([0, 7])),
    "reset_reputations": lambda s, rng: s.reset_reputations(),
}


@pytest.mark.parametrize("scheme_idx", range(3), ids=["reputation", "reputation-R2", "none"])
@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_views_follow_every_book_write(scheme_idx, mutation):
    scheme = _schemes()[scheme_idx]
    rng = np.random.default_rng(7)
    for _ in range(3):
        _book_some(scheme, rng)
    _assert_fresh(scheme)
    MUTATIONS[mutation](scheme, rng)
    _assert_fresh(scheme)
    # And once more, so a write that follows a cached read is seen too.
    scheme.reputation_s(), scheme.reputation_e()
    _book_some(scheme, rng)
    MUTATIONS[mutation](scheme, rng)
    _assert_fresh(scheme)


@pytest.mark.parametrize("scheme_idx", range(3), ids=["reputation", "reputation-R2", "none"])
def test_one_view_per_state_of_each_book(scheme_idx):
    scheme = _schemes()[scheme_idx]
    rng = np.random.default_rng(1)
    _book_some(scheme, rng)
    rep_s, rep_e = scheme.reputation_s(), scheme.reputation_e()
    assert scheme.reputation_s() is rep_s
    assert scheme.reputation_e() is rep_e
    scheme.record_sharing(rng.random(N), rng.random(N))
    assert scheme.reputation_s() is not rep_s
    assert scheme.reputation_e() is rep_e  # C_E was not written
    scheme.ledger.reset_peers(np.array([2]), sharing=False)
    assert scheme.reputation_e() is not rep_e


@pytest.mark.parametrize("scheme_idx", range(3), ids=["reputation", "reputation-R2", "none"])
def test_views_reject_writes(scheme_idx):
    scheme = _schemes()[scheme_idx]
    for view in (scheme.reputation_s(), scheme.reputation_e()):
        assert not view.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            view[0] = 0.5


@pytest.mark.parametrize("scheme_idx", range(3), ids=["reputation", "reputation-R2", "none"])
def test_pickled_scheme_resumes_with_equal_views(scheme_idx):
    scheme = _schemes()[scheme_idx]
    rng = np.random.default_rng(3)
    for _ in range(4):
        _book_some(scheme, rng)
    before = scheme.reputation_s(), scheme.reputation_e()
    clone = pickle.loads(pickle.dumps(scheme))
    assert clone._memo_s.key is None and clone._memo_e.key is None
    assert np.array_equal(clone.reputation_s(), before[0])
    assert np.array_equal(clone.reputation_e(), before[1])
    for s in (scheme, clone):
        _book_some(s, np.random.default_rng(11))
    assert np.array_equal(clone.reputation_s(), scheme.reputation_s())
    assert np.array_equal(clone.reputation_e(), scheme.reputation_e())
    _assert_fresh(clone)


def _config(**overrides):
    return SimulationConfig(
        n_agents=20, n_articles=5, founders_per_article=3,
        training_steps=40, eval_steps=30, seed=4, **overrides,
    )


@pytest.mark.parametrize(
    "overrides",
    [{}, dict(whitewash_rate=0.05, sybil_fraction=0.2, sybil_rate=0.1)],
    ids=["plain", "churn-sybil"],
)
def test_pickled_state_resumes_bit_identically(overrides):
    """A state pickled mid-run (memos full) continues exactly like the
    uninterrupted run, and the memos never enter the fingerprint."""
    cfg = _config(**overrides)
    whole = CollaborationSimulation(cfg).state
    part = CollaborationSimulation(cfg).state
    for state in (whole, part):
        for _ in range(25):
            step_state(state, float("inf"))
    assert part.memo_s.key is not None and part.scheme._memo_s.key is not None
    before = state_fingerprint(part)
    assert not any("memo" in path for path in before)
    part = pickle.loads(pickle.dumps(part))
    assert part.memo_s.key is None and part.scheme._memo_s.key is None
    assert compare_fingerprints(state_fingerprint(part), before) == []
    for state in (whole, part):
        for _ in range(20):
            step_state(state, 1.0)
    assert compare_fingerprints(state_fingerprint(part), state_fingerprint(whole)) == []
