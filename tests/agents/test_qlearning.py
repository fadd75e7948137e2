"""Tests for vectorized Q-learning and Boltzmann exploration (Figure 2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents.qlearning import (
    VectorQLearner,
    boltzmann_probabilities,
    sample_categorical,
)


class TestBoltzmannProbabilities:
    def test_paper_figure2_t2_concentrates(self):
        """At T=2 the mass concentrates on the highest values."""
        q = np.arange(1, 11, dtype=np.float64)[None, :]
        p = boltzmann_probabilities(q, 2.0)[0]
        assert p[-1] > 0.35
        assert np.all(np.diff(p) > 0)

    def test_paper_figure2_t1000_near_uniform(self):
        q = np.arange(1, 11, dtype=np.float64)[None, :]
        p = boltzmann_probabilities(q, 1000.0)[0]
        assert np.all(np.abs(p - 0.1) < 0.002)

    def test_infinite_temperature_exactly_uniform(self):
        """The paper's training regime: T = max float -> uniform."""
        q = np.array([[0.0, 100.0, -50.0]])
        p = boltzmann_probabilities(q, np.inf)
        assert np.allclose(p, 1 / 3)

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        q = rng.normal(size=(20, 7))
        p = boltzmann_probabilities(q, 1.0)
        assert np.allclose(p.sum(axis=1), 1.0)

    def test_numerically_stable_for_large_q(self):
        q = np.array([[1e6, 1e6 - 1.0]])
        p = boltzmann_probabilities(q, 1.0)
        assert np.all(np.isfinite(p))
        assert p[0, 0] > p[0, 1]

    def test_low_temperature_approaches_greedy(self):
        q = np.array([[1.0, 2.0, 3.0]])
        p = boltzmann_probabilities(q, 0.01)
        assert p[0, 2] > 0.999

    def test_temperature_validation(self):
        with pytest.raises(ValueError):
            boltzmann_probabilities(np.array([[1.0, 2.0]]), 0.0)
        with pytest.raises(ValueError):
            boltzmann_probabilities(np.array([[1.0, 2.0]]), -1.0)

    def test_three_dimensional_input(self):
        q = np.zeros((4, 5, 3))
        p = boltzmann_probabilities(q, 1.0)
        assert p.shape == (4, 5, 3)
        assert np.allclose(p.sum(axis=-1), 1.0)

    @given(st.floats(min_value=0.01, max_value=1e6), st.integers(0, 100))
    @settings(max_examples=50, deadline=None)
    def test_property_valid_distribution(self, t, seed):
        rng = np.random.default_rng(seed)
        q = rng.normal(scale=5.0, size=(3, 6))
        p = boltzmann_probabilities(q, t)
        assert np.all(p >= 0)
        assert np.allclose(p.sum(axis=1), 1.0)

    @given(st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_property_order_preserved(self, seed):
        """Higher Q-value never gets lower probability."""
        rng = np.random.default_rng(seed)
        q = rng.normal(size=(1, 5))
        p = boltzmann_probabilities(q, 1.0)[0]
        order_q = np.argsort(q[0])
        assert np.all(np.diff(p[order_q]) >= -1e-12)


class TestSampleCategorical:
    def test_respects_distribution(self, rng):
        p = np.tile(np.array([0.8, 0.1, 0.1]), (5000, 1))
        samples = sample_categorical(p, rng)
        counts = np.bincount(samples, minlength=3) / 5000
        assert counts[0] == pytest.approx(0.8, abs=0.03)

    def test_degenerate_distribution(self, rng):
        p = np.tile(np.array([0.0, 1.0, 0.0]), (100, 1))
        samples = sample_categorical(p, rng)
        assert np.all(samples == 1)

    def test_requires_2d(self, rng):
        with pytest.raises(ValueError):
            sample_categorical(np.array([0.5, 0.5]), rng)

    def test_samples_in_range(self, rng):
        p = np.full((1000, 4), 0.25)
        samples = sample_categorical(p, rng)
        assert samples.min() >= 0 and samples.max() <= 3

    @pytest.mark.parametrize("bad", [1.0, 1.5, -0.25, np.nan])
    def test_rejects_uniforms_outside_unit_interval(self, bad):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            sample_categorical(np.array([[0.5, 0.5]]), u=np.array([[bad]]))

    def test_accepts_zero_uniform(self):
        p = np.array([[0.5, 0.5]])
        assert sample_categorical(p, u=np.array([[0.0]])).tolist() == [0]


class TestVectorQLearner:
    def test_update_formula(self):
        ql = VectorQLearner(1, 2, 2, learning_rate=0.5, discount=0.9)
        ql.q[0, 1, 1] = 10.0  # best next value
        ql.update(
            states=np.array([0]),
            actions=np.array([0]),
            rewards=np.array([2.0]),
            next_states=np.array([1]),
        )
        # Q <- (1-0.5)*0 + 0.5*(2 + 0.9*10) = 5.5
        assert ql.q[0, 0, 0] == pytest.approx(5.5)

    def test_agents_independent(self):
        ql = VectorQLearner(3, 2, 2)
        ql.update(
            states=np.array([0, 0, 0]),
            actions=np.array([0, 1, 0]),
            rewards=np.array([1.0, 2.0, 0.0]),
            next_states=np.array([0, 0, 0]),
        )
        assert ql.q[0, 0, 0] > 0
        assert ql.q[1, 0, 0] == 0.0
        assert ql.q[1, 0, 1] > 0

    def test_convergence_to_reward(self):
        """Repeated updates converge Q to r / (1 - gamma) for a constant
        reward and a single state."""
        ql = VectorQLearner(1, 1, 2, learning_rate=0.2, discount=0.5)
        for _ in range(1000):
            ql.update(
                states=np.array([0]),
                actions=np.array([0]),
                rewards=np.array([1.0]),
                next_states=np.array([0]),
            )
        assert ql.q[0, 0, 0] == pytest.approx(2.0, rel=1e-3)

    def test_select_actions_greedy_limit(self, rng):
        ql = VectorQLearner(2, 1, 3)
        ql.q[:, 0, 2] = 100.0
        actions = ql.select_actions(np.array([0, 0]), temperature=0.01, rng=rng)
        assert actions.tolist() == [2, 2]

    def test_select_actions_infinite_t_uniform(self, rng):
        ql = VectorQLearner(2000, 1, 4)
        ql.q[:, 0, 0] = 1e9  # must be ignored at T = inf
        actions = ql.select_actions(
            np.zeros(2000, dtype=np.int64), temperature=np.inf, rng=rng
        )
        counts = np.bincount(actions, minlength=4) / 2000
        assert np.all(np.abs(counts - 0.25) < 0.06)

    def test_subset_selection(self, rng):
        ql = VectorQLearner(5, 2, 3)
        subset = np.array([1, 3])
        actions = ql.select_actions(
            np.array([0, 1]), temperature=1.0, rng=rng, subset=subset
        )
        assert actions.shape == (2,)

    def test_greedy_actions(self):
        ql = VectorQLearner(2, 2, 3)
        ql.q[0, 0, 1] = 5.0
        ql.q[1, 0, 2] = 5.0
        greedy = ql.greedy_actions(np.array([0, 0]))
        assert greedy.tolist() == [1, 2]

    def test_misaligned_update_rejected(self):
        ql = VectorQLearner(2, 2, 2)
        with pytest.raises(ValueError):
            ql.update(
                states=np.array([0]),
                actions=np.array([0, 1]),
                rewards=np.array([1.0, 1.0]),
                next_states=np.array([0, 0]),
            )

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            VectorQLearner(0, 1, 2)
        with pytest.raises(ValueError):
            VectorQLearner(1, 1, 1)
        with pytest.raises(ValueError):
            VectorQLearner(1, 1, 2, learning_rate=0.0)
        with pytest.raises(ValueError):
            VectorQLearner(1, 1, 2, discount=1.0)

    def test_reset_and_copy(self):
        ql = VectorQLearner(2, 2, 2)
        ql.q[:] = 7.0
        clone = ql.copy()
        ql.reset()
        assert np.all(ql.q == 0.0)
        assert np.all(clone.q == 7.0)

    def test_learning_beats_random_on_bandit(self, rng):
        """End-to-end sanity: Q-learning finds the best arm of a bandit."""
        ql = VectorQLearner(10, 1, 3, learning_rate=0.1, discount=0.0)
        true_rewards = np.array([0.1, 0.9, 0.4])
        states = np.zeros(10, dtype=np.int64)
        for _ in range(400):
            actions = ql.select_actions(states, temperature=0.3, rng=rng)
            rewards = true_rewards[actions] + rng.normal(0, 0.05, size=10)
            ql.update(states, actions, rewards, states)
        greedy = ql.greedy_actions(states)
        assert np.all(greedy == 1)


# ----------------------------------------------------------------------
# Identity of the row-id paths with the fancy-indexed reference
# ----------------------------------------------------------------------
def reference_q_update(q, idx, states, actions, rewards, next_states, lr, gamma):
    """The fancy-indexed TD backup that the ``q_update`` kernel reproduces."""
    best_next = q[idx, next_states].max(axis=1)
    target = rewards + gamma * best_next
    current = q[idx, states, actions]
    q[idx, states, actions] = (1.0 - lr) * current + lr * target


def _values(rng, shape, scale):
    """Few distinct values (many ties) mixed with continuous ones, scaled.

    No negative zeros: a table the learner fills from a +0.0 start with a
    learning rate below 1 never holds one.
    """
    ties = rng.integers(-3, 4, size=shape).astype(np.float64)
    return np.where(rng.random(shape) < 0.6, ties, rng.normal(size=shape)) * scale


SCALES = st.sampled_from([1.0, 0.1, 1e6, 1e150, 1e300])


def _bits_equal(a, b):
    return np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


class TestRowIdIdentity:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_actions=st.sampled_from([2, 4, 9]),
        scale=SCALES,
        per_agent=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_q_update_matches_fancy_indexed_backup(
        self, seed, n_actions, scale, per_agent
    ):
        rng = np.random.default_rng(seed)
        n, s = int(rng.integers(1, 12)), int(rng.integers(1, 6))
        k = int(rng.integers(1, n + 1))
        lr = rng.uniform(0.05, 1.0, n) if per_agent else 0.3
        gamma = rng.uniform(0.0, 0.99, n) if per_agent else 0.9
        ql = VectorQLearner(n, s, n_actions, learning_rate=lr, discount=gamma)
        ql.q[:] = _values(rng, ql.q.shape, scale)
        idx = rng.choice(n, size=k, replace=False)  # a non-identity subset
        states, next_states = rng.integers(0, s, (2, k))
        actions = rng.integers(0, n_actions, k)
        rewards = _values(rng, k, scale)

        expected = ql.q.copy()
        reference_q_update(
            expected,
            idx,
            states,
            actions,
            rewards,
            next_states,
            lr[idx] if per_agent else lr,
            gamma[idx] if per_agent else gamma,
        )
        ql.update(states, actions, rewards, next_states, subset=idx)
        assert _bits_equal(ql.q, expected)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_actions=st.sampled_from([2, 4, 9]),
        scale=SCALES,
        temperature=st.sampled_from([0.01, 0.5, 1.0, 40.0, "per-row"]),
        full=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_select_actions_matches_reference_draw(
        self, seed, n_actions, scale, temperature, full
    ):
        rng = np.random.default_rng(seed)
        n, s = int(rng.integers(1, 40)), int(rng.integers(1, 6))
        ql = VectorQLearner(n, s, n_actions)
        ql.q[:] = _values(rng, ql.q.shape, scale)
        idx = np.arange(n) if full else rng.choice(n, int(rng.integers(1, n + 1)), replace=False)
        k = idx.size
        states = rng.integers(0, s, k)
        if temperature == "per-row":
            temperature = rng.choice([0.01, 0.3, 2.0, 1e3, np.inf], size=k)
        probs = boltzmann_probabilities(ql.q[idx, states], temperature)
        cdf = np.cumsum(probs, axis=1)
        u = rng.random((k, 1))
        u[0] = 0.0
        # Uniforms that equal a CDF entry exactly (ties of u and the CDF);
        # rounding can push an entry past 1.0, where no uniform lies.
        entry = cdf[np.arange(k), rng.integers(0, n_actions - 1, k)]
        tied = (rng.random(k) < 0.3) & (entry < 1.0)
        u[tied, 0] = entry[tied]
        expected = sample_categorical(probs, u=u)

        got = ql.select_actions(states, temperature, subset=None if full else idx, u=u)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)

    def test_select_actions_draws_the_reference_uniforms(self):
        ql = VectorQLearner(50, 4, 9)
        ql.q[:] = np.random.default_rng(2).normal(size=ql.q.shape)
        states = np.random.default_rng(3).integers(0, 4, 50)
        rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        got = ql.select_actions(states, 0.5, rng=rng_a)
        expected = sample_categorical(
            boltzmann_probabilities(ql.q[np.arange(50), states], 0.5), rng_b
        )
        assert np.array_equal(got, expected)
        assert rng_a.random() == rng_b.random()  # same stream position

    def test_infinite_temperature_keeps_integer_stream(self):
        ql = VectorQLearner(30, 2, 4)
        states = np.zeros(30, dtype=np.int64)
        got = ql.select_actions(states, np.inf, rng=np.random.default_rng(5))
        assert np.array_equal(got, np.random.default_rng(5).integers(0, 4, size=30))

    def test_select_actions_checks(self, rng):
        ql = VectorQLearner(4, 2, 3)
        states = np.zeros(4, dtype=np.int64)
        u = np.full((4, 1), 0.5)
        with pytest.raises(ValueError, match="align"):
            ql.select_actions(states[:3], 1.0, u=u)
        with pytest.raises(ValueError, match="align"):
            ql.select_actions(states, 1.0, subset=np.array([0, 1]), u=u)
        for bad in (0.0, -1.0, np.array([1.0, 0.0, 1.0, 1.0])):
            with pytest.raises(ValueError, match="positive"):
                ql.select_actions(states, bad, u=u)
        with pytest.raises(ValueError, match="shape"):
            ql.select_actions(states, 1.0, u=np.full((4,), 0.5))
        with pytest.raises(ValueError, match="rng"):
            ql.select_actions(states, 1.0)
        with pytest.raises(ValueError, match="rng"):
            ql.select_actions(states, np.inf, u=u)

    def test_greedy_actions_match_reference_argmax(self):
        rng = np.random.default_rng(4)
        ql = VectorQLearner(20, 3, 9)
        ql.q[:] = rng.integers(-2, 3, size=ql.q.shape)  # ties: lowest index wins
        states = rng.integers(0, 3, 20)
        assert np.array_equal(
            ql.greedy_actions(states), ql.q[np.arange(20), states].argmax(axis=1)
        )

    def test_fortran_ordered_table_receives_the_td_write(self):
        rng = np.random.default_rng(6)
        ql = VectorQLearner(6, 3, 4, learning_rate=0.5, discount=0.9)
        table = rng.normal(size=ql.q.shape)
        ql.q = np.asfortranarray(table)
        q_obj = ql.q
        states, next_states = rng.integers(0, 3, (2, 6))
        actions = rng.integers(0, 4, 6)
        rewards = rng.normal(size=6)
        expected = table.copy()
        reference_q_update(
            expected, np.arange(6), states, actions, rewards, next_states, 0.5, 0.9
        )
        ql.update(states, actions, rewards, next_states)
        assert ql.q is q_obj and ql.q.flags.f_contiguous
        assert _bits_equal(ql.q, expected)
        u = rng.random((6, 1))
        assert np.array_equal(
            ql.select_actions(states, 0.7, u=u),
            sample_categorical(boltzmann_probabilities(expected[np.arange(6), states], 0.7), u=u),
        )

    def test_unpickled_learner_updates_its_own_table(self):
        import pickle

        ql = pickle.loads(pickle.dumps(VectorQLearner(3, 2, 2, learning_rate=1.0)))
        ql.update(np.zeros(3, int), np.ones(3, int), np.full(3, 2.0), np.zeros(3, int))
        assert ql.q[:, 0, 1].tolist() == [2.0, 2.0, 2.0]
