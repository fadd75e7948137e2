"""Tests for the behaviour engine composing the three peer types.

The engine stacks lanes; these cases run it at ``R = 1``, the shape a
solo run builds.
"""

import numpy as np
import pytest

from repro.agents.actions import EditActionSpace, SharingActionSpace
from repro.agents.behaviors import BatchedBehaviorEngine
from repro.agents.qlearning import VectorQLearner
from repro.network.peer import ALTRUISTIC, IRRATIONAL, RATIONAL


def make_engine(types, n_learner_rows):
    types = np.asarray([types], dtype=np.int8)
    sharing = SharingActionSpace()
    edit = EditActionSpace()
    return BatchedBehaviorEngine(
        types,
        sharing,
        edit,
        VectorQLearner(n_learner_rows, 10, sharing.n_actions),
        VectorQLearner(n_learner_rows, 10, edit.n_actions),
    )


class TestBehaviorEngine:
    def test_fixed_types_constant_actions(self, rng):
        types = [ALTRUISTIC, IRRATIONAL, ALTRUISTIC]
        # No rational peers: the learners hold one placeholder row.
        engine = make_engine(types, 1)
        sharing, edit = engine.sharing_space, engine.edit_space
        states = np.zeros(0, dtype=np.int64)
        assert engine.sharing_actions(states, 1.0, rng).tolist() == [
            sharing.max_action, sharing.min_action, sharing.max_action
        ]
        assert engine.edit_actions(states, float("inf"), rng).tolist() == [
            edit.constructive_action, edit.destructive_action, edit.constructive_action
        ]
        with pytest.raises(ValueError):
            make_engine(types, 2)  # sized for peers that do not exist

    def test_mixed_population_actions(self, rng):
        types = [RATIONAL, ALTRUISTIC, IRRATIONAL, RATIONAL]
        engine = make_engine(types, 2)
        sharing, edit = engine.sharing_space, engine.edit_space
        states = np.zeros(2, dtype=np.int64)
        actions = engine.sharing_actions(states, 1.0, rng)
        assert actions[1] == sharing.max_action  # altruist
        assert actions[2] == sharing.min_action  # irrational
        assert 0 <= actions[0] < sharing.n_actions

        edit_actions = engine.edit_actions(states, 1.0, rng)
        assert edit_actions[1] == edit.constructive_action
        assert edit_actions[2] == edit.destructive_action

    def test_learning_only_touches_rational(self, rng):
        engine = make_engine([RATIONAL, ALTRUISTIC], 1)
        ql_s, sharing = engine.sharing_learner, engine.sharing_space
        states = np.zeros(1, dtype=np.int64)
        actions = np.array([2, sharing.max_action])
        rewards = np.array([5.0, 99.0])
        engine.learn_sharing(states, actions, rewards, states)
        # Rational agent's Q updated with its own reward.
        assert ql_s.q[0, 0, 2] > 0
        # The altruist's "reward" was never consumed anywhere else.
        assert ql_s.q[0, 0, sharing.max_action] == 0.0

    def test_learner_size_validated(self):
        types = np.array([[RATIONAL, RATIONAL]], dtype=np.int8)
        sharing = SharingActionSpace()
        edit = EditActionSpace()
        with pytest.raises(ValueError):
            BatchedBehaviorEngine(
                types,
                sharing,
                edit,
                VectorQLearner(1, 10, sharing.n_actions),
                VectorQLearner(2, 10, edit.n_actions),
            )
