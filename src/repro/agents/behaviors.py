"""Behaviour policies: rational (Q-learning), altruistic, irrational.

Paper section IV-B convention: "rational peers always try to maximize
their benefit, irrational ones are always free-riders with regard to
sharing as well as destructive editors and voters.  Altruistic peers always
share the most they can and perform only constructive edits and votes."

:class:`BatchedBehaviorEngine` composes the three into action arrays over
every lane's peers.  Only the rational subset touches the Q-learners; the
fixed types are filled in with constant actions, all vectorized.
"""

from __future__ import annotations

import numpy as np

from ..network.peer import ALTRUISTIC, IRRATIONAL, RATIONAL
from .actions import EditActionSpace, SharingActionSpace
from .qlearning import VectorQLearner

__all__ = ["BatchedBehaviorEngine"]


class BatchedBehaviorEngine:
    """Replicate-stacked behaviour engine over flat ``R * N`` peer slots.

    One learner holds the Q-matrices of *all* replicates' rational peers
    (stacked in replicate order), so action selection and TD updates are
    single vectorized calls regardless of ``R``.  Randomness stays
    per-replicate: each replicate's uniforms (or ``T = inf`` integers)
    are drawn from that replicate's own generator, in the same order and
    shapes an ``R = 1`` engine draws them for a solo run — which is what
    makes a batched replicate reproduce its sequential twin seed for
    seed.  A population without rational peers draws nothing; its
    learners still hold one placeholder row, so they must be sized
    ``max(n_rational, 1)``.
    """

    def __init__(
        self,
        types: np.ndarray,
        sharing_space: SharingActionSpace,
        edit_space: EditActionSpace,
        sharing_learner: VectorQLearner,
        edit_learner: VectorQLearner,
    ) -> None:
        types = np.asarray(types, dtype=np.int8)
        if types.ndim != 2:
            raise ValueError("types must be (n_replicates, n_agents)")
        self.n_replicates, self.n_agents = types.shape
        self.types = types.reshape(-1)
        self.n = self.types.size
        self.sharing_space = sharing_space
        self.edit_space = edit_space
        self.rational_idx = np.flatnonzero(self.types == RATIONAL)
        self.altruistic_idx = np.flatnonzero(self.types == ALTRUISTIC)
        self.irrational_idx = np.flatnonzero(self.types == IRRATIONAL)
        self.rational_counts = [
            int((types[r] == RATIONAL).sum()) for r in range(self.n_replicates)
        ]
        # Start offset of each replicate's span in the stacked rational
        # order (used by the per-lane-temperature selection path).
        self._rational_starts = np.concatenate(
            ([0], np.cumsum(self.rational_counts))
        )
        n_rational = self.rational_idx.size
        expected = max(n_rational, 1)
        if sharing_learner.n_agents != expected:
            raise ValueError("sharing learner must cover exactly the rational peers")
        if edit_learner.n_agents != expected:
            raise ValueError("edit learner must cover exactly the rational peers")
        self.sharing_learner = sharing_learner
        self.edit_learner = edit_learner

    # ------------------------------------------------------------------
    @staticmethod
    def _as_rngs(rngs) -> list:
        """Normalize a single rng-like (Generator, BufferedRNG, ...) or a
        per-replicate sequence of them into a list."""
        return list(rngs) if isinstance(rngs, (list, tuple)) else [rngs]

    def _select(
        self, learner: VectorQLearner, states: np.ndarray, temperature, rngs
    ) -> np.ndarray:
        """Stacked rational action selection with per-replicate streams.

        ``temperature`` is a scalar (all lanes in the same regime — the
        homogeneous fast path) or a per-lane ``(R,)`` array: each lane's
        rational span draws from its own stream with its own temperature
        (``T = inf`` lanes take the uniform-integer path, finite lanes are
        Boltzmann-sampled in one stacked call with per-row temperatures),
        reproducing every lane's sequential draw sequence exactly.
        """
        rngs = self._as_rngs(rngs)
        if np.ndim(temperature) == 0:
            if temperature == np.inf:
                parts = [
                    rngs[r].integers(0, learner.n_actions, size=k)
                    for r, k in enumerate(self.rational_counts)
                    if k
                ]
                return np.concatenate(parts)
            u = np.concatenate(
                [
                    rngs[r].random((k, 1))
                    for r, k in enumerate(self.rational_counts)
                    if k
                ]
            )
            return learner.select_actions(states, temperature, u=u)

        t = np.asarray(temperature, dtype=np.float64)
        starts = self._rational_starts
        actions = np.empty(states.size, dtype=np.int64)
        u_parts: list[np.ndarray] = []
        finite_spans: list[np.ndarray] = []
        t_rows: list[np.ndarray] = []
        for r, k in enumerate(self.rational_counts):
            if not k:
                continue
            span = slice(int(starts[r]), int(starts[r]) + k)
            if t[r] == np.inf:
                actions[span] = rngs[r].integers(0, learner.n_actions, size=k)
            else:
                u_parts.append(rngs[r].random((k, 1)))
                finite_spans.append(np.arange(span.start, span.stop))
                t_rows.append(np.full(k, t[r]))
        if u_parts:
            sub = np.concatenate(finite_spans)
            actions[sub] = learner.select_actions(
                states[sub],
                np.concatenate(t_rows),
                subset=sub,
                u=np.concatenate(u_parts),
            )
        return actions

    def sharing_actions(self, states: np.ndarray, temperature: float, rngs):
        """Per-slot sharing action indices; ``states`` covers the stacked
        rational peers (ordered like ``rational_idx``)."""
        actions = np.empty(self.n, dtype=np.int64)
        actions[self.altruistic_idx] = self.sharing_space.max_action
        actions[self.irrational_idx] = self.sharing_space.min_action
        if self.rational_idx.size:
            actions[self.rational_idx] = self._select(
                self.sharing_learner, states, temperature, rngs
            )
        return actions

    def edit_actions(self, states: np.ndarray, temperature: float, rngs):
        """Per-slot edit/vote behaviour action indices (same contract)."""
        actions = np.empty(self.n, dtype=np.int64)
        actions[self.altruistic_idx] = self.edit_space.constructive_action
        actions[self.irrational_idx] = self.edit_space.destructive_action
        if self.rational_idx.size:
            actions[self.rational_idx] = self._select(
                self.edit_learner, states, temperature, rngs
            )
        return actions

    def apply_ring_policy(
        self,
        mask: np.ndarray,
        share_actions: np.ndarray,
        edit_actions: np.ndarray,
    ) -> None:
        """Overwrite masked slots' actions with the collusion-ring policy.

        Ring members farm reputation: they always play the all-in sharing
        action and the fully constructive edit action, whatever their
        behaviour type selected.  The overwrite happens on the *action
        index* arrays, so downstream decoding and TD updates see the
        forced actions (a rational colluder's learner trains on what the
        ring made it do).  Vote rigging is not an action-space behaviour
        and lives in the edit/vote kernel instead.
        """
        share_actions[mask] = self.sharing_space.max_action
        edit_actions[mask] = self.edit_space.constructive_action

    # ------------------------------------------------------------------
    def learn_sharing(
        self,
        states: np.ndarray,
        actions: np.ndarray,
        rewards: np.ndarray,
        next_states: np.ndarray,
    ) -> None:
        if not self.rational_idx.size:
            return
        self.sharing_learner.update(
            states,
            actions[self.rational_idx],
            rewards[self.rational_idx],
            next_states,
        )

    def learn_editing(
        self,
        states: np.ndarray,
        actions: np.ndarray,
        rewards: np.ndarray,
        next_states: np.ndarray,
    ) -> None:
        if not self.rational_idx.size:
            return
        self.edit_learner.update(
            states,
            actions[self.rational_idx],
            rewards[self.rational_idx],
            next_states,
        )
