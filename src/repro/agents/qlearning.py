"""Vectorized tabular Q-learning with Boltzmann exploration (paper IV-A).

Every rational agent carries its own Q-matrix; the whole population learns
in lock-step, so the table is one array ``Q[agent, state, action]``.  The
learner addresses it by *row id* ``agent * S + state`` on the ``(n * S, A)``
row view (reshaped per call, never stored): an action row is one
``np.take`` along axis 0.  The update

    ``Q(s,a) <- (1-alpha) Q(s,a) + alpha (r + gamma max_b Q(s',b))``

runs over all agents at once in the engine's ``q_update`` kernel
(:mod:`repro.sim.backends`).  Action selection uses the Boltzmann
(softmax) distribution of the paper's Figure 2:

    ``p(a | s) = exp(Q(s,a)/T) / sum_b exp(Q(s,b)/T)``

``T = inf`` (the paper sets "the highest possible floating-point value"
during training) yields the uniform distribution; ``T -> 0`` approaches
greedy.  Sampling is an inverse-CDF draw: one uniform per agent against
the row's cumulative sum — no Python loop over agents.

:meth:`VectorQLearner.select_actions` fuses softmax and draw into one pass
over the gathered ``(k, A)`` block that walks the ``A`` action columns
instead of reducing along the short action axis, and returns exactly
what ``sample_categorical(boltzmann_probabilities(rows, T), u=u)``
returns.  Those two functions are the reference for that pass, and
Figure 2 and :meth:`VectorQLearner.policy_probabilities` use them
directly.
"""

from __future__ import annotations

import numpy as np

__all__ = ["boltzmann_probabilities", "sample_categorical", "VectorQLearner"]


def _row_temperature(temperature: float | np.ndarray, ndim: int):
    """``temperature`` checked positive; an array is shaped to divide the
    rows of an ``ndim``-D block (one temperature per row)."""
    if np.ndim(temperature) > 0:
        t = np.asarray(temperature, dtype=np.float64)
        if np.any(t <= 0):
            raise ValueError("temperature must be positive (use small T for greedy)")
        return t.reshape(t.shape + (1,) * (ndim - t.ndim))
    if temperature <= 0:
        raise ValueError("temperature must be positive (use small T for greedy)")
    return temperature


def boltzmann_probabilities(
    q_values: np.ndarray, temperature: float | np.ndarray
) -> np.ndarray:
    """Softmax over the last axis at temperature ``T`` (Figure 2).

    Numerically stable (max-subtracted); ``T = inf`` returns the uniform
    distribution, matching the paper's "explore all actions with equal
    probability" training regime.  ``temperature`` may be a per-row
    ``(rows,)`` array (lane-batched selection, one temperature per agent's
    lane): the division is elementwise, so each row's probabilities are
    bit-identical to a scalar call at that row's temperature.
    """
    q = np.asarray(q_values, dtype=np.float64)
    t = _row_temperature(temperature, q.ndim)
    if np.ndim(t) == 0 and np.isinf(t):
        shape = q.shape
        return np.full(shape, 1.0 / shape[-1])
    z = q / t
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def sample_categorical(
    probabilities: np.ndarray,
    rng: np.random.Generator | None = None,
    u: np.ndarray | None = None,
) -> np.ndarray:
    """Vectorized categorical draw: one sample per row of ``probabilities``.

    Inverse-CDF method: cumulative sums per row, one uniform per row, then
    a row-wise count of how many CDF entries the uniform exceeds.

    The uniforms come from ``rng``, or from ``u`` (shape ``(rows, 1)``,
    values in ``[0, 1)``; ``ValueError`` otherwise) if pre-drawn.
    Pre-drawn uniforms are how the batched engine keeps per-
    replicate RNG streams bit-identical to sequential runs: it draws each
    replicate's uniforms from that replicate's generator, stacks them, and
    samples all replicates with one vectorized pass.

    The engine does not call this: :meth:`VectorQLearner.select_actions`
    draws with its own column-wise pass, and this function (after
    :func:`boltzmann_probabilities`) is the reference that pass must
    match.
    """
    p = np.asarray(probabilities, dtype=np.float64)
    if p.ndim != 2:
        raise ValueError("probabilities must be 2-D (rows = distributions)")
    cdf = np.cumsum(p, axis=1)
    # Guard against rounding: force the last CDF entry to 1.
    cdf[:, -1] = 1.0
    if u is None:
        if rng is None:
            raise ValueError("need an rng or pre-drawn uniforms u")
        u = rng.random((p.shape[0], 1))
    elif u.shape != (p.shape[0], 1):
        raise ValueError("u must have shape (rows, 1)")
    elif not ((u >= 0.0) & (u < 1.0)).all():
        # u >= 1 would count the forced last entry: an index past the end.
        raise ValueError("pre-drawn uniforms u must lie in [0, 1)")
    return (u > cdf).sum(axis=1)


class VectorQLearner:
    """Population of independent tabular Q-learners updated in lock-step."""

    def __init__(
        self,
        n_agents: int,
        n_states: int,
        n_actions: int,
        learning_rate: float = 0.1,
        discount: float = 0.9,
        initial_q: float = 0.0,
    ) -> None:
        if n_agents < 1 or n_states < 1 or n_actions < 2:
            raise ValueError("need n_agents >= 1, n_states >= 1, n_actions >= 2")
        # Lane-batched learners stack agents from lanes with different
        # hyper-parameters: ``learning_rate``/``discount`` may be
        # per-agent ``(n_agents,)`` arrays, applied elementwise in the
        # (per-agent-independent) TD backup.
        if not (
            np.all(np.asarray(learning_rate) > 0.0)
            and np.all(np.asarray(learning_rate) <= 1.0)
        ):
            raise ValueError("learning_rate must be in (0, 1]")
        if not (
            np.all(np.asarray(discount) >= 0.0) and np.all(np.asarray(discount) < 1.0)
        ):
            raise ValueError("discount must be in [0, 1)")
        self.n_agents = int(n_agents)
        self.n_states = int(n_states)
        self.n_actions = int(n_actions)
        self.learning_rate = (
            learning_rate
            if isinstance(learning_rate, np.ndarray)
            else float(learning_rate)
        )
        self.discount = (
            discount if isinstance(discount, np.ndarray) else float(discount)
        )
        self.q = np.full(
            (self.n_agents, self.n_states, self.n_actions),
            float(initial_q),
            dtype=np.float64,
        )
        self._agent_idx = np.arange(self.n_agents)
        # The engine's kernel instance (runs the TD backup), imported
        # late: repro.sim imports this module.
        from ..sim.backends import KERNELS

        self.kernels = KERNELS

    # ------------------------------------------------------------------
    def select_actions(
        self,
        states: np.ndarray,
        temperature: float,
        rng: np.random.Generator | None = None,
        subset: np.ndarray | None = None,
        u: np.ndarray | None = None,
    ) -> np.ndarray:
        """Boltzmann action selection for all agents (or a subset).

        ``states`` has one entry per *selected* agent.  ``T = inf`` takes a
        fast path that skips the softmax entirely (it requires ``rng``).

        ``u`` is the replicate-axis hook: a learner stacked over the
        rational agents of several replicates can be sampled in one call
        while every replicate consumes its own RNG stream — the caller
        draws ``(k_r, 1)`` uniforms per replicate, concatenates them, and
        passes the stack here.

        Finite ``T`` runs softmax and draw as one pass over the gathered
        ``(k, A)`` block, in place, by action columns; each step computes
        the same values as ``sample_categorical(boltzmann_probabilities(
        rows, T), u=u)``: the maximum is folded column by column (max is
        exact, and ``exp`` of either signed zero is 1), the denominator is
        numpy's own ``sum(axis=-1)``, the CDF is a running column sum
        (``cumsum``'s order), and the action counts the columns whose CDF
        the uniform exceeds.  The last column is left out: the reference
        forces it to 1.0, which a uniform in ``[0, 1)`` never exceeds.
        """
        idx = self._agent_idx if subset is None else np.asarray(subset)
        states = np.asarray(states)
        if states.shape != idx.shape:
            raise ValueError("states must align with the selected agents")
        if np.ndim(temperature) == 0 and np.isinf(temperature):
            if rng is None:
                raise ValueError("the T=inf fast path draws from rng directly")
            return rng.integers(0, self.n_actions, size=idx.size)
        t = _row_temperature(temperature, 2)
        if u is None:
            if rng is None:
                raise ValueError("need an rng or pre-drawn uniforms u")
            u = rng.random((idx.size, 1))
        elif u.shape != (idx.size, 1):
            raise ValueError("u must have shape (rows, 1)")

        z = self._rows(idx, states)
        z /= t
        top = z[:, 0].copy()
        for j in range(1, self.n_actions):
            np.maximum(top, z[:, j], out=top)
        z -= top[:, None]
        np.exp(z, out=z)
        z /= z.sum(axis=-1, keepdims=True)
        u = u[:, 0]
        cdf = z[:, 0].copy()
        actions = (u > cdf).astype(np.int64)
        for j in range(1, self.n_actions - 1):
            cdf += z[:, j]
            actions += u > cdf
        return actions

    def greedy_actions(
        self, states: np.ndarray, subset: np.ndarray | None = None
    ) -> np.ndarray:
        """Argmax actions (ties -> lowest index), used by analysis only."""
        idx = self._agent_idx if subset is None else np.asarray(subset)
        return self._rows(idx, np.asarray(states)).argmax(axis=1)

    def _rows(self, idx: np.ndarray, states: np.ndarray) -> np.ndarray:
        """The ``(k, A)`` action rows of ``(idx, states)``, as a new array.

        Gathered by row id ``agent * S + state`` from the ``(n * S, A)``
        view of ``q`` (a copy if ``q`` is not C-contiguous).
        """
        n, s, a = self.q.shape
        return np.take(self.q.reshape(n * s, a), idx * s + states, axis=0)

    def update(
        self,
        states: np.ndarray,
        actions: np.ndarray,
        rewards: np.ndarray,
        next_states: np.ndarray,
        subset: np.ndarray | None = None,
    ) -> None:
        """One vectorized temporal-difference backup for the selected agents."""
        idx = self._agent_idx if subset is None else np.asarray(subset)
        states = np.asarray(states)
        actions = np.asarray(actions)
        rewards = np.asarray(rewards, dtype=np.float64)
        next_states = np.asarray(next_states)
        if not (states.shape == actions.shape == rewards.shape == next_states.shape == idx.shape):
            raise ValueError("all update arrays must align with the selected agents")
        gamma = self.discount
        a = self.learning_rate
        if subset is not None:
            # Per-agent hyper-parameter arrays must follow the gather.
            if isinstance(gamma, np.ndarray):
                gamma = gamma[idx]
            if isinstance(a, np.ndarray):
                a = a[idx]
        self.kernels.q_update(
            self.q, idx, states, actions, rewards, next_states, a, gamma
        )

    # ------------------------------------------------------------------
    def policy_probabilities(self, temperature: float) -> np.ndarray:
        """Full (agents, states, actions) Boltzmann policy — analysis helper."""
        return boltzmann_probabilities(self.q, temperature)

    def reset(self, initial_q: float = 0.0) -> None:
        self.q.fill(float(initial_q))

    def copy(self) -> "VectorQLearner":
        clone = VectorQLearner(
            self.n_agents,
            self.n_states,
            self.n_actions,
            learning_rate=self.learning_rate,
            discount=self.discount,
        )
        clone.q[:] = self.q
        return clone
