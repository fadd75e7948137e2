"""Reputation functions mapping contribution values to reputations.

Paper section III-A: the reputation value ``R`` is a monotonically
increasing function of the contribution value ``C`` with

* ``R(0) = R_min > 0`` so newcomers can download at all,
* ``R <= R_max = 1``,
* fast initial growth to motivate newcomers.

The paper's concrete choice is the logistic function

    ``R(C) = 1 / (1 + g * exp(-beta * C))``

with ``g = 19`` (so ``R(0) = 0.05``), plotted in the paper's Figure 1 for
``beta`` in {0.1, 0.15, 0.2, 0.3}.  The paper's future-work section asks how
alternative reputation-function shapes affect sharing, so this module also
provides linear, power and step functions behind the same interface; the
ablation benchmark sweeps them.

All functions are vectorized: they accept scalars or NumPy arrays and never
allocate more than the output array.  :class:`ViewMemo` holds one array
derived from another (a reputation view of a contribution book, or the
discretized states of a reputation view) until its key moves.
"""

from __future__ import annotations

import abc
from typing import Union

import numpy as np

from .params import ReputationParams

ArrayLike = Union[float, np.ndarray]

__all__ = [
    "ReputationFunction",
    "LogisticReputation",
    "LinearReputation",
    "PowerReputation",
    "StepReputation",
    "ConstantReputation",
    "reputation_to_state",
    "ViewMemo",
    "REPUTATION_FUNCTIONS",
]


class ReputationFunction(abc.ABC):
    """Monotone map from contribution value ``C >= 0`` to ``[r_min, r_max]``."""

    def __init__(self, params: ReputationParams | None = None) -> None:
        self.params = params if params is not None else ReputationParams()

    @property
    def r_min(self) -> float:
        return self.params.r_min

    @property
    def r_max(self) -> float:
        return self.params.r_max

    def __call__(self, contribution: ArrayLike) -> np.ndarray:
        """Evaluate the reputation for (an array of) contribution values."""
        c = np.asarray(contribution, dtype=np.float64)
        if (c < 0).any():
            raise ValueError("contribution values must be non-negative")
        p = self.params
        # Clamp into the admissible band; _raw implementations are already
        # monotone so this only guards the boundaries.  maximum/minimum
        # give np.clip's values, NaN included, in fewer calls (they could
        # differ only in the sign of a zero at a zero bound, and _raw never
        # returns -0.0).
        return np.minimum(np.maximum(self._raw(c), p.r_min), p.r_max)

    @abc.abstractmethod
    def _raw(self, c: np.ndarray) -> np.ndarray:
        """Unclipped reputation values."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.params!r})"


class LogisticReputation(ReputationFunction):
    """The paper's logistic reputation function (Figure 1)."""

    def _raw(self, c: np.ndarray) -> np.ndarray:
        p = self.params
        # exp(-beta*c) underflows harmlessly to 0 for large c.
        return 1.0 / (1.0 + p.g * np.exp(-p.beta * c))

    def inflection_point(self) -> float:
        """Contribution value at which growth is fastest: ``ln(g)/beta``."""
        p = self.params
        return float(np.log(p.g) / p.beta)

    def inverse(self, reputation: ArrayLike) -> np.ndarray:
        """Contribution needed to reach ``reputation`` (for analysis)."""
        r = np.asarray(reputation, dtype=np.float64)
        if np.any((r <= 0.0) | (r >= 1.0)):
            raise ValueError("inverse defined on the open interval (0, 1)")
        p = self.params
        return -np.log((1.0 / r - 1.0) / p.g) / p.beta


class LinearReputation(ReputationFunction):
    """Linear ramp from ``r_min`` at C=0 to ``r_max`` at ``c_full``."""

    def __init__(self, params: ReputationParams | None = None, c_full: float = 30.0):
        super().__init__(params)
        if c_full <= 0:
            raise ValueError("c_full must be positive")
        self.c_full = float(c_full)

    def _raw(self, c: np.ndarray) -> np.ndarray:
        p = self.params
        return p.r_min + (p.r_max - p.r_min) * (c / self.c_full)


class PowerReputation(ReputationFunction):
    """Concave power law ``r_min + (r_max-r_min) * (C/c_full)^exponent``.

    With ``exponent < 1`` it grows quickly at first like the logistic but
    never saturates as hard, which is the main alternative candidate named
    by the paper's future-work discussion.
    """

    def __init__(
        self,
        params: ReputationParams | None = None,
        c_full: float = 30.0,
        exponent: float = 0.5,
    ) -> None:
        super().__init__(params)
        if c_full <= 0 or exponent <= 0:
            raise ValueError("c_full and exponent must be positive")
        self.c_full = float(c_full)
        self.exponent = float(exponent)

    def _raw(self, c: np.ndarray) -> np.ndarray:
        p = self.params
        frac = np.clip(c / self.c_full, 0.0, 1.0)
        return p.r_min + (p.r_max - p.r_min) * frac**self.exponent


class StepReputation(ReputationFunction):
    """Discrete service classes: reputation jumps at evenly spaced steps."""

    def __init__(
        self,
        params: ReputationParams | None = None,
        c_full: float = 30.0,
        n_steps: int = 4,
    ) -> None:
        super().__init__(params)
        if c_full <= 0:
            raise ValueError("c_full must be positive")
        if n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        self.c_full = float(c_full)
        self.n_steps = int(n_steps)

    def _raw(self, c: np.ndarray) -> np.ndarray:
        p = self.params
        level = np.floor(np.clip(c / self.c_full, 0.0, 1.0) * self.n_steps)
        level = np.minimum(level, self.n_steps)
        return p.r_min + (p.r_max - p.r_min) * (level / self.n_steps)


class ConstantReputation(ReputationFunction):
    """Every peer has the same reputation — used by the no-incentive baseline."""

    def __init__(self, params: ReputationParams | None = None, value: float = 1.0):
        super().__init__(params)
        if not 0.0 < value <= 1.0:
            raise ValueError("constant reputation must lie in (0, 1]")
        self.value = float(value)

    def _raw(self, c: np.ndarray) -> np.ndarray:
        return np.full_like(c, self.value)


def reputation_to_state(
    reputation: ArrayLike,
    n_states: int = 10,
    r_min: float = 0.05,
    r_max: float = 1.0,
) -> np.ndarray:
    """Discretize reputations into the paper's Q-learning states.

    The paper uses 10 states, "each state represents 1/10 of the reputation
    interval [0.05, 1]".  Values at ``r_max`` fall into the last state.
    Returns int64 indices in ``[0, n_states)``.  ``r_min``/``r_max`` may be
    per-element arrays (lane-batched states discretize each lane against
    its own band; the arithmetic is elementwise either way).
    """
    if n_states < 1:
        raise ValueError("n_states must be >= 1")
    if np.greater_equal(r_min, r_max).any():
        raise ValueError("need r_min < r_max")
    r = np.asarray(reputation, dtype=np.float64)
    frac = (r - r_min) / (r_max - r_min)
    states = np.floor(frac * n_states).astype(np.int64)
    return np.minimum(np.maximum(states, 0), n_states - 1)


class ViewMemo:
    """One derived array (``value``) and the key it was derived under.

    The incentive schemes key a reputation view by the mutation count of
    the ledger book it reads; the act and learn phases key discretized
    states by the reputation array they came from (compared by
    identity, and held, so the key cannot be recycled).  A memo is
    derived data, not run state: it has no ``__dict__``, so the state
    fingerprint walk of the golden tests (``collect_arrays``) never
    reaches it, and it pickles empty, so a restored scheme or state
    derives its first view afresh.
    """

    __slots__ = ("key", "value")

    def __init__(self) -> None:
        self.key = None
        self.value = None

    def __reduce__(self):
        return (ViewMemo, ())


#: Registry used by the reputation-function ablation experiment.
REPUTATION_FUNCTIONS = {
    "logistic": LogisticReputation,
    "linear": LinearReputation,
    "power": PowerReputation,
    "step": StepReputation,
    "constant": ConstantReputation,
}
