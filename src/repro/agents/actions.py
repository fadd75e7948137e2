"""Action spaces of the paper's simulation (section IV-B).

Sharing: "an agent can choose from three different participation levels for
each resource: 0%, 50% or 100% of their bandwidth; and 0, 50 or 100 files"
— a 3x3 = 9-action grid, encoded as one integer per agent with vectorized
decoding into (bandwidth fraction, files fraction).

Editing/voting: "it can do it either constructively or destructively" — we
keep the *edit* behaviour and the *vote* behaviour as independent binary
choices, a 2x2 = 4-action grid, so an agent may e.g. learn to edit
constructively while voting with the destructive camp.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SharingActionSpace", "EditActionSpace"]

_LEVELS = np.array([0.0, 0.5, 1.0])


class SharingActionSpace:
    """The 3x3 grid of (bandwidth level, files level) actions."""

    def __init__(self, levels: np.ndarray | None = None):
        self.levels = (
            np.asarray(levels, dtype=np.float64) if levels is not None else _LEVELS
        )
        if self.levels.ndim != 1 or self.levels.size < 2:
            raise ValueError("need at least two participation levels")
        if np.any((self.levels < 0) | (self.levels > 1)):
            raise ValueError("levels must lie in [0, 1]")
        self.n_levels = self.levels.size
        self.n_actions = self.n_levels**2
        #: The all-in action (100% bandwidth, 100 files) — the altruist's.
        self.max_action = self.encode(self.n_levels - 1, self.n_levels - 1)
        #: The free-rider action (0, 0) — the irrational peer's.
        self.min_action = self.encode(0, 0)

    def decode(self, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Action indices -> (bandwidth fractions, files fractions)."""
        actions = np.asarray(actions)
        if ((actions < 0) | (actions >= self.n_actions)).any():
            raise ValueError("action index out of range")
        bw_level, files_level = np.divmod(actions, self.n_levels)
        return self.levels[bw_level], self.levels[files_level]

    def encode(self, bandwidth_level: int, files_level: int) -> int:
        """(level indices) -> action index."""
        if not (0 <= bandwidth_level < self.n_levels and 0 <= files_level < self.n_levels):
            raise ValueError("level index out of range")
        return bandwidth_level * self.n_levels + files_level


class EditActionSpace:
    """The 2x2 grid of (edit behaviour, vote behaviour) actions.

    Behaviour encoding: 1 = constructive, 0 = destructive.
    """

    n_actions = 4
    #: Fully constructive (altruist): ``encode(True, True)``.
    constructive_action = 3
    #: Fully destructive (irrational peer): ``encode(False, False)``.
    destructive_action = 0

    def decode(self, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Action indices -> (edit_constructive, vote_constructive) bools."""
        actions = np.asarray(actions)
        if ((actions < 0) | (actions >= self.n_actions)).any():
            raise ValueError("action index out of range")
        edit_constructive = actions >= 2
        vote_constructive = (actions & 1) == 1
        return edit_constructive, vote_constructive

    def encode(self, edit_constructive: bool, vote_constructive: bool) -> int:
        return int(edit_constructive) * 2 + int(vote_constructive)
