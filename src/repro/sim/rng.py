"""Reproducible randomness: the build's generators and counter-based draws.

**Build.**  Constructing a state (types, capacities, overlay seed,
founders, collusion rings, sybil roster) draws from one plain
``numpy.random.Generator`` per lane, seeded with the lane's config seed
(:func:`make_rng`); the state does not keep it.  Parameter sweeps spawn
*independent* child seeds per run (:func:`spawn_seeds`), so results are
bit-identical no matter which executor ran the sweep or in what order
the runs finished.

**Step path.**  Every draw a step makes is a pure function of four
counters, in the style of Salmon et al., "Parallel Random Numbers: As
Easy as 1, 2, 3" (SC'11)::

    u = mix64(key_lane + i * GAMMA + salt(step, site))

``mix64`` is SplitMix64's output function on NumPy ``uint64``;
``key_lane`` is derived from the lane's config seed alone
(:func:`lane_key`); ``step`` is the state's ``step_count``; ``site`` is
a fixed id per draw site (``SITE_*``); ``i`` is a lane-local slot (or a
lane-local ``(proposer, voter)`` pair).  A uniform is
``(u >> 11) * 2**-53`` and a bounded integer ``((u >> 32) * n) >> 32``.
So a lane draws the same values solo and at any position of any batch,
a snapshot needs only the step count, and a new draw site shifts no
existing stream.

:class:`CounterDraws` serves the per-slot sites of one state.  When the
state is narrow it hashes a block of ``max(1, BLOCK_TARGET // (R * N))``
steps per site in one call; the block is a cache keyed by step, and the
block size never changes a value.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "make_rng",
    "spawn_seeds",
    "spawn_rngs",
    "mix64",
    "lane_key",
    "salt",
    "to_uniform",
    "to_below",
    "CounterDraws",
    "BLOCK_TARGET",
    "SITE_SHARE",
    "SITE_EDIT",
    "SITE_REQUEST",
    "SITE_SOURCE",
    "SITE_PROPOSE",
    "SITE_ARTICLE",
    "SITE_VOTER_KEY",
    "SITE_CHURN",
    "SITE_WHITEWASH",
    "SITE_SYBIL",
]

# Draw sites: one fixed id each.  A new site takes a new id; ids are
# never reused, so adding a site moves no other stream.
SITE_SHARE = 0  # act: sharing action (T = inf integer or Boltzmann uniform)
SITE_EDIT = 1  # act: edit/vote action
SITE_REQUEST = 2  # download: request uniforms (full mesh and overlay)
SITE_SOURCE = 3  # download: source picks (full mesh and overlay)
SITE_PROPOSE = 4  # edit_vote: proposer uniforms
SITE_ARTICLE = 5  # edit_vote: article picks, one per proposer
SITE_VOTER_KEY = 6  # edit_vote: subsample keys, one per (proposer, voter)
SITE_CHURN = 7  # churn: leave/join uniforms
SITE_WHITEWASH = 8  # churn: whitewash uniforms
SITE_SYBIL = 9  # sybil: identity-reset uniforms
#: Sites per step in the salt's counter (room for new sites).
_SITES_PER_STEP = np.uint64(64)

#: Elements one block call hashes at most: a state with ``R * N`` slots
#: hashes ``max(1, BLOCK_TARGET // (R * N))`` steps per site per call.
BLOCK_TARGET = 8192

# Every constant is a NumPy uint64: a Python int mixed into uint64
# arithmetic could promote or overflow, while uint64 products wrap.
GAMMA = np.uint64(0x9E3779B97F4A7C15)  # SplitMix64's increment
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S11 = np.uint64(11)
_S27 = np.uint64(27)
_S30 = np.uint64(30)
_S31 = np.uint64(31)
_S32 = np.uint64(32)
_UNIT = 2.0**-53
#: Spawn key that separates the draw keys from the build's generator,
#: which is seeded with the same config seed.
_DRAW_SPAWN_KEY = (0x64726177,)


def make_rng(seed: int | None) -> np.random.Generator:
    """One generator from one seed (``None`` = OS entropy)."""
    return np.random.default_rng(seed)


def spawn_seeds(root_seed: int, n: int) -> list[int]:
    """``n`` independent 32-bit seeds derived from ``root_seed``."""
    if n < 0:
        raise ValueError("n must be >= 0")
    seq = np.random.SeedSequence(root_seed)
    return [int(s.generate_state(1)[0]) for s in seq.spawn(n)]


def spawn_rngs(root_seed: int, n: int) -> list[np.random.Generator]:
    """``n`` independent generators derived from ``root_seed``."""
    seq = np.random.SeedSequence(root_seed)
    return [np.random.default_rng(child) for child in seq.spawn(n)]


def mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output function, in place on a ``uint64`` array.

    A bijection of the 64-bit words with full avalanche; ``z`` must be
    an array the caller owns (it is overwritten and returned).
    """
    z ^= z >> _S30
    z *= _MIX1
    z ^= z >> _S27
    z *= _MIX2
    z ^= z >> _S31
    return z


def lane_key(seed: int | None) -> np.uint64:
    """The draw key of a lane, derived from its config seed alone."""
    seq = np.random.SeedSequence(seed, spawn_key=_DRAW_SPAWN_KEY)
    return seq.generate_state(1, dtype=np.uint64)[0]


def salt(steps, site: int) -> np.ndarray:
    """``salt(step, site)`` for each step of ``steps``: a ``uint64`` array.

    SplitMix64's output at counter ``step * 64 + site + 1``, so every
    (step, site) pair gets its own well-mixed offset.
    """
    z = np.asarray(steps, dtype=np.uint64) * _SITES_PER_STEP
    z += np.uint64(site + 1)
    z *= GAMMA
    return mix64(z)


def to_uniform(u: np.ndarray) -> np.ndarray:
    """Uniforms on ``[0, 1)`` from hashed words: ``(u >> 11) * 2**-53``."""
    return (u >> _S11) * _UNIT


def to_below(u: np.ndarray, n) -> np.ndarray:
    """Integers uniform on ``[0, n)`` from hashed words (``n < 2**32``).

    ``((u >> 32) * n) >> 32``: the top 32 bits scaled by ``n`` (an int
    or an array, broadcast against ``u``), as int64.  ``u`` may also be
    one ``np.uint64`` word, which gives one ``np.int64``.
    """
    n = np.asarray(n, dtype=np.uint64)
    return (((u >> _S32) * n) >> _S32).astype(np.int64)


class CounterDraws:
    """The counter-based draws of one state's per-slot sites.

    ``keys`` holds one draw key per lane (:func:`lane_key`), and
    ``base[r * N + i] = keys[r] + i * GAMMA`` is every slot's counter
    before the step's salt.  :meth:`words` returns the hashed words of
    one site at one step for every slot; :meth:`uniforms` and
    :meth:`integers` convert them.  A site that draws for some slots
    only indexes the full row, so a slot's draw never depends on which
    other slots draw.

    A narrow state (``R * N`` below :data:`BLOCK_TARGET`) hashes a block
    of steps per site in one call and serves the following steps from
    it.  The blocks are derived data keyed by step, like the reputation
    memos: the object has no ``__dict__`` (the state fingerprint walk
    never reaches it) and pickles empty, so a restored state hashes its
    first block afresh from ``step_count``.  A wide state (block of one
    step) hashes every step and keeps no cache.
    """

    __slots__ = ("keys", "n_agents", "base", "block", "_cache")

    def __init__(self, keys: np.ndarray, n_agents: int) -> None:
        self.keys = np.asarray(keys, dtype=np.uint64)
        self.n_agents = int(n_agents)
        local = np.arange(self.n_agents, dtype=np.uint64) * GAMMA
        self.base = (self.keys[:, None] + local).reshape(-1)
        self.block = max(1, BLOCK_TARGET // self.base.size)
        #: (site, conversion) -> (first step, converted rows)
        self._cache: dict = {}

    def __reduce__(self):
        return (CounterDraws, (self.keys, self.n_agents))

    def _hash(self, step: int, site: int, n_steps: int) -> np.ndarray:
        """``(n_steps, R * N)`` words of ``site`` from ``step`` on."""
        salts = salt(np.arange(step, step + n_steps), site)
        return mix64(self.base + salts[:, None])

    def _served(self, step: int, site: int, kind, convert) -> np.ndarray:
        """One step's row of ``site``, converted; cached by block."""
        if self.block == 1:
            return convert(self._hash(step, site, 1)[0])
        entry = self._cache.get((site, kind))
        if entry is None or not 0 <= step - entry[0] < self.block:
            entry = (step, convert(self._hash(step, site, self.block)))
            self._cache[site, kind] = entry
        return entry[1][step - entry[0]]

    def words(self, step: int, site: int) -> np.ndarray:
        """Hashed ``uint64`` words of every slot at ``step``."""
        return self._served(step, site, "words", _same)

    def uniforms(self, step: int, site: int) -> np.ndarray:
        """Uniforms on ``[0, 1)`` of every slot at ``step``."""
        return self._served(step, site, "uniform", to_uniform)

    def integers(self, step: int, site: int, n: int) -> np.ndarray:
        """Integers uniform on ``[0, n)`` of every slot at ``step``."""
        return self._served(step, site, ("below", n), lambda u: to_below(u, n))

    def at(self, step: int, site: int, lanes: np.ndarray, counters: np.ndarray) -> np.ndarray:
        """Hashed words of ad-hoc lane-local ``counters`` in ``lanes``.

        For sites that draw for a few indices per step (article picks,
        subsample keys): ``u = mix64(keys[lane] + counter * GAMMA +
        salt(step, site))``, hashed directly and never cached.
        """
        z = np.asarray(counters, dtype=np.uint64) * GAMMA
        z += self.keys[lanes]
        z += salt((step,), site)
        return mix64(z)


def _same(u: np.ndarray) -> np.ndarray:
    return u
