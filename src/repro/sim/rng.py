"""Reproducible random-number streams.

Every simulation run owns exactly one ``numpy.random.Generator`` derived
from the run's seed through ``SeedSequence``, and parameter sweeps spawn
*independent* child sequences per run — results are bit-identical no matter
which executor (serial / threads / processes) ran the sweep or in what
order the runs finished.
"""

from __future__ import annotations

import numpy as np

__all__ = ["make_rng", "spawn_seeds", "spawn_rngs", "BufferedRNG"]


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


class BufferedRNG:
    """Uniform-draw buffering facade over one ``numpy.random.Generator``.

    The engine's per-step kernels draw many small uniform vectors from
    each replicate's stream; every ``Generator.random`` call costs ~10us
    of argument handling regardless of size.  This facade block-draws
    ``block`` uniforms at a time and serves contiguous slices, cutting
    that per-call overhead ~20x while consuming the *same underlying
    stream deterministically* — two consumers issuing the same sequence
    of ``random`` calls through a ``BufferedRNG`` see identical values,
    which is all the engine's seed-for-seed guarantee needs (sequential
    and batched runs share the kernel code and therefore the call
    sequence).  Every other Generator method (``integers``, ``choice``,
    ``shuffle``, ``lognormal``, ...) passes straight through.

    The returned arrays are read-only views into the block buffer, valid
    only until the next refill of the same stream: the block buffer is
    *reused* across refills (``Generator.random(out=...)`` fills it in
    place, so the steady state allocates nothing).  The engine's kernels
    respect that contract — every served view is reduced, compared or
    copied before the same stream is drawn from again.

    Block-size note: the block draws *pre-consume* the underlying stream,
    so the interleaving with pass-through calls (``integers``,
    ``permutation``, ...) — and therefore the run trajectory — depends on
    the block size.  8192 was confirmed against
    ``benchmarks/test_bench_kernels.py`` (4096/16384 measure within
    noise; the refill is ~1% of a step), so it stays put and every
    recorded trajectory is preserved exactly.
    """

    __slots__ = ("gen", "_block", "_buf", "_pos")

    def __init__(self, gen: np.random.Generator, block: int = 8192) -> None:
        if block < 1:
            raise ValueError("block must be >= 1")
        self.gen = gen
        self._block = int(block)
        self._buf = np.empty(0, dtype=np.float64)
        self._pos = 0

    def random(self, size=None):
        if size is None:
            return self.gen.random()
        shape = (size,) if isinstance(size, (int, np.integer)) else tuple(size)
        k = 1
        for dim in shape:
            k *= int(dim)
        if self._pos + k > self._buf.size:
            if k <= self._block:
                # Steady state: refill the standing block in place (the
                # values equal a fresh ``random(block)`` call, so the
                # stream consumption — and every trajectory — is
                # unchanged; only the allocation disappears).
                if self._buf.size != self._block:
                    self._buf = np.empty(self._block, dtype=np.float64)
                else:
                    self._buf.flags.writeable = True
                self.gen.random(out=self._buf)
            else:
                # Oversized request: dedicated one-off draw, same as a
                # plain ``random(k)``.
                self._buf = self.gen.random(k)
            self._buf.flags.writeable = False
            self._pos = 0
        out = self._buf[self._pos : self._pos + k]
        self._pos += k
        return out.reshape(shape) if len(shape) != 1 else out

    def __getattr__(self, name):
        return getattr(self.gen, name)

    # Pickle support is explicit because ``__slots__`` + ``__getattr__``
    # is a trap for the default protocol: during unpickling, attribute
    # lookups run before ``gen`` exists and ``__getattr__`` recurses
    # forever.  The buffer, its cursor, and the wrapped Generator's
    # bit-generator state are all carried, so a restored BufferedRNG
    # continues the *exact* stream — mid-block — that the original would
    # have produced (mid-run checkpoint resume depends on this).
    def __getstate__(self):
        return {
            "gen": self.gen,
            "block": self._block,
            "buf": self._buf,
            "pos": self._pos,
        }

    def __setstate__(self, state):
        object.__setattr__(self, "gen", state["gen"])
        object.__setattr__(self, "_block", state["block"])
        # Unpickled arrays can be zero-copy views over the pickle's
        # immutable bytes — such a buffer could never be re-marked
        # writeable for the in-place refill.  Copy into owned memory.
        buf = np.array(state["buf"], dtype=np.float64)
        buf.flags.writeable = False
        object.__setattr__(self, "_buf", buf)
        object.__setattr__(self, "_pos", state["pos"])
