"""Test helpers: state fingerprints and random configs.

* **State fingerprinting** — :func:`collect_arrays` walks an arbitrary
  object graph (a :class:`~repro.sim.state.SimState`, a scheme, a
  learner) and returns every reachable numpy array keyed by its
  attribute path; :func:`state_fingerprint` adds each lane's RNG stream
  position, and :func:`compare_fingerprints` diffs two such maps bit
  for bit.  The golden behaviour lock (``tests/sim/test_golden.py``)
  builds on them.

* **Config generation** — :func:`random_config` draws valid random
  :class:`~repro.sim.config.SimulationConfig` objects covering every
  structured corner (float sentinels, nested dataclasses, dotted
  ``scale.*`` updates) for the store's hashing round-trip property
  suite.
"""

from __future__ import annotations

import random
from typing import Any

import numpy as np

from ..agents.population import PopulationMix
from ..core.params import (
    ContributionParams,
    PaperConstants,
    ReputationParams,
    ServiceParams,
    UtilityParams,
)
from ..core.reputation import REPUTATION_FUNCTIONS
from .config import SimulationConfig

__all__ = [
    "collect_arrays",
    "state_fingerprint",
    "compare_fingerprints",
    "random_config",
]

#: Attribute names the array walker never descends into: the kernel
#: instance holds no run state (and is shared), configs hold no arrays.
_SKIP_ATTRS = frozenset({"kernels", "config", "configs"})


def collect_arrays(
    obj: Any, prefix: str = "", *, _seen: set[int] | None = None, _depth: int = 0
) -> dict[str, np.ndarray]:
    """Every numpy array reachable from ``obj``, keyed by attribute path.

    Descends through dicts, lists/tuples and object ``__dict__``s
    (cycle-safe, depth-capped); skips callables, modules and the
    attribute names in :data:`_SKIP_ATTRS`.  The paths are stable across
    two objects built the same way, which is what makes two walks
    comparable.
    """
    out: dict[str, np.ndarray] = {}
    if _depth > 12:
        return out
    seen = _seen if _seen is not None else set()
    if isinstance(obj, np.ndarray):
        out[prefix] = obj
        return out
    if isinstance(obj, (str, bytes, int, float, bool, complex, type(None), type)):
        return out
    if callable(obj) and not hasattr(obj, "__dict__"):
        return out
    marker = id(obj)
    if marker in seen:
        return out
    seen.add(marker)
    if isinstance(obj, dict):
        items = [(f"{prefix}[{k!r}]", v) for k, v in obj.items()]
    elif isinstance(obj, (list, tuple)):
        items = [(f"{prefix}[{i}]", v) for i, v in enumerate(obj)]
    else:
        attrs = getattr(obj, "__dict__", None)
        if attrs is None:
            return out
        items = [
            (f"{prefix}.{k}" if prefix else k, v)
            for k, v in attrs.items()
            if k not in _SKIP_ATTRS and not callable(v)
        ]
    for path, value in items:
        out.update(collect_arrays(value, path, _seen=seen, _depth=_depth + 1))
    return out


def state_fingerprint(state: Any) -> dict[str, np.ndarray]:
    """All run state of a :class:`~repro.sim.state.SimState`, as arrays.

    The generic walk covers the peers, scheme books, learner Q-tables,
    article stores, metrics buffers and counters; on top of it each
    lane's RNG position is recorded explicitly (``BufferedRNG`` uses
    ``__slots__``, so the walk cannot see it): the PCG64 stream state
    plus the buffer cursor.  Kernels never draw randomness, so a kernel
    change that did — or that changed a draw's *size* — shifts these
    and fails the comparison.
    """
    fp = collect_arrays(state, "state")
    for r, rng in enumerate(getattr(state, "rngs", [])):
        gen = getattr(rng, "gen", rng)
        inner = gen.bit_generator.state.get("state", {})
        fp[f"rng[{r}].state"] = np.asarray(
            [int(inner.get("state", 0)), int(inner.get("inc", 0))], dtype=object
        )
        fp[f"rng[{r}].pos"] = np.asarray([getattr(rng, "_pos", -1)])
    return fp


def compare_fingerprints(
    a: dict[str, np.ndarray], b: dict[str, np.ndarray]
) -> list[str]:
    """Paths present in only one map, or whose arrays are not bit-identical."""
    bad: list[str] = []
    for path in sorted(set(a) | set(b)):
        if path not in a or path not in b:
            bad.append(f"{path} (missing on one side)")
            continue
        x, y = a[path], b[path]
        if x.shape != y.shape or x.dtype != y.dtype:
            bad.append(f"{path} (shape/dtype {x.shape}/{x.dtype} vs {y.shape}/{y.dtype})")
        elif not np.array_equal(x, y, equal_nan=x.dtype.kind == "f"):
            bad.append(path)
    return bad


# ----------------------------------------------------------------------
# Random config generation
# ----------------------------------------------------------------------
_SCHEMES = ("auto", "reputation", "none", "tft", "karma")
_OVERLAYS = ("full", "random", "smallworld", "scalefree")


def _eighths(rng: random.Random) -> PopulationMix:
    """A random mix in exact eighths, so the fractions sum to exactly 1."""
    a = rng.randint(0, 8)
    b = rng.randint(0, 8 - a)
    return PopulationMix(
        rational=a / 8, altruistic=b / 8, irrational=(8 - a - b) / 8
    )


def _maybe_integral(rng: random.Random, lo: float, hi: float) -> float:
    """A float in (lo, hi]; sometimes exactly integral.

    The int-collapse corner: canonical JSON serializes 2.0 as 2.
    """
    if rng.random() < 0.3:
        value = float(rng.randint(max(1, int(lo)), max(2, int(hi))))
        return min(max(value, lo), hi)
    return rng.uniform(lo, hi) or hi


def _constants(rng: random.Random) -> PaperConstants:
    """Random paper constants within each parameter's validated range."""

    def reputation() -> ReputationParams:
        r_min = rng.uniform(0.01, 0.4)
        return ReputationParams(
            g=_maybe_integral(rng, 1.0, 40.0),
            beta=rng.uniform(0.05, 2.0),
            r_min=r_min,
            r_max=rng.uniform(r_min + 0.05, 1.0),
        )

    rep_s = reputation()
    majority_min = rng.uniform(0.3, 0.7)
    return PaperConstants(
        reputation_s=rep_s,
        reputation_e=reputation(),
        contribution=ContributionParams(
            alpha_s=_maybe_integral(rng, 1.0, 5.0),
            beta_s=rng.uniform(0.5, 5.0),
            d_s=rng.uniform(0.0, 0.2),
            alpha_e=rng.uniform(0.5, 5.0),
            beta_e=rng.uniform(0.5, 5.0),
            d_e=rng.uniform(0.0, 0.2),
            retention=rng.uniform(0.5, 1.0),
        ),
        service=ServiceParams(
            # edit_threshold must clear the sharing scheme's r_min floor.
            edit_threshold=rng.uniform(rep_s.r_min + 0.01, 0.9),
            majority_min=majority_min,
            majority_max=rng.uniform(majority_min, 1.0),
            vote_punish_threshold=rng.randint(1, 20),
            edit_punish_threshold=rng.randint(1, 20),
        ),
        utility=UtilityParams(
            alpha=_maybe_integral(rng, 1.0, 10.0),
            beta=rng.uniform(0.01, 1.0),
            gamma=rng.uniform(0.01, 1.0),
            delta=_maybe_integral(rng, 1.0, 40.0),
            epsilon=rng.uniform(0.5, 10.0),
        ),
    )


def random_config(rng: random.Random) -> SimulationConfig:
    """One valid random config touching every structured corner."""
    t_train = rng.choice(
        [float("inf"), float("-inf"), float("nan"), rng.uniform(0.1, 10.0)]
    )
    cfg = SimulationConfig(
        n_agents=rng.randint(2, 500),
        mix=_eighths(rng),
        incentives_enabled=rng.random() < 0.5,
        scheme=rng.choice(_SCHEMES),
        constants=_constants(rng),
        reputation_fn_s=rng.choice(list(REPUTATION_FUNCTIONS)),
        reputation_fn_e=rng.choice(list(REPUTATION_FUNCTIONS)),
        karma_initial=_maybe_integral(rng, 0.0, 5.0),
        karma_floor=rng.uniform(0.001, 0.5),
        tft_optimistic_floor=rng.uniform(0.001, 0.5),
        tft_history_decay=rng.uniform(0.5, 1.0),
        n_states=rng.randint(1, 30),
        training_steps=rng.randint(0, 10_000),
        eval_steps=rng.randint(1, 5_000),
        t_train=t_train,
        t_eval=rng.choice([1.0, 2.0, float("inf"), rng.uniform(0.1, 5.0)]),
        learning_rate=rng.uniform(0.01, 1.0),
        discount=rng.uniform(0.0, 1.0),
        learn_during_eval=rng.random() < 0.5,
        n_articles=rng.randint(1, 100),
        founders_per_article=rng.randint(1, 10),
        download_probability=rng.choice([1.0, rng.uniform(0.0, 1.0)]),
        edit_attempt_prob=rng.uniform(0.0, 1.0),
        max_voters_per_edit=rng.randint(1, 30),
        min_voters_per_edit=rng.randint(1, 5),
        enforce_edit_threshold=rng.random() < 0.5,
        overlay_kind=rng.choice(_OVERLAYS),
        overlay_degree=rng.randint(2, 32),
        capacity_sigma=rng.choice([0.0, rng.uniform(0.0, 2.0)]),
        leave_rate=rng.uniform(0.0, 0.2),
        join_rate=rng.uniform(0.0, 0.2),
        whitewash_rate=rng.uniform(0.0, 0.2),
        collusion_fraction=rng.uniform(0.0, 1.0),
        collusion_ring_size=rng.randint(2, 10),
        sybil_fraction=rng.uniform(0.0, 1.0),
        sybil_rate=rng.uniform(0.0, 1.0),
        seed=rng.randint(0, 2**31),
        measure_window=rng.uniform(0.1, 1.0),
    )
    if rng.random() < 0.5:
        # Exercise the dotted scale.* update path the CLI and scenario
        # modifiers use, not just the ScaleConfig constructor.
        cfg = cfg.with_(**{
            "scale.sparse": rng.random() < 0.5,
            "scale.ledger_cap": rng.randint(1, 256),
            "scale.chunk_size": rng.randint(1, 65536),
            "scale.stream_metrics_threshold": rng.randint(2, 50_000),
        })
    return cfg
