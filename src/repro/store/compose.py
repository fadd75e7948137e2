"""Scenario algebra: compose base packs with reusable modifiers.

A :class:`~repro.store.registry.ScenarioPack` is a named grid of
configs; a :class:`ScenarioModifier` is a named, reusable *axis* — a
small list of variants, each a dict of ``SimulationConfig.with_``
overrides (churn profiles, overlay topologies, capacity distributions,
adversary mixes).  Composition is a cross product::

    configs = compose_scenarios("paper/fig3", "churn/storm", "overlay/sparse")

expands the base pack, then multiplies it by every variant of every
modifier, in order.  The same algebra is reachable from the CLI with a
``+``-joined spec::

    repro run paper/fig3+churn/storm+overlay/sparse --fast

**Hash stability.**  A modifier variant is nothing but a ``with_``
override dict — exactly the operation a hand-built grid would apply —
so a composed config is *equal* to its hand-built equivalent and hashes
identically under :func:`repro.store.hashing.config_hash`.  The run
store therefore dedupes across spellings: running the composed pack and
then the hand-built grid (or the same composition written in a
different order of independent modifiers) costs one simulation, not
two.

Field conflicts resolve right-most-wins: a later modifier (or an
explicit ``overrides=``) overwrites fields an earlier one set.
Modifier names live in their own namespace — ``churn/storm`` the
modifier (an axis applicable to any pack) coexists with ``churn/storm``
the pack (a full grid rooted at the paper baseline).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from ..agents.population import PopulationMix
from ..sim.config import SimulationConfig
from .registry import ScenarioPack, get_scenario, register_scenario

__all__ = [
    "ScenarioModifier",
    "register_modifier",
    "get_modifier",
    "modifier_names",
    "iter_modifiers",
    "compose_scenarios",
    "composed_pack",
    "resolve_scenario",
    "register_composed",
]

_MODIFIERS: dict[str, "ScenarioModifier"] = {}


@dataclass(frozen=True, eq=False)
class ScenarioModifier:
    """A named, reusable scenario axis: one or more override variants.

    Applying a modifier to a config list yields the cross product
    ``variants x configs`` — each variant is a dict of
    ``SimulationConfig.with_`` keyword overrides applied to every config.
    Single-variant modifiers shift a grid; multi-variant modifiers add an
    axis to it.
    """

    name: str
    description: str
    variants: tuple[dict[str, Any], ...]
    tags: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        """Reject empty or field-less variant lists early."""
        if not self.variants:
            raise ValueError(f"modifier {self.name!r} needs at least one variant")
        if any(not v for v in self.variants):
            raise ValueError(f"modifier {self.name!r} has an empty variant")

    @property
    def axes(self) -> tuple[str, ...]:
        """The config fields this modifier touches, sorted."""
        fields: set[str] = set()
        for v in self.variants:
            fields.update(v)
        return tuple(sorted(fields))

    def apply(self, configs: list[SimulationConfig]) -> list[SimulationConfig]:
        """Cross-product ``configs`` with this modifier's variants.

        Variant-major order: all configs under the first variant, then
        all under the second, and so on — so seed-replicate groups stay
        contiguous, and the lane planner's consecutive chunks of a
        compatible group keep each variant's replicates together.
        """
        return [c.with_(**v) for v in self.variants for c in configs]


def register_modifier(
    name: str,
    description: str,
    variants: Iterable[dict[str, Any]],
    tags: tuple[str, ...] = (),
) -> ScenarioModifier:
    """Register a :class:`ScenarioModifier` under ``name`` and return it.

    Raises ``ValueError`` on duplicate names — modifiers, like packs, are
    registered once at import time.
    """
    if name in _MODIFIERS:
        raise ValueError(f"modifier {name!r} already registered")
    mod = ScenarioModifier(
        name=name,
        description=description,
        variants=tuple(dict(v) for v in variants),
        tags=tuple(tags),
    )
    _MODIFIERS[name] = mod
    return mod


def get_modifier(name: str) -> ScenarioModifier:
    """Look up a registered modifier; ``KeyError`` lists the known names."""
    try:
        return _MODIFIERS[name]
    except KeyError:
        known = ", ".join(sorted(_MODIFIERS))
        raise KeyError(f"unknown modifier {name!r}; registered: {known}") from None


def modifier_names(tag: str | None = None) -> list[str]:
    """Sorted registered modifier names, optionally filtered by tag."""
    if tag is None:
        return sorted(_MODIFIERS)
    return sorted(n for n, m in _MODIFIERS.items() if tag in m.tags)


def iter_modifiers() -> list[ScenarioModifier]:
    """All registered modifiers, sorted by name."""
    return [_MODIFIERS[n] for n in sorted(_MODIFIERS)]


# ----------------------------------------------------------------------
# Composition
# ----------------------------------------------------------------------
def compose_scenarios(
    base: str | ScenarioPack,
    *modifiers: str | ScenarioModifier,
    fast: bool = False,
    n_seeds: int = 3,
    overrides: dict[str, Any] | None = None,
    **params: Any,
) -> list[SimulationConfig]:
    """Expand ``base`` and cross-product it with every modifier, in order.

    ``base`` and ``modifiers`` may be registry names or objects; extra
    ``params`` forward to the base pack's builder and ``overrides``
    patches every composed config *last* (after all modifiers), so smoke
    tests can shrink any composition the same way they shrink a pack.

    Example::

        >>> from repro.store import compose_scenarios
        >>> configs = compose_scenarios(
        ...     "base/default", "churn/storm", n_seeds=1,
        ...     overrides={"n_agents": 20, "training_steps": 30, "eval_steps": 20},
        ... )
        >>> [c.leave_rate for c in configs]
        [0.002, 0.01, 0.05]
    """
    pack = base if isinstance(base, ScenarioPack) else get_scenario(base)
    mods = [
        m if isinstance(m, ScenarioModifier) else get_modifier(m)
        for m in modifiers
    ]
    configs = pack.expand(fast=fast, n_seeds=n_seeds, **params)
    for mod in mods:
        configs = mod.apply(configs)
    if overrides:
        configs = [c.with_(**overrides) for c in configs]
    return configs


def composed_pack(spec: str) -> ScenarioPack:
    """Build an on-the-fly :class:`ScenarioPack` from a ``+``-joined spec.

    ``spec`` is ``"<pack>+<modifier>[+<modifier>...]"``; the result
    behaves like any registered pack (same ``expand`` contract), named
    after the spec itself.  Unknown components raise ``KeyError``.
    """
    parts = [p.strip() for p in spec.split("+")]
    if len(parts) < 2 or not all(parts):
        raise ValueError(
            f"composed spec must be '<pack>+<modifier>[+...]', got {spec!r}"
        )
    base = get_scenario(parts[0])
    mods = [get_modifier(name) for name in parts[1:]]
    name = "+".join(parts)

    def build(fast: bool, n_seeds: int, **params: Any) -> list[SimulationConfig]:
        """Expand the parsed composition (closure over base and mods)."""
        return compose_scenarios(
            base, *mods, fast=fast, n_seeds=n_seeds, **params
        )

    tags = {"composed", *base.tags}
    for mod in mods:
        tags.update(mod.tags)
    return ScenarioPack(
        name=name,
        description=(
            f"{base.name} x " + " x ".join(m.name for m in mods) + " (composed)"
        ),
        build=build,
        tags=tuple(sorted(tags)),
    )


def resolve_scenario(name: str) -> ScenarioPack:
    """Resolve a pack name *or* a ``+``-joined composition spec.

    The single entry point the CLI uses: ``"schemes/shootout"`` returns
    the registered pack, ``"paper/fig3+churn/storm"`` returns an
    equivalent on-the-fly composed pack.
    """
    if "+" in name:
        return composed_pack(name)
    return get_scenario(name)


def register_composed(
    name: str,
    description: str,
    base: str,
    modifiers: tuple[str, ...],
    tags: tuple[str, ...] = (),
) -> None:
    """Register a named pack defined as ``base`` composed with ``modifiers``.

    The composition is re-resolved at every expansion, so it always
    reflects the current registries; the pack carries a ``composed`` tag
    plus any explicit ``tags``.
    """

    def build(fast: bool, n_seeds: int, **params: Any) -> list[SimulationConfig]:
        """Re-resolve and expand the named composition at call time."""
        return compose_scenarios(
            base, *modifiers, fast=fast, n_seeds=n_seeds, **params
        )

    register_scenario(name, description, tags=tuple(tags) + ("composed",))(build)


# ----------------------------------------------------------------------
# Built-in modifiers: churn profiles, overlay topologies, capacity
# distributions, adversary mixes, scheme axes
# ----------------------------------------------------------------------
register_modifier(
    "churn/storm",
    "Symmetric join/leave churn axis: rates 0.002, 0.01 and 0.05.",
    [{"leave_rate": r, "join_rate": r} for r in (0.002, 0.01, 0.05)],
    tags=("churn",),
)
register_modifier(
    "churn/spike",
    "A single heavy churn point: leave = join = 0.05.",
    [{"leave_rate": 0.05, "join_rate": 0.05}],
    tags=("churn",),
)
register_modifier(
    "churn/whitewash",
    "Whitewashing axis: identity-reset rates 0.01 and 0.05.",
    [{"whitewash_rate": r} for r in (0.01, 0.05)],
    tags=("churn",),
)
register_modifier(
    "overlay/sparse",
    "Sparse random overlay: Erdos-Renyi at average degree 4.",
    [{"overlay_kind": "random", "overlay_degree": 4}],
    tags=("overlay",),
)
register_modifier(
    "overlay/smallworld",
    "Watts-Strogatz small-world overlay at degree 8.",
    [{"overlay_kind": "smallworld", "overlay_degree": 8}],
    tags=("overlay",),
)
register_modifier(
    "overlay/scalefree",
    "Barabasi-Albert scale-free overlay at degree 8.",
    [{"overlay_kind": "scalefree", "overlay_degree": 8}],
    tags=("overlay",),
)
register_modifier(
    "capacity/heterogeneous",
    "Heterogeneous upload capacity axis: log-normal sigma 0.5 and 1.0.",
    [{"capacity_sigma": s} for s in (0.5, 1.0)],
    tags=("capacity",),
)
register_modifier(
    "capacity/skewed",
    "A single heavily skewed capacity point: log-normal sigma 1.0.",
    [{"capacity_sigma": 1.0}],
    tags=("capacity",),
)
register_modifier(
    "adversary/collusion",
    "Collusion rings: 25% of peers in rings of 4 serving/upvoting only "
    "each other.",
    [{"collusion_fraction": 0.25, "collusion_ring_size": 4}],
    tags=("adversary",),
)
register_modifier(
    "adversary/sybil",
    "Sybil attackers: 20% of peers discard their identity at rate 0.05.",
    [{"sybil_fraction": 0.2, "sybil_rate": 0.05}],
    tags=("adversary",),
)
register_modifier(
    "schemes/all",
    "Incentive-scheme axis: none, tit-for-tat, karma and reputation.",
    [{"scheme": s} for s in ("none", "tft", "karma", "reputation")],
    tags=("schemes",),
)
register_modifier(
    "population/mixed",
    "A mixed population point: 70% rational, 15% altruistic, 15% irrational.",
    [{"mix": PopulationMix(rational=0.7, altruistic=0.15, irrational=0.15)}],
    tags=("population",),
)


# ----------------------------------------------------------------------
# Registered compositions: the combined-stress grids the paper never ran
# ----------------------------------------------------------------------
register_composed(
    "adversary/sybil-storm",
    "Sybil attackers under a churn-storm axis: identity resets compound "
    "with population turnover.",
    "base/default",
    ("adversary/sybil", "churn/storm"),
    tags=("adversary", "churn"),
)
register_composed(
    "stress/kitchen-sink",
    "Everything at once: heavy churn, sparse overlay, skewed capacity, "
    "collusion rings and sybil attackers on the paper baseline.",
    "base/default",
    (
        "churn/spike",
        "overlay/sparse",
        "capacity/skewed",
        "adversary/collusion",
        "adversary/sybil",
    ),
    tags=("stress", "adversary", "churn", "overlay", "capacity"),
)
register_composed(
    "stress/churn-overlay",
    "Churn-storm axis on a sparse random overlay: rejoining peers must "
    "re-earn standing with few neighbours.",
    "base/default",
    ("churn/storm", "overlay/sparse"),
    tags=("stress", "churn", "overlay"),
)
register_composed(
    "stress/capacity-churn",
    "Heterogeneous-capacity axis crossed with the churn-storm axis.",
    "base/default",
    ("capacity/heterogeneous", "churn/storm"),
    tags=("stress", "capacity", "churn"),
)
register_composed(
    "schemes/adversarial",
    "All four incentive schemes against collusion rings: which scheme's "
    "service differentiation resists ballot stuffing?",
    "base/default",
    ("schemes/all", "adversary/collusion"),
    tags=("schemes", "adversary"),
)
