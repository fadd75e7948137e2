"""Scenario registry: named, discoverable grid-expansion functions.

A *scenario pack* maps a name like ``"churn/whitewash"`` to a function
that expands into a flat list of :class:`SimulationConfig` — the unit the
sweep runner, the run store and the ``repro`` CLI all speak.  Packs are
the only source of the paper's simulation-backed figures and ablations
(``repro figures fig3`` renders ``paper/fig3`` as Figure 3, and ``repro
run paper/fig3`` fills the same store entries) and also hold the
incentive-design grids beyond them: churn storms, whitewashing pressure,
sparse overlays, heterogeneous capacity and scheme shootouts.

Every builder takes ``(fast, n_seeds, **params)`` and the pack applies an
optional ``overrides`` dict (``SimulationConfig.with_`` keywords) to each
expanded config — that is how tests and the CLI shrink any pack to a
smoke-test horizon without the pack having to anticipate it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..agents.population import PopulationMix
from ..core.params import PaperConstants, ReputationParams, ServiceParams
from ..sim.config import ScaleConfig, SimulationConfig
from ..sim.rng import spawn_seeds
from ..sim.scenarios import (
    ROOT_SEED,
    base_config,
    fig3_configs,
    fig6_configs,
    mixture_configs,
    scale_config,
)

__all__ = [
    "ScenarioPack",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "iter_scenarios",
    "expand_scenario",
]

_REGISTRY: dict[str, "ScenarioPack"] = {}


def _seeds(n_seeds: int) -> list[int]:
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    return spawn_seeds(ROOT_SEED, n_seeds)


@dataclass(frozen=True)
class ScenarioPack:
    """A named grid of configs, expandable on demand."""

    name: str
    description: str
    build: Callable[..., list[SimulationConfig]]
    tags: tuple[str, ...] = ()

    def expand(
        self,
        fast: bool = False,
        n_seeds: int = 3,
        overrides: dict[str, Any] | None = None,
        **params: Any,
    ) -> list[SimulationConfig]:
        """The pack's configs; ``overrides`` patches every config last."""
        configs = list(self.build(fast=fast, n_seeds=n_seeds, **params))
        if overrides:
            configs = [c.with_(**overrides) for c in configs]
        return configs


def register_scenario(name: str, description: str, tags: tuple[str, ...] = ()):
    """Decorator registering a grid-expansion function under ``name``.

    The decorated builder takes ``(fast, n_seeds, **params)`` and returns
    a list of :class:`~repro.sim.config.SimulationConfig`; registering a
    name twice raises ``ValueError``.  Example::

        from repro.sim.scenarios import base_config
        from repro.store import register_scenario

        @register_scenario("my/degree-sweep", "Overlay degree sweep.",
                           tags=("overlay",))
        def _build(fast, n_seeds, degrees=(4, 8, 16), **_):
            base = base_config(fast, overlay_kind="random")
            return [base.with_(overlay_degree=d, seed=s)
                    for d in degrees for s in range(n_seeds)]

    after which ``repro run my/degree-sweep`` and
    ``expand_scenario("my/degree-sweep")`` both work, and the pack
    composes with any modifier (``my/degree-sweep+churn/storm``).
    """

    def decorate(fn: Callable[..., list[SimulationConfig]]):
        """Wrap the builder in a :class:`ScenarioPack` and register it."""
        if name in _REGISTRY:
            raise ValueError(f"scenario {name!r} already registered")
        _REGISTRY[name] = ScenarioPack(
            name=name,
            description=description,
            build=fn,
            tags=tuple(tags),
        )
        return fn

    return decorate


def get_scenario(name: str) -> ScenarioPack:
    """Look up a registered pack; ``KeyError`` lists the known names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown scenario {name!r}; registered: {known}") from None


def scenario_names(tag: str | None = None) -> list[str]:
    """Sorted registered pack names, optionally filtered by tag."""
    if tag is None:
        return sorted(_REGISTRY)
    return sorted(n for n, p in _REGISTRY.items() if tag in p.tags)


def iter_scenarios() -> list[ScenarioPack]:
    """All registered packs, sorted by name."""
    return [_REGISTRY[n] for n in sorted(_REGISTRY)]


def expand_scenario(name: str, **kwargs: Any) -> list[SimulationConfig]:
    """Expand a registered pack by name (shorthand for ``get`` + ``expand``)."""
    return get_scenario(name).expand(**kwargs)


# ----------------------------------------------------------------------
# Paper figure packs (the simulation-backed figures; Figures 1/2 are
# analytic curves with no grid to store)
# ----------------------------------------------------------------------
@register_scenario(
    "paper/fig3",
    "Figure 3 grid: all-rational population, incentives on vs off.",
    tags=("paper",),
)
def _paper_fig3(fast: bool, n_seeds: int, **_: Any) -> list[SimulationConfig]:
    with_inc, without = fig3_configs(_seeds(n_seeds), fast=fast)
    return with_inc + without


@register_scenario(
    "paper/fig4",
    "Figure 4/5 mixture grid: altruistic and irrational share 10-90%.",
    tags=("paper",),
)
def _paper_fig4(
    fast: bool,
    n_seeds: int,
    percentages: list[int] | None = None,
    **_: Any,
) -> list[SimulationConfig]:
    seeds = _seeds(n_seeds)
    out: list[SimulationConfig] = []
    for vary in ("altruistic", "irrational"):
        for _pct, cfgs in mixture_configs(vary, seeds, fast=fast, percentages=percentages):
            out.extend(cfgs)
    return out


@register_scenario(
    "paper/fig6",
    "Figure 6 grid: rational share 10-100%, the rest split half/half.",
    tags=("paper",),
)
def _paper_fig6(
    fast: bool,
    n_seeds: int,
    percentages: list[int] | None = None,
    **_: Any,
) -> list[SimulationConfig]:
    out: list[SimulationConfig] = []
    for _pct, cfgs in fig6_configs(_seeds(n_seeds), fast=fast, percentages=percentages):
        out.extend(cfgs)
    return out


@register_scenario(
    "paper/fig7",
    "Figure 7 grid: majority following, altruistic then irrational varied.",
    tags=("paper",),
)
def _paper_fig7(
    fast: bool,
    n_seeds: int,
    percentages: list[int] | None = None,
    **_: Any,
) -> list[SimulationConfig]:
    return _paper_fig4(fast, n_seeds, percentages)


# ----------------------------------------------------------------------
# Ablation packs: the paper's future-work directions
# ----------------------------------------------------------------------
@register_scenario(
    "ablation/reputation-fn",
    "Reputation-function ablation: logistic steepness beta, then function families.",
    tags=("ablation",),
)
def _ablation_reputation_fn(
    fast: bool,
    n_seeds: int,
    betas: tuple[float, ...] = (0.1, 0.15, 0.2, 0.3),
    families: tuple[str, ...] = ("logistic", "linear", "power", "step"),
    **_: Any,
) -> list[SimulationConfig]:
    seeds = _seeds(n_seeds)
    steepness = [
        base_config(
            fast,
            constants=PaperConstants().with_overrides(
                reputation_s=ReputationParams(beta=beta)
            ),
            seed=s,
        )
        for beta in betas
        for s in seeds
    ]
    return steepness + [
        base_config(fast, reputation_fn_s=fam, seed=s) for fam in families for s in seeds
    ]


@register_scenario(
    "ablation/rmin",
    "R_min ablation under whitewashing: a high R_min makes identity resets cheap.",
    tags=("ablation", "churn"),
)
def _ablation_rmin(
    fast: bool,
    n_seeds: int,
    r_mins: tuple[float, ...] = (0.02, 0.05, 0.10, 0.20, 0.40),
    whitewash_rate: float = 0.002,
    **_: Any,
) -> list[SimulationConfig]:
    out: list[SimulationConfig] = []
    for r_min in r_mins:
        theta = max(0.5 * (r_min + 1.0) * 0.2, r_min + 0.05)  # keep theta > r_min
        constants = PaperConstants().with_overrides(
            reputation_s=ReputationParams(r_min=r_min),
            service=ServiceParams(edit_threshold=theta),
        )
        out.extend(
            base_config(fast, constants=constants, whitewash_rate=whitewash_rate, seed=s)
            for s in _seeds(n_seeds)
        )
    return out


# ----------------------------------------------------------------------
# New grids beyond the paper figures
# ----------------------------------------------------------------------
@register_scenario(
    "churn/storm",
    "Symmetric join/leave churn storms under the reputation scheme.",
    tags=("churn",),
)
def _churn_storm(
    fast: bool,
    n_seeds: int,
    rates: tuple[float, ...] = (0.0, 0.002, 0.01, 0.05),
    **_: Any,
) -> list[SimulationConfig]:
    base = base_config(fast)
    return [
        base.with_(leave_rate=r, join_rate=r, seed=s)
        for r in rates
        for s in _seeds(n_seeds)
    ]


@register_scenario(
    "churn/whitewash",
    "Whitewashing pressure: identity-reset rates across incentive schemes.",
    tags=("churn", "schemes"),
)
def _churn_whitewash(
    fast: bool,
    n_seeds: int,
    rates: tuple[float, ...] = (0.0, 0.01, 0.05),
    schemes: tuple[str, ...] = ("reputation", "tft", "karma"),
    **_: Any,
) -> list[SimulationConfig]:
    base = base_config(fast)
    return [
        base.with_(scheme=scheme, whitewash_rate=r, seed=s)
        for scheme in schemes
        for r in rates
        for s in _seeds(n_seeds)
    ]


@register_scenario(
    "overlay/sparse",
    "Sparse/clustered overlays: random, small-world and scale-free graphs.",
    tags=("overlay",),
)
def _overlay_sparse(
    fast: bool,
    n_seeds: int,
    kinds: tuple[str, ...] = ("random", "smallworld", "scalefree"),
    degrees: tuple[int, ...] = (4, 8),
    **_: Any,
) -> list[SimulationConfig]:
    base = base_config(fast)
    return [
        base.with_(overlay_kind=kind, overlay_degree=deg, seed=s)
        for kind in kinds
        for deg in degrees
        for s in _seeds(n_seeds)
    ]


@register_scenario(
    "capacity/heterogeneous",
    "Heterogeneous upload capacity: log-normal sigma sweep (0 = paper).",
    tags=("capacity",),
)
def _capacity_heterogeneous(
    fast: bool,
    n_seeds: int,
    sigmas: tuple[float, ...] = (0.0, 0.5, 1.0),
    **_: Any,
) -> list[SimulationConfig]:
    base = base_config(fast)
    return [
        base.with_(capacity_sigma=sig, seed=s)
        for sig in sigmas
        for s in _seeds(n_seeds)
    ]


@register_scenario(
    "schemes/shootout",
    "Karma vs tit-for-tat vs reputation vs none, pure and mixed populations.",
    tags=("schemes",),
)
def _schemes_shootout(
    fast: bool,
    n_seeds: int,
    schemes: tuple[str, ...] = ("none", "tft", "karma", "reputation"),
    **_: Any,
) -> list[SimulationConfig]:
    base = base_config(fast)
    mixes = (
        PopulationMix(rational=1.0, altruistic=0.0, irrational=0.0),
        PopulationMix(rational=0.7, altruistic=0.15, irrational=0.15),
    )
    return [
        base.with_(scheme=scheme, mix=mix, seed=s)
        for scheme in schemes
        for mix in mixes
        for s in _seeds(n_seeds)
    ]


# ----------------------------------------------------------------------
# Composition root and adversary grids (see repro.store.compose for the
# modifier algebra and the registered compositions built on these)
# ----------------------------------------------------------------------
@register_scenario(
    "base/default",
    "The paper baseline, one config per seed: the canonical composition root.",
    tags=("base",),
)
def _base_default(fast: bool, n_seeds: int, **_: Any) -> list[SimulationConfig]:
    base = base_config(fast)
    return [base.with_(seed=s) for s in _seeds(n_seeds)]


@register_scenario(
    "adversary/collusion",
    "Collusion-ring pressure: ring membership 0-40% under the reputation scheme.",
    tags=("adversary",),
)
def _adversary_collusion(
    fast: bool,
    n_seeds: int,
    fractions: tuple[float, ...] = (0.0, 0.1, 0.25, 0.4),
    ring_size: int = 4,
    **_: Any,
) -> list[SimulationConfig]:
    base = base_config(fast)
    return [
        base.with_(
            collusion_fraction=f, collusion_ring_size=ring_size, seed=s
        )
        for f in fractions
        for s in _seeds(n_seeds)
    ]


@register_scenario(
    "adversary/collusion-rings",
    "Ring-size sweep at fixed 25% colluders: many small cliques vs few cartels.",
    tags=("adversary",),
)
def _adversary_collusion_rings(
    fast: bool,
    n_seeds: int,
    ring_sizes: tuple[int, ...] = (2, 4, 8),
    fraction: float = 0.25,
    **_: Any,
) -> list[SimulationConfig]:
    base = base_config(fast)
    return [
        base.with_(collusion_fraction=fraction, collusion_ring_size=k, seed=s)
        for k in ring_sizes
        for s in _seeds(n_seeds)
    ]


@register_scenario(
    "adversary/sybil",
    "Sybil/whitewash pressure: identity-discard rates for a 20% attacker share.",
    tags=("adversary", "churn"),
)
def _adversary_sybil(
    fast: bool,
    n_seeds: int,
    rates: tuple[float, ...] = (0.0, 0.01, 0.05),
    fraction: float = 0.2,
    **_: Any,
) -> list[SimulationConfig]:
    base = base_config(fast)
    return [
        base.with_(sybil_fraction=fraction, sybil_rate=r, seed=s)
        for r in rates
        for s in _seeds(n_seeds)
    ]


# ----------------------------------------------------------------------
# Scale packs: the memory-bounded large-N path (sparse incentive ledgers,
# chunked kernels, streaming metrics — see docs/ARCHITECTURE.md)
# ----------------------------------------------------------------------
def _scale_base(
    n_agents: int, fast: bool, fast_agents: int, **overrides
) -> SimulationConfig:
    """Shared shape of the large-N packs: one call into the canonical
    :func:`~repro.sim.scenarios.scale_config` workload (the same recipe
    the scale memory tests measure), with the ``fast`` flag shrinking
    population and horizon for smoke tests."""
    if fast:
        overrides = {"training_steps": 40, "eval_steps": 30, **overrides}
    return scale_config(fast_agents if fast else n_agents, **overrides)


@register_scenario(
    "scale/50k",
    "50 000 peers per run: reputation vs tit-for-tat on the sparse scale path.",
    tags=("scale", "schemes"),
)
def _scale_50k(
    fast: bool,
    n_seeds: int,
    n_agents: int = 50_000,
    schemes: tuple[str, ...] = ("reputation", "tft"),
    **_: Any,
) -> list[SimulationConfig]:
    base = _scale_base(n_agents, fast, fast_agents=2_000)
    return [
        base.with_(scheme=scheme, seed=s)
        for scheme in schemes
        for s in _seeds(n_seeds)
    ]


@register_scenario(
    "scale/100k-churn",
    "100 000 peers under join/leave churn and whitewashing, sparse path.",
    tags=("scale", "churn"),
)
def _scale_100k_churn(
    fast: bool,
    n_seeds: int,
    n_agents: int = 100_000,
    rates: tuple[float, ...] = (0.0, 0.01),
    **_: Any,
) -> list[SimulationConfig]:
    base = _scale_base(
        n_agents,
        fast,
        fast_agents=4_000,
        training_steps=60 if not fast else 30,
        eval_steps=40 if not fast else 20,
    )
    return [
        base.with_(leave_rate=r, join_rate=min(10 * r, 0.5), whitewash_rate=r, seed=s)
        for r in rates
        for s in _seeds(n_seeds)
    ]


@register_scenario(
    "scale/sparse-shootout",
    "Sparse-vs-dense tit-for-tat ledgers: eviction caps against the exact matrix.",
    tags=("scale", "schemes"),
)
def _scale_sparse_shootout(
    fast: bool,
    n_seeds: int,
    n_agents: int = 2_000,
    caps: tuple[int, ...] = (8, 32, 128),
    **_: Any,
) -> list[SimulationConfig]:
    base = _scale_base(
        n_agents,
        fast,
        fast_agents=400,
        scheme="tft",
        training_steps=300 if not fast else 60,
        eval_steps=200 if not fast else 40,
    )
    dense = base.with_(scale=ScaleConfig(sparse=False))
    return [
        cfg.with_(seed=s)
        for cfg in (
            [dense]
            + [
                base.with_(scale=ScaleConfig(sparse=True, ledger_cap=cap))
                for cap in caps
            ]
        )
        for s in _seeds(n_seeds)
    ]


@register_scenario(
    "adversary/shootout",
    "All four incentive schemes against collusion rings and sybil attackers.",
    tags=("adversary", "schemes"),
)
def _adversary_shootout(
    fast: bool,
    n_seeds: int,
    schemes: tuple[str, ...] = ("none", "tft", "karma", "reputation"),
    **_: Any,
) -> list[SimulationConfig]:
    base = base_config(fast)
    attacks = (
        {"collusion_fraction": 0.25, "collusion_ring_size": 4},
        {"sybil_fraction": 0.2, "sybil_rate": 0.05},
    )
    return [
        base.with_(scheme=scheme, seed=s, **attack)
        for scheme in schemes
        for attack in attacks
        for s in _seeds(n_seeds)
    ]
