"""Canned configurations matching the paper's experiments.

Each figure's experiment module asks this factory for its configs; the
``fast`` flag shrinks the horizon for benchmarks and smoke tests while
preserving the protocol (train at ``T = inf``, reset, evaluate at
``T = 1``).
"""

from __future__ import annotations

from ..agents.population import PopulationMix, mixture_sweep
from .config import ScaleConfig, SimulationConfig

__all__ = [
    "base_config",
    "scale_config",
    "scale_peak_bytes",
    "fig3_configs",
    "mixture_configs",
    "fig6_configs",
]

#: Root seed of the figure grids: the ``repro-experiments`` figure modules
#: and the ``paper/`` scenario packs both derive their run seeds from it,
#: so both front-ends expand to the same config hashes and share store
#: entries.
ROOT_SEED = 20080414  # IPDPS 2008 conference date

#: Reduced horizon used by benchmarks / CI (protocol preserved).
FAST_TRAINING_STEPS = 1_500
FAST_EVAL_STEPS = 800


def base_config(fast: bool = False, **overrides) -> SimulationConfig:
    """The paper's default setting: 100 rational agents, incentives on."""
    cfg = SimulationConfig()
    if fast:
        cfg = cfg.with_(
            training_steps=FAST_TRAINING_STEPS, eval_steps=FAST_EVAL_STEPS
        )
    return cfg.with_(**overrides) if overrides else cfg


def scale_config(n_agents: int, **overrides) -> SimulationConfig:
    """The canonical large-N sparse workload, shared by every scale gate.

    One definition serves the ``scale/`` scenario packs, the nightly
    memory-budget tool (``tools/mem_budget.py``) and the scale
    benchmarks (``benchmarks/test_bench_scale.py``), so tuning the
    workload here retunes what CI gates and what ``repro run scale/50k``
    executes in one place.  Workload knobs scale with the population
    (more articles, thinner per-peer edit pressure) so per-step totals
    stay proportionate; the horizon is short because large populations
    measure steady-state service, not learning curves.
    """
    cfg = SimulationConfig(
        n_agents=n_agents,
        n_articles=max(30, n_agents // 100),
        founders_per_article=10,
        training_steps=120,
        eval_steps=80,
        edit_attempt_prob=0.01,
        scale=ScaleConfig(sparse=True, ledger_cap=64),
    )
    return cfg.with_(**overrides) if overrides else cfg


def scale_peak_bytes(
    n_agents: int, steps: int = 5, **overrides
) -> tuple[int, int]:
    """(tracemalloc peak, resident ledger bytes) of a short scale run.

    The one measurement recipe behind the nightly memory gate
    (``tools/mem_budget.py``) and the scale benchmarks
    (``benchmarks/test_bench_scale.py``): build a
    :func:`scale_config` simulation, step it ``steps`` times, and read
    the traced allocation peak (numpy routes its buffers through the
    traced allocator).  The second element is the sparse ledger's
    resident bytes, ``0`` for schemes without one.
    """
    import tracemalloc

    from .engine import CollaborationSimulation

    cfg = scale_config(n_agents, training_steps=steps, eval_steps=1, **overrides)
    tracemalloc.start()
    try:
        sim = CollaborationSimulation(cfg)
        for _ in range(steps):
            sim.step(float("inf"))
        _, peak = tracemalloc.get_traced_memory()
        ledger_bytes = (
            sim.scheme._ledger.nbytes
            if getattr(sim.scheme, "sparse", False)
            else 0
        )
    finally:
        tracemalloc.stop()
    return peak, ledger_bytes


def fig3_configs(
    seeds: list[int], fast: bool = False
) -> tuple[list[SimulationConfig], list[SimulationConfig]]:
    """(incentive, no-incentive) config lists for Figure 3 (all rational)."""
    base = base_config(fast)
    with_inc = [base.with_(incentives_enabled=True, seed=s) for s in seeds]
    without = [base.with_(incentives_enabled=False, seed=s) for s in seeds]
    return with_inc, without


def mixture_configs(
    vary: str,
    seeds: list[int],
    fast: bool = False,
    percentages: list[int] | None = None,
    strict_editing: bool = False,
) -> list[tuple[int, list[SimulationConfig]]]:
    """Configs for the Figure 4/5/7 mixture sweeps.

    Returns ``[(percentage, [config per seed]), ...]`` where the varied
    type takes ``percentage`` % and the other two split the remainder.
    ``strict_editing=False`` matches the paper's simulated editing game
    (every type may edit; see ``SimulationConfig.enforce_edit_threshold``).
    """
    base = base_config(fast, enforce_edit_threshold=strict_editing)
    pcts = percentages if percentages is not None else list(range(10, 100, 10))
    out = []
    for pct, mix in zip(pcts, mixture_sweep(vary, pcts)):
        out.append((pct, [base.with_(mix=mix, seed=s) for s in seeds]))
    return out


def fig6_configs(
    seeds: list[int],
    fast: bool = False,
    percentages: list[int] | None = None,
    strict_editing: bool = False,
) -> list[tuple[int, list[SimulationConfig]]]:
    """Figure 6: rational share varies, altruistic == irrational remainder."""
    base = base_config(fast, enforce_edit_threshold=strict_editing)
    pcts = percentages if percentages is not None else list(range(10, 101, 10))
    out = []
    for pct in pcts:
        x = pct / 100.0
        rest = (1.0 - x) / 2.0
        mix = PopulationMix(rational=x, altruistic=rest, irrational=rest)
        out.append((pct, [base.with_(mix=mix, seed=s) for s in seeds]))
    return out
