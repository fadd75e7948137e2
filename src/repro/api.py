"""Stable public facade of the reproduction package.

Everything an external consumer needs lives behind these few names;
anything not exported here (module layout, private helpers, the
``_sweep``/``_runstore`` implementation modules) may move between
releases without notice.  The facade follows semantic versioning: names
in ``__all__`` only change behaviour or signature with a major version
bump (see the "Public API" section of the README).

Quickstart::

    >>> import repro.api as api
    >>> cfg = api.SimulationConfig(n_agents=8, n_articles=2,
    ...                            founders_per_article=2,
    ...                            training_steps=5, eval_steps=5)
    >>> result = api.run(cfg)
    >>> 0.0 <= result.summary["shared_bandwidth"] <= 1.0
    True
"""

from __future__ import annotations

import warnings
from typing import Any

from .sim._sweep import run_sweep as _run_sweep
from .sim.config import ScaleConfig, SimulationConfig
from .sim.engine import SimulationResult, run_simulation
from .store._runstore import RunStore
from .store.compose import compose_scenarios

__all__ = [
    "SimulationConfig",
    "ScaleConfig",
    "SimulationResult",
    "RunStore",
    "run",
    "sweep",
    "compose",
    "open_store",
]


def run(config: SimulationConfig) -> SimulationResult:
    """Execute one full simulation (training + evaluation) and summarize it."""
    return run_simulation(config)


def sweep(
    configs: list[SimulationConfig],
    *,
    store: RunStore | None = None,
    executor: str = "process",
    **kwargs: Any,
) -> list[SimulationResult]:
    """Run a grid of configs; results align with the input list.

    ``executor`` picks the parallelization (``serial`` | ``thread`` |
    ``process``); ``store`` enables caching and resumability.  Remaining
    keyword arguments (``lane_width``, ``dispatch``, ``on_error``,
    ``checkpoint_every``, ...) forward to :func:`repro.sim._sweep.run_sweep`,
    the engine-level entry point behind this facade.  Every sweep lane-batches
    structurally compatible configs, so the old ``lane_batch`` and
    ``batch_replicates`` switches are accepted and ignored with a
    :class:`DeprecationWarning`.
    """
    for name in ("lane_batch", "batch_replicates"):
        if name in kwargs:
            del kwargs[name]
            warnings.warn(
                f"sweep({name}=...) is deprecated and has no effect: every "
                f"sweep lane-batches structurally compatible configs",
                DeprecationWarning,
                stacklevel=2,
            )
    return _run_sweep(configs, backend=executor, store=store, **kwargs)


def compose(
    base: Any, *modifiers: Any, **kwargs: Any
) -> list[SimulationConfig]:
    """Expand a scenario pack and cross it with modifiers into configs.

    Thin alias of :func:`repro.store.compose.compose_scenarios`:
    ``compose("paper/fig3", "churn/storm", n_seeds=3)`` yields the
    fig3 grid under a churn storm, ready for :func:`sweep`.
    """
    return compose_scenarios(base, *modifiers, **kwargs)


def open_store(root: Any) -> RunStore:
    """Open (creating if needed) the on-disk run store at ``root``."""
    return RunStore(root)
