"""Shared machinery for the per-figure experiment drivers."""

from __future__ import annotations

import numpy as np

from ..analysis.stats import mean_ci
from ..sim.config import SimulationConfig
from ..sim.engine import SimulationResult
from ..sim.rng import spawn_seeds
from ..sim.scenarios import ROOT_SEED
from ..sim._sweep import run_sweep

__all__ = ["default_seeds", "run_grid", "aggregate_metric"]


def default_seeds(n_seeds: int, root: int = ROOT_SEED) -> list[int]:
    return spawn_seeds(root, n_seeds)


def run_grid(
    grid: list[tuple[int, list[SimulationConfig]]],
    backend: str = "process",
    workers: int | None = None,
    store=None,
    progress=None,
) -> list[tuple[int, list[SimulationResult]]]:
    """Run a (label, configs) grid as one flat sweep, regroup results.

    ``store``/``progress`` pass straight through to :func:`run_sweep`
    (the ambient default store applies when ``store`` is None).
    """
    flat: list[SimulationConfig] = []
    spans: list[tuple[int, int, int]] = []
    for label, configs in grid:
        spans.append((label, len(flat), len(flat) + len(configs)))
        flat.extend(configs)
    results = run_sweep(
        flat, backend=backend, workers=workers, store=store, progress=progress
    )
    return [(label, results[a:b]) for label, a, b in spans]


def aggregate_metric(
    results: list[SimulationResult], key: str
) -> tuple[float, float]:
    """(mean, CI half-width) of one summary metric across seeds."""
    ci = mean_ci(np.array([r.summary[key] for r in results]))
    return ci.mean, ci.half_width
