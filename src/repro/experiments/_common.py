"""Shared machinery for the per-figure renderers."""

from __future__ import annotations

from typing import Callable, Hashable

import numpy as np

from ..analysis.stats import mean_ci
from ..sim.config import SimulationConfig
from ..sim.engine import SimulationResult

__all__ = ["group_by", "aggregate_metric"]


def group_by(
    results: list[SimulationResult], key: Callable[[SimulationConfig], Hashable]
) -> dict[Hashable, list[SimulationResult]]:
    """Results grouped by ``key(config)``, groups in first-appearance order."""
    groups: dict[Hashable, list[SimulationResult]] = {}
    for r in results:
        groups.setdefault(key(r.config), []).append(r)
    return groups


def aggregate_metric(
    results: list[SimulationResult], key: str
) -> tuple[float, float]:
    """(mean, CI half-width) of one summary metric across seeds."""
    ci = mean_ci(np.array([r.summary[key] for r in results]))
    return ci.mean, ci.half_width
