"""Simulation engine: config, RNG streams, metrics, phase-kernel engine
(single-run and lane-batched), sweeps, scenarios."""

from .config import ScaleConfig, SimulationConfig
from .engine import (
    BatchedSimulation,
    CollaborationSimulation,
    SimulationResult,
    run_replicates,
    run_simulation,
)
from .lanes import STRUCTURAL_FIELDS, structural_key
from .metrics import MetricsCollector, StepStats
from .state import SimState, build_sim_state
from .rng import make_rng, spawn_rngs, spawn_seeds
from .scenarios import base_config, fig3_configs, fig6_configs, mixture_configs
from ._sweep import (
    SweepWorkerError,
    available_workers,
    get_default_store,
    plan_lane_batches,
    run_sweep,
    set_default_store,
)

__all__ = [
    "ScaleConfig",
    "SimulationConfig",
    "CollaborationSimulation",
    "BatchedSimulation",
    "SimulationResult",
    "run_simulation",
    "run_replicates",
    "SimState",
    "build_sim_state",
    "MetricsCollector",
    "StepStats",
    "make_rng",
    "spawn_rngs",
    "spawn_seeds",
    "base_config",
    "fig3_configs",
    "fig6_configs",
    "mixture_configs",
    "STRUCTURAL_FIELDS",
    "structural_key",
    "plan_lane_batches",
    "available_workers",
    "run_sweep",
    "SweepWorkerError",
    "set_default_store",
    "get_default_store",
]
