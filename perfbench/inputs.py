"""Workload inputs, generated from the benchmark's ``--seed``.

The program only ever receives the configs built here.  Packs are
expanded through ``repro.api.compose`` and their registry seeds are
replaced by seeds derived from the workload seed, so the same seed always
gives the same inputs and a new seed gives a new draw of the same grid.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("paper-run", "fig-grid", "scale-50k", "service-mixed")

# (training_steps, eval_steps) per workload; None keeps the pack's horizon.
# fig-grid keeps the paper's 10:3 split but shrinks it so one 56-lane grid
# takes ~4 s; scale-50k keeps the pack's 3:2 split at 40 steps so both
# 50k-agent runs fit in ~7 s.  paper-run is the paper's full 10k + 3k.
HORIZON = {"paper-run": None, "fig-grid": (200, 60), "scale-50k": (24, 16)}

# The call census runs the same configs on a shorter horizon with the
# same train:eval split: per-step counts repeat exactly for a fixed seed,
# and profiling the full horizon would take minutes.
CENSUS_HORIZON = {"paper-run": (400, 120), "fig-grid": (40, 12), "scale-50k": (6, 4)}


def derive_seeds(seed: int, n: int, stream: int = 0) -> list[int]:
    """``n`` 32-bit seeds drawn from the workload seed (and a sub-stream)."""
    state = np.random.SeedSequence([int(seed), int(stream)]).generate_state(n)
    return [int(s) for s in state]


def _reseed(configs, seed: int) -> list:
    """Map each distinct pack seed (first-appearance order) to a derived one."""
    pack_seeds = list(dict.fromkeys(c.seed for c in configs))
    mapping = dict(zip(pack_seeds, derive_seeds(seed, len(pack_seeds))))
    return [c.with_(seed=mapping[c.seed]) for c in configs]


def sim_configs(workload: str, seed: int, horizon: tuple[int, int] | None = None):
    """The configs one unit of a simulation workload runs, in order."""
    import repro.api as api

    if workload == "paper-run":
        configs = api.compose("base/default", n_seeds=1)
    elif workload == "fig-grid":
        configs = api.compose("paper/fig4", n_seeds=2) + api.compose(
            "paper/fig6", n_seeds=2
        )
    elif workload == "scale-50k":
        configs = api.compose("scale/50k", n_seeds=1)
    else:
        raise ValueError(f"not a simulation workload: {workload!r}")
    configs = _reseed(configs, seed)
    horizon = horizon or HORIZON[workload]
    if horizon is not None:
        train, evaluate = horizon
        configs = [c.with_(training_steps=train, eval_steps=evaluate) for c in configs]
    if len(set(configs)) != len(configs):
        raise ValueError(f"{workload}: configs are not unique")
    return configs


def agent_steps(configs) -> int:
    """Sum of N x protocol steps over ``configs``."""
    return sum(c.n_agents * (c.training_steps + c.eval_steps) for c in configs)
