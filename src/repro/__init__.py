"""repro — reproduction of Bocek et al., "Game theoretical analysis of
incentives for large-scale, fully decentralized collaboration networks"
(IEEE IPDPS 2008).

Subpackages
-----------
``repro.core``
    The paper's contribution: reputation functions, contribution ledgers,
    service differentiation, utility functions, punishment, and the
    incentive-scheme facade (plus the no-incentive baseline).
``repro.network``
    P2P collaboration-network substrate: peers, articles with voting,
    bandwidth settlement, overlay topologies, churn.
``repro.gametheory``
    A mean-field analysis of the sharing game: best responses and
    symmetric equilibria on the paper's action grid.
``repro.agents``
    Vectorized tabular Q-learning with Boltzmann exploration, behaviour
    policies, population mixes.
``repro.sim``
    The time-stepped engine, configs, metrics, seeded RNG streams and the
    parallel sweep runner.
``repro.analysis``
    Statistics, series utilities, ASCII plots and figure containers.
``repro.experiments``
    One renderer per paper figure (1-7) plus future-work ablations, run
    by ``repro figures``; not imported by ``import repro``.

Quickstart
----------
>>> from repro.sim import base_config, run_simulation
>>> result = run_simulation(base_config(fast=True))
>>> 0.0 <= result.summary["shared_bandwidth"] <= 1.0
True
"""

__version__ = "2.0.0"

from . import agents, analysis, core, gametheory, network, sim
from . import api

__all__ = [
    "api",
    "agents",
    "analysis",
    "core",
    "gametheory",
    "network",
    "sim",
    "__version__",
]
