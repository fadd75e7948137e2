"""Figure 5: sharing *per rational peer* vs population mix.

Same grid as Figure 4 but restricted to the rational subpopulation.
Paper result: nearly flat — "the behavior of rational agents does not seem
to be affected by varying degrees of altruistic and irrational agents"
(articles ~0.21-0.29, bandwidth ~0.54-0.68 in the paper's plots).
"""

from __future__ import annotations

from ..analysis.figures import FigureData
from ..sim.engine import SimulationResult
from .fig4_population_mix import mixture_figures

__all__ = ["render"]


def render(results: list[SimulationResult], n_seeds: int) -> list[FigureData]:
    """Figure 5 from the ``paper/fig4`` pack's results."""
    return mixture_figures("fig5", results, n_seeds)
