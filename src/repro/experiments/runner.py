"""The paper's figures (and the ablations) as packs plus renderers.

Every simulation-backed figure is a scenario pack plus a renderer over
that pack's results (:data:`FIGURES`).  :func:`run_figures` expands the
selected figures' packs, runs their distinct configs as one sweep, and
renders each figure from that sweep's results; Figures 1 and 2 are
analytic.  ``repro figures`` is the command-line front end::

    repro figures fig3 --fast
    repro figures all --extras --out results/ --seeds 3
    python -m repro.store.cli figures fig7 --fast --executor serial
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

from ..analysis.figures import FigureData
from ..obs import get_tracer
from ..sim.config import SimulationConfig
from ..sim.engine import SimulationResult
from ..store.compose import resolve_scenario
from ..store.hashing import config_hash

from . import (
    ablations,
    adversary_panel,
    fig1_reputation,
    fig2_boltzmann,
    fig3_incentive_effect,
    fig4_population_mix,
    fig5_rational_stability,
    fig6_edit_coin_flip,
    fig7_majority_following,
    scheme_comparison,
)


class Figure(NamedTuple):
    """A simulation-backed figure: the pack it renders and how.

    ``render(results, n_seeds)`` receives the results of the pack's
    distinct configs, in expansion order.
    """

    pack: str
    n_seeds: int
    render: Callable[[list[SimulationResult], int], list[FigureData]]


FIGURES = {
    "fig3": Figure("paper/fig3", 3, fig3_incentive_effect.render),
    "fig4": Figure("paper/fig4", 3, fig4_population_mix.render),
    "fig5": Figure("paper/fig4", 3, fig5_rational_stability.render),
    "fig6": Figure("paper/fig6", 5, fig6_edit_coin_flip.render),
    "fig7": Figure("paper/fig7", 3, fig7_majority_following.render),
    "ablation-repfunc": Figure(
        "ablation/reputation-fn", 2, ablations.render_reputation_function
    ),
    "ablation-rmin": Figure("ablation/rmin", 2, ablations.render_rmin),
    "scheme-comparison": Figure(
        "base/default+schemes/all", 3, scheme_comparison.render
    ),
    "adversary-panel": Figure("adversary/shootout", 3, adversary_panel.render),
}

#: Analytic figures: no simulation, rendered straight from the model.
ANALYTIC = {"fig1": fig1_reputation.run, "fig2": fig2_boltzmann.run}

EXPERIMENTS = [*ANALYTIC, *FIGURES]

PAPER_FIGURES = ["fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7"]

#: Added to ``all`` by ``--extras``: not part of the paper's figure set,
#: so regenerating them by default would triple the runtime of ``all``.
EXTRA_EXPERIMENTS = [
    "ablation-repfunc",
    "ablation-rmin",
    "scheme-comparison",
    "adversary-panel",
]


def run_figures(
    names: list[str],
    *,
    sweep: Callable[[list[SimulationConfig]], list[SimulationResult]],
    fast: bool = False,
    n_seeds: int | None = None,
    **params: Any,
) -> dict[str, list[FigureData]]:
    """Render ``names`` from one sweep over their packs' distinct configs.

    Each figure's pack expands at ``fast`` and ``n_seeds`` (default: the
    figure's own count), passing ``params`` to every pack's builder
    (e.g. ``percentages``), which ignores those it does not take.
    ``sweep(configs)`` runs the distinct configs of every selected
    figure at once; it is not called when only analytic figures are
    selected.
    """
    seeds = {
        name: FIGURES[name].n_seeds if n_seeds is None else n_seeds
        for name in names
        if name in FIGURES
    }
    keyed = {
        # {hash: config} keeps each distinct config once, in expansion order.
        name: {
            config_hash(c): c
            for c in resolve_scenario(FIGURES[name].pack).expand(
                fast=fast, n_seeds=n, **params
            )
        }
        for name, n in seeds.items()
    }
    distinct: dict[str, SimulationConfig] = {}
    for configs in keyed.values():
        distinct.update(configs)
    tracer = get_tracer()
    results = {}
    if distinct:
        with tracer.span("experiment/sweep"):
            results = dict(zip(distinct, sweep(list(distinct.values()))))
    figures = {}
    for name in names:
        with tracer.span(f"experiment/{name}"):
            if name in ANALYTIC:
                figures[name] = ANALYTIC[name](fast=fast)
            else:
                figures[name] = FIGURES[name].render(
                    [results[h] for h in keyed[name]], seeds[name]
                )
    return figures
