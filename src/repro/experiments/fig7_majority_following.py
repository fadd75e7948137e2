"""Figure 7: rational agents adopt the majority's edit behaviour.

Top panel: the altruistic share varies 10-90 % — once altruists dominate,
rational agents learn constructive editing/voting.  Bottom panel: the
irrational share varies — once vandals dominate, rational agents learn
destructive behaviour.  This is the paper's headline robustness finding
("rational peers behave according to the majority").
"""

from __future__ import annotations

import numpy as np

from ..analysis.figures import FigureData
from ..sim.engine import SimulationResult
from ._common import group_by
from .fig4_population_mix import mixture_point

__all__ = ["render"]


def render(results: list[SimulationResult], n_seeds: int) -> list[FigureData]:
    """Figure 7 from the ``paper/fig7`` pack's results."""
    panels: dict[str, dict[int, list[SimulationResult]]] = {}
    for (vary, pct), res in group_by(results, mixture_point).items():
        panels.setdefault(vary, {})[pct] = res
    figs = []
    for vary, by_pct in panels.items():
        pcts, cons, dest, spread = [], [], [], []
        for pct, group in by_pct.items():
            fracs = np.array(
                [r.summary["edit_constructive_fraction_rational"] for r in group]
            )
            fracs = fracs[~np.isnan(fracs)]
            m = float(fracs.mean()) if fracs.size else float("nan")
            pcts.append(pct)
            cons.append(m)
            dest.append(1.0 - m)
            spread.append(float(fracs.std()) if fracs.size else float("nan"))
        figs.append(
            FigureData(
                name=f"fig7_{vary}",
                title=f"Rational edits vs {vary} share",
                x_label=f"percentage of {vary} agents",
                y_label="fraction of rational edits",
                x=np.asarray(pcts, dtype=np.float64),
                series={
                    "constructive": np.asarray(cons),
                    "destructive": np.asarray(dest),
                },
                errors={"constructive": np.asarray(spread)},
                meta={"n_seeds": n_seeds},
                kind="bar",
            )
        )
    return figs
