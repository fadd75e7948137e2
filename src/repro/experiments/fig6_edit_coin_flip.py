"""Figure 6: rational edit behaviour when altruists == irrationals.

The rational share varies from 10 % to 100 %; altruistic and irrational
peers split the remainder equally, so neither constructive nor destructive
behaviour has a built-in majority.  Paper result: "the outcome is
completely random" — individual runs converge to either camp, so the
per-seed constructive fractions are bimodal and their across-seed spread
is large.  We report the mean constructive/destructive fractions *and* the
across-seed standard deviation (the paper's randomness, quantified).
"""

from __future__ import annotations

import numpy as np

from ..analysis.figures import FigureData
from ..sim.engine import SimulationResult
from ._common import group_by

__all__ = ["render"]


def render(results: list[SimulationResult], n_seeds: int) -> list[FigureData]:
    """Figure 6 from the ``paper/fig6`` pack's results."""
    grouped = group_by(results, lambda c: round(c.mix.rational * 100))
    pcts, cons_mean, dest_mean, cons_std = [], [], [], []
    per_seed: dict[int, list[float]] = {}
    for pct, group in grouped.items():
        fracs = np.array(
            [r.summary["edit_constructive_fraction_rational"] for r in group]
        )
        fracs = fracs[~np.isnan(fracs)]
        pcts.append(pct)
        m = float(fracs.mean()) if fracs.size else float("nan")
        cons_mean.append(m)
        dest_mean.append(1.0 - m)
        cons_std.append(float(fracs.std()) if fracs.size else float("nan"))
        per_seed[pct] = [round(float(f), 4) for f in fracs]

    x = np.asarray(pcts, dtype=np.float64)
    fig = FigureData(
        name="fig6",
        title="Rational edits, altruistic == irrational remainder",
        x_label="percentage of rational peers",
        y_label="fraction of rational edits",
        x=x,
        series={
            "constructive": np.asarray(cons_mean),
            "destructive": np.asarray(dest_mean),
            "constructive_std": np.asarray(cons_std),
        },
        meta={
            "n_seeds": n_seeds,
            "per_seed_constructive": str(per_seed),
        },
        kind="bar",
    )
    return [fig]
