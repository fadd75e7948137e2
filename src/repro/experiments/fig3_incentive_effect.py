"""Figure 3: shared articles/bandwidth with vs without the incentive scheme.

All-rational population (the paper's "Effectiveness with Rational Peers").
Paper result: with incentives the peers share approximately 8 % more
articles and 11 % more bandwidth than without.
"""

from __future__ import annotations

import numpy as np

from ..analysis.figures import FigureData
from ..analysis.stats import relative_change, welch_t_test
from ..sim.engine import SimulationResult
from ._common import aggregate_metric, group_by

__all__ = ["render"]


def render(results: list[SimulationResult], n_seeds: int) -> list[FigureData]:
    """Figure 3 from the ``paper/fig3`` pack's results."""
    grouped = group_by(results, lambda c: c.incentives_enabled)
    with_res, without_res = grouped[True], grouped[False]

    rows = {}
    errs = {}
    for label, res in (("incentive", with_res), ("no_incentive", without_res)):
        f_mean, f_hw = aggregate_metric(res, "shared_files")
        b_mean, b_hw = aggregate_metric(res, "shared_bandwidth")
        rows[label] = np.array([f_mean, b_mean])
        errs[label] = np.array([f_hw, b_hw])

    gain_articles = relative_change(rows["no_incentive"][0], rows["incentive"][0])
    gain_bandwidth = relative_change(rows["no_incentive"][1], rows["incentive"][1])
    _, p_articles = welch_t_test(
        [r.summary["shared_files"] for r in with_res],
        [r.summary["shared_files"] for r in without_res],
    )
    _, p_bandwidth = welch_t_test(
        [r.summary["shared_bandwidth"] for r in with_res],
        [r.summary["shared_bandwidth"] for r in without_res],
    )
    fig = FigureData(
        name="fig3",
        title="Shared articles (x=0) and bandwidth (x=1), rational peers",
        x_label="resource",
        y_label="shared fraction",
        x=np.array([0.0, 1.0]),
        series=rows,
        errors=errs,
        meta={
            "gain_articles": round(float(gain_articles), 4),
            "gain_bandwidth": round(float(gain_bandwidth), 4),
            "p_articles": round(float(p_articles), 4),
            "p_bandwidth": round(float(p_bandwidth), 4),
            "paper_gain_articles": 0.08,
            "paper_gain_bandwidth": 0.11,
            "n_seeds": n_seeds,
        },
        kind="bar",
    )
    return [fig]
