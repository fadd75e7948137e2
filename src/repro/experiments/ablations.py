"""Ablations beyond the paper's figures (its future-work directions).

* ``render_reputation_function`` (``ablation/reputation-fn``) — "future
  work will investigate new and existing reputation functions in order to
  maximize sharing": the logistic steepness beta and alternative function
  families (linear / power / step) on the Figure-3 metric.
* ``render_rmin`` (``ablation/rmin``) — section III-A's R_min trade-off:
  "a high R_min provides incentives for whitewashing the identity".  R_min
  under a whitewashing churn model, reported as sharing plus whitewash
  pressure (how much reputation a peer loses by resetting its identity).
"""

from __future__ import annotations

import numpy as np

from ..analysis.figures import FigureData
from ..core.params import DEFAULT_CONSTANTS
from ..sim.engine import SimulationResult
from ._common import aggregate_metric, group_by

__all__ = ["render_reputation_function", "render_rmin"]


def render_reputation_function(
    results: list[SimulationResult], n_seeds: int
) -> list[FigureData]:
    """Both panels from the ``ablation/reputation-fn`` pack's results.

    The logistic configs at the default constants belong to both panels.
    """
    by_beta = group_by(
        [r for r in results if r.config.reputation_fn_s == "logistic"],
        lambda c: c.constants.reputation_s.beta,
    )
    by_family = group_by(
        [r for r in results if r.config.constants == DEFAULT_CONSTANTS],
        lambda c: c.reputation_fn_s,
    )
    families = list(by_family)
    return [
        FigureData(
            name="ablation_beta",
            title="Sharing vs logistic steepness beta",
            x_label="beta",
            y_label="shared fraction",
            x=np.asarray(list(by_beta), dtype=np.float64),
            series=_sharing_series(by_beta),
            meta={"n_seeds": n_seeds},
        ),
        FigureData(
            name="ablation_family",
            title="Sharing vs reputation-function family",
            x_label="family_index",
            y_label="shared fraction",
            x=np.arange(len(families), dtype=np.float64),
            series=_sharing_series(by_family),
            meta={"families": ",".join(families), "n_seeds": n_seeds},
            kind="bar",
        ),
    ]


def render_rmin(results: list[SimulationResult], n_seeds: int) -> list[FigureData]:
    """The ``ablation/rmin`` pack's results as sharing and whitewash pressure."""
    by_rmin = group_by(results, lambda c: c.constants.reputation_s.r_min)
    series = _sharing_series(by_rmin)
    # Whitewash pressure: the reputation a steady sharer forfeits by
    # resetting to R_min.  High R_min => small loss => whitewashing
    # is cheap (the paper's warning).
    series["whitewash_loss"] = np.asarray(
        [
            aggregate_metric(chunk, "reputation_s_rational")[0] - r_min
            for r_min, chunk in by_rmin.items()
        ]
    )
    return [
        FigureData(
            name="ablation_rmin",
            title="Sharing and whitewash pressure vs R_min",
            x_label="r_min",
            y_label="value",
            x=np.asarray(list(by_rmin), dtype=np.float64),
            series=series,
            meta={
                "whitewash_rate": results[0].config.whitewash_rate,
                "n_seeds": n_seeds,
            },
        )
    ]


def _sharing_series(groups: dict) -> dict[str, np.ndarray]:
    """Mean shared articles and bandwidth per group."""
    return {
        "articles": np.asarray(
            [aggregate_metric(chunk, "shared_files")[0] for chunk in groups.values()]
        ),
        "bandwidth": np.asarray(
            [aggregate_metric(chunk, "shared_bandwidth")[0] for chunk in groups.values()]
        ),
    }
