"""Scheme bake-off: the paper's scheme vs its related-work categories.

Renders the all-rational Figure-3 workload under four schemes — no
incentives, tit-for-tat (private history, section II-B2), karma
(trade-based, section II-B1) and the paper's shared-history reputation
scheme — and reports the sharing levels each one sustains.

The point the paper argues qualitatively becomes measurable: on a
workload dominated by non-direct relations, TFT's private history barely
distinguishes peers (a downloader almost never served its source before),
so it behaves like the no-incentive baseline; the shared-history
reputation scheme is the one that moves sharing.
"""

from __future__ import annotations

import numpy as np

from ..analysis.figures import FigureData
from ..sim.engine import SimulationResult
from ._common import aggregate_metric, group_by

__all__ = ["render"]


def render(results: list[SimulationResult], n_seeds: int) -> list[FigureData]:
    """The ``base/default+schemes/all`` composition's results, per scheme."""
    by_scheme = group_by(results, lambda c: c.scheme)
    schemes = list(by_scheme)
    files_m, files_e, bw_m, bw_e = [], [], [], []
    for chunk in by_scheme.values():
        fm, fh = aggregate_metric(chunk, "shared_files")
        bm, bh = aggregate_metric(chunk, "shared_bandwidth")
        files_m.append(fm)
        files_e.append(fh)
        bw_m.append(bm)
        bw_e.append(bh)

    fig = FigureData(
        name="scheme_comparison",
        title="Sharing sustained per incentive scheme (rational peers)",
        x_label="scheme_index",
        y_label="shared fraction",
        x=np.arange(len(schemes), dtype=np.float64),
        series={"articles": np.asarray(files_m), "bandwidth": np.asarray(bw_m)},
        errors={"articles": np.asarray(files_e), "bandwidth": np.asarray(bw_e)},
        meta={"schemes": ",".join(schemes), "n_seeds": n_seeds},
        kind="bar",
    )
    return [fig]
