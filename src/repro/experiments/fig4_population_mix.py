"""Figure 4: network-wide sharing vs population mix.

Sweeps the altruistic and the irrational fraction from 10 % to 90 % (the
other two types split the remainder) and reports the mean shared articles
and bandwidth *per peer*.  Paper result: performance rises ~linearly with
altruists and falls ~linearly with irrationals.
"""

from __future__ import annotations

import numpy as np

from ..analysis.figures import FigureData
from ..sim.config import SimulationConfig
from ..sim.engine import SimulationResult
from ._common import aggregate_metric, group_by

__all__ = ["render", "mixture_figures", "mixture_point"]


#: (metric key for articles, metric key for bandwidth, title suffix)
FIGURE_METRICS = {
    "fig4": ("shared_files", "shared_bandwidth", "per peer"),
    "fig5": (
        "shared_files_rational",
        "shared_bandwidth_rational",
        "per rational peer",
    ),
}


def mixture_point(cfg: SimulationConfig) -> tuple[str, int]:
    """(varied type, its percentage) of a mixture-sweep config: the varied
    type takes its share and the other two split the rest equally."""
    mix = cfg.mix
    vary = "altruistic" if mix.rational == mix.irrational else "irrational"
    return vary, round(getattr(mix, vary) * 100)


def mixture_figures(
    fig_name: str, results: list[SimulationResult], n_seeds: int
) -> list[FigureData]:
    """Figures 4 and 5 differ only in the reported metric, so both render
    from the ``paper/fig4`` pack's results."""
    metric_files, metric_bw, suffix = FIGURE_METRICS[fig_name]
    grouped = group_by(results, mixture_point)
    x = np.asarray(list(dict.fromkeys(pct for _, pct in grouped)), dtype=np.float64)
    figs = []
    for metric, store, ylabel in (
        (metric_files, "files", "shared articles"),
        (metric_bw, "bandwidth", "shared bandwidth"),
    ):
        stats: dict[str, list[tuple[float, float]]] = {}
        for (vary, _), res in grouped.items():
            stats.setdefault(vary, []).append(aggregate_metric(res, metric))
        figs.append(
            FigureData(
                name=f"{fig_name}_{store}",
                title=f"{ylabel} {suffix} vs altruistic/irrational share",
                x_label="percentage of user type",
                y_label=ylabel,
                x=x,
                series={k: np.asarray([m for m, _ in v]) for k, v in stats.items()},
                errors={k: np.asarray([hw for _, hw in v]) for k, v in stats.items()},
                meta={"n_seeds": n_seeds},
            )
        )
    return figs


def render(results: list[SimulationResult], n_seeds: int) -> list[FigureData]:
    """Figure 4 from the ``paper/fig4`` pack's results."""
    return mixture_figures("fig4", results, n_seeds)
