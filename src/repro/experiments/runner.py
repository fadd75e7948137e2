"""CLI: regenerate any of the paper's figures (or the ablations).

Usage::

    repro-experiments fig3 --fast
    repro-experiments all --out results/ --seeds 3 --executor process
    python -m repro.experiments fig7 --fast --executor serial

Every simulation-backed figure is a scenario pack plus a renderer over
that pack's results (:data:`FIGURES`).  The runner expands the selected
figures' packs, runs their distinct configs as one sweep, and renders
each figure from that sweep's results; Figures 1 and 2 are analytic.
Each figure prints an ASCII rendition and writes ``<name>.csv`` +
``<name>.json`` under ``--out`` (default ``results/``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple

from ..analysis.figures import FigureData
from ..obs import Stopwatch, get_tracer
from ..sim._sweep import run_sweep
from ..sim.config import SimulationConfig
from ..sim.engine import SimulationResult
from ..store._runstore import RunStore
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate figures from Bocek et al. (IPDPS 2008).",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which figure/ablation to regenerate ('all' = fig1..fig7)",
    )
    parser.add_argument("--fast", action="store_true", help="reduced horizon")
    parser.add_argument("--seeds", type=int, default=None, help="seeds per point")
    parser.add_argument(
        "--executor",
        choices=["serial", "thread", "process"],
        default="process",
        help="sweep executor",
    )
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--out", type=Path, default=Path("results"))
    parser.add_argument(
        "--extras",
        action="store_true",
        help="with 'all': also run the ablations and the scheme comparison",
    )
    parser.add_argument(
        "--store",
        type=Path,
        default=None,
        help="cache sweeps in this run-store directory (skips cached configs)",
    )
    return parser


def run_figures(
    names: list[str],
    fast: bool = False,
    n_seeds: int | None = None,
    executor: str = "process",
    workers: int | None = None,
    store: Any = None,
    **params: Any,
) -> dict[str, list[FigureData]]:
    """Render ``names`` from one sweep over their packs' distinct configs.

    ``n_seeds`` defaults to each figure's own count; ``params`` reach
    every pack's builder (e.g. ``percentages``), which ignores those it
    does not take.
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
    with tracer.span("experiment/sweep"):
        swept = run_sweep(
            list(distinct.values()), backend=executor, workers=workers, store=store
        )
    results = dict(zip(distinct, swept))
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


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.experiment == "all":
        names = PAPER_FIGURES + (EXTRA_EXPERIMENTS if args.extras else [])
    else:
        names = [args.experiment]
    store = RunStore(args.store) if args.store is not None else None
    watch = Stopwatch()
    figures = run_figures(
        names,
        fast=args.fast,
        n_seeds=args.seeds,
        executor=args.executor,
        workers=args.workers,
        store=store,
    )
    for figs in figures.values():
        for fig in figs:
            print(fig.render())
            csv_path = fig.to_csv(args.out / f"{fig.name}.csv")
            fig.to_json(args.out / f"{fig.name}.json")
            print(f"-> wrote {csv_path}")
    if store is not None:
        print(f"cache: {store.hits} hits / {store.misses} misses")
    print(f"[{', '.join(names)}] done in {watch.elapsed():.1f}s")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
