#!/usr/bin/env python3
"""Run a seed ensemble on one checkout, or compare two ensembles.

Usage::

    PYTHONPATH=src python tools/seed_ensemble.py run --out ENSEMBLE.json
    PYTHONPATH=src python tools/seed_ensemble.py compare A.json B.json

``run`` imports ``repro`` from ``PYTHONPATH``, so pointing it at another
checkout's ``src`` runs that checkout's engine on the same configs.  It
runs every config of :data:`GATE` over the fixed :data:`SEEDS` as one
serial sweep (each config's seeds form one lane batch) and writes every
seed's evaluation summary, plus the commit and the NumPy version, to
``--out``.

``compare`` tests the two ensembles per (config, summary metric) with
:func:`repro.analysis.stats.ensemble_equivalence` (Welch's p and Hedges'
g, Holm-Bonferroni across every pair at family-wise alpha 0.05) and
prints the 15 tested pairs with the smallest p.  It exits 1 when any
pair is rejected, so a behaviour re-baseline can be gated on it: run
the parent and the change, commit both files, compare.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

#: The gate's seeds.  Fixed, so a rejected re-baseline cannot be
#: re-run on other seeds until it passes.
SEEDS = range(1000, 1020)

#: The gate's configs: the paper's default at the full 10k + 3k
#: protocol, and the schemes, a figure mix, churn with both adversary
#: kernels and one overlay at 2k + 600 steps.  Keyword overrides of
#: ``SimulationConfig``; ``mix`` is (rational, altruistic, irrational).
SHORT = {"training_steps": 2000, "eval_steps": 600}
GATE: dict[str, dict] = {
    "base/default": {},
    "none": {"scheme": "none", **SHORT},
    "tft": {"scheme": "tft", **SHORT},
    "karma": {"scheme": "karma", **SHORT},
    "fig4-mix-0.2-0.6-0.2": {
        "mix": (0.2, 0.6, 0.2), "enforce_edit_threshold": False, **SHORT
    },
    "churn-adversaries": {
        "leave_rate": 0.05, "join_rate": 0.3, "whitewash_rate": 0.02,
        "collusion_fraction": 0.25, "sybil_fraction": 0.125, "sybil_rate": 0.1,
        **SHORT,
    },
    "overlay-smallworld": {"overlay_kind": "smallworld", **SHORT},
}


def gate_configs(name: str, seeds: list[int]) -> list:
    """One ``SimulationConfig`` of the gate config ``name`` per seed."""
    from repro.agents.population import PopulationMix
    from repro.sim.config import SimulationConfig

    params = dict(GATE[name])
    if "mix" in params:
        params["mix"] = PopulationMix(*params["mix"])
    return [SimulationConfig(seed=s, **params) for s in seeds]


def run(args) -> int:
    """Run the gate's configs on the ``repro`` on the path; write the file."""
    import numpy as np

    import repro
    from repro.sim._sweep import run_sweep

    seeds = list(SEEDS)
    names = list(GATE)
    configs = [c for name in names for c in gate_configs(name, seeds)]
    results = run_sweep(configs, executor="serial")
    src = Path(repro.__file__).resolve().parents[2]
    commit = subprocess.run(
        ["git", "-C", str(src), "rev-parse", "HEAD"],
        capture_output=True, text=True,
    ).stdout.strip()
    out = {
        "commit": commit or None,
        "numpy": np.__version__,
        "seeds": seeds,
        "configs": {},
    }
    for k, name in enumerate(names):
        lane = results[k * len(seeds) : (k + 1) * len(seeds)]
        out["configs"][name] = {
            "overrides": {key: list(v) if isinstance(v, tuple) else v
                          for key, v in GATE[name].items()},
            "summaries": [r.summary for r in lane],
        }
    Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(configs)} summaries ({len(names)} configs) to {args.out}")
    return 0


def _by_metric(ensemble: dict) -> dict[str, dict[str, list[float]]]:
    """``{config: {metric: per-seed values}}`` of one ensemble file."""
    table = {}
    for name, entry in ensemble["configs"].items():
        summaries = entry["summaries"]
        table[name] = {m: [s[m] for s in summaries] for m in summaries[0]}
    return table


def compare(args) -> int:
    """Test two ensemble files pair by pair; 1 if Holm rejects any pair."""
    from repro.analysis.stats import EQUIVALENCE_ALPHA, ensemble_equivalence

    a, b = (json.loads(Path(p).read_text()) for p in (args.a, args.b))
    if a["seeds"] != b["seeds"]:
        print("the ensembles ran different seeds", file=sys.stderr)
        return 2
    rows = ensemble_equivalence(_by_metric(a), _by_metric(b))
    tested = sorted((r for r in rows if not r.equal), key=lambda r: r.p)
    rejected = [r for r in rows if r.reject]
    print(f"{'config':<22} {'metric':<40} {'mean A':>12} {'mean B':>12} {'g':>8} {'p':>9} Holm")
    for r in tested[:15]:
        print(
            f"{r.config:<22} {r.metric:<40} {r.mean_a:>12.6g} {r.mean_b:>12.6g} "
            f"{r.g:>+8.3f} {r.p:>9.3g} {'reject' if r.reject else '-'}"
        )
    print(
        f"\n{len(rows)} pairs over {len(a['configs'])} configs x {len(a['seeds'])} seeds: "
        f"{len(rows) - len(tested)} equal untested, {len(tested)} tested, "
        f"{len(rejected)} rejected (Holm, family-wise alpha {EQUIVALENCE_ALPHA})"
    )
    return 1 if rejected else 0


def main(argv=None) -> int:
    """Parse the command line and run the chosen subcommand."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run the gate's configs on this checkout")
    p_run.add_argument("--out", required=True)
    p_run.set_defaults(fn=run)
    p_cmp = sub.add_parser("compare", help="compare two ensemble files")
    p_cmp.add_argument("a")
    p_cmp.add_argument("b")
    p_cmp.set_defaults(fn=compare)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
