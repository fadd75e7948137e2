#!/usr/bin/env python
"""Experiment store walkthrough: cached, resumable scenario sweeps.

Runs a tiny scheme-shootout grid into a temporary run store, then runs it
again to show that every config is served from cache, and finally renders
the aggregate report — the same machinery behind ``repro run`` /
``repro report``, driven as a library.
"""

import tempfile

from repro.analysis.report import aggregate_stored_runs, render_stored_table
from repro.sim._sweep import run_sweep
from repro.store import RunStore, expand_scenario, short_hash

#: Tiny horizon so the walkthrough stays sub-second.
TINY = dict(n_agents=20, n_articles=5, training_steps=40, eval_steps=30)


def main() -> None:
    configs = expand_scenario(
        "schemes/shootout",
        fast=True,
        n_seeds=1,
        schemes=("none", "reputation"),
        overrides=TINY,
    )
    print(f"schemes/shootout expands to {len(configs)} configs, e.g.:")
    for cfg in configs[:2]:
        print(f"  {short_hash(cfg)}  {cfg.describe()}")

    with tempfile.TemporaryDirectory() as root:
        store = RunStore(root)
        run_sweep(configs, executor="serial", store=store)
        print(f"\nfirst sweep:  {store.stats}")

        # Same grid, fresh store handle: everything is a cache hit, no
        # simulation executes.  An interrupted sweep resumes the same way,
        # executing only the configs whose results never hit the disk.
        store = RunStore(root)
        run_sweep(configs, executor="serial", store=store)
        print(f"second sweep: {store.stats}")

        metrics = ("shared_files", "shared_bandwidth")
        rows = aggregate_stored_runs(store.records(), metrics)
        print("\n" + render_stored_table(rows, metrics))


if __name__ == "__main__":
    main()
