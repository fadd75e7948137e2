"""The ``repro`` command line: scenarios, figures, sweeps and the store.

One front door over the scenario registry and the content-addressed run
store::

    repro scenarios                      # what can I run?
    repro run schemes/shootout --fast    # run a named pack, cached
    repro run paper/fig3 --seeds 5
    repro figures fig3 fig4 --fast       # render paper figures, cached
    repro figures all --extras --out results/
    repro sweep --set scheme=karma,tft --set n_agents=50,100
    repro sweep --set t_eval=0.5,1,2     # one vectorized lane batch
    repro sweep --set scheme=karma,tft --dispatch=store  # cooperative drain
    repro sweep --publish-only --set n_agents=50,100  # publish, don't run
    repro sweep-worker ./runstore        # join any drain on this store
    repro serve --port 8321              # HTTP job API + SSE over the store
    repro chaos base/default --plan p.json  # replay a fault schedule
    repro profile base/default --fast    # cProfile one pack config
    repro trace scale/50k --json         # traced run: phase-time breakdown
    repro ls                             # stored runs, no simulation
    repro ls --errors                    # quarantine artifacts, no simulation
    repro report --metric shared_files   # aggregate table, no simulation
    repro stats                          # aggregate stored telemetry

``run``, ``sweep``, ``chaos`` and ``figures`` share one execution path
and one definition of each execution flag (:data:`_FLAGS`), and persist
into ``--store`` (default ``./runstore``), so repeating a command is
free and an interrupted grid resumes where it stopped.  ``ls``,
``report`` and ``stats`` only read the store.  ``trace`` executes one
config under the :mod:`repro.obs` tracer and persists both the result
and its ``telemetry/<hash>.json`` artifact.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable

from ..analysis.report import aggregate_stored_runs, render_stored_table
from ..sim.config import ScaleConfig, SimulationConfig
from ..sim.engine import SimulationResult
from ..sim.scenarios import base_config
from ..sim._sweep import SweepFailure, run_sweep
from .compose import iter_modifiers, resolve_scenario
from .hashing import revive_floats, short_hash
from .registry import ScenarioPack, iter_scenarios
from ._runstore import RunStore, StoredRun

__all__ = ["build_parser", "main"]

# --set reaches every scalar config field plus the scale section's leaves
# as dotted keys (``--set scale.sparse=true``); the remaining structured
# fields (mix, constants) need real objects and are set by scenario
# builders instead.
_CONFIG_FIELDS = (
    {f.name for f in dataclasses.fields(SimulationConfig)} - {"mix", "constants", "scale"}
) | {f"scale.{f.name}" for f in dataclasses.fields(ScaleConfig)}
_DEFAULT_METRICS = ("shared_files", "shared_bandwidth")
_DEFAULT_SEEDS = 3


def _positive_int(token: str) -> int:
    """argparse type: an integer >= 1 (a usage error otherwise)."""
    try:
        value = int(token)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {token!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _parse_value(token: str) -> Any:
    """One ``--set`` value: JSON scalar if it parses, else a string."""
    stripped = token.strip()
    special = {"inf": float("inf"), "+inf": float("inf"),
               "-inf": float("-inf"), "nan": float("nan")}
    if stripped.lower() in special:
        return special[stripped.lower()]
    try:
        return json.loads(stripped)
    except json.JSONDecodeError:
        return stripped


def _parse_set(
    entries: list[str] | None, allow_dotted: bool = False
) -> dict[str, list[Any]]:
    """``["k=v1,v2", ...]`` -> ``{k: [v1, v2], ...}`` with field checks."""
    all_fields = {f.name for f in dataclasses.fields(SimulationConfig)}
    out: dict[str, list[Any]] = {}
    for entry in entries or []:
        key, sep, raw = entry.partition("=")
        key = key.strip()
        if not sep or not key or not raw:
            raise SystemExit(f"error: --set expects key=value[,value...], got {entry!r}")
        root = key.split(".", 1)[0]
        valid = root in all_fields if allow_dotted else key in _CONFIG_FIELDS
        if not valid:
            known = ", ".join(sorted(all_fields if allow_dotted else _CONFIG_FIELDS))
            raise SystemExit(f"error: unknown config field {key!r}; fields: {known}")
        if allow_dotted and key in ("mix", "constants", "scale"):
            # A structured field can never equal a scalar filter value;
            # without this the query would silently match nothing.
            raise SystemExit(
                f"error: {key!r} is a structured field; filter a leaf "
                f"field instead (e.g. mix.rational)"
            )
        out[key] = [_parse_value(v) for v in raw.split(",")]
    return out


def _single_overrides(grid: dict[str, list[Any]]) -> dict[str, Any]:
    """Collapse a --set grid into plain overrides (each key one value)."""
    bad = [k for k, vs in grid.items() if len(vs) != 1]
    if bad:
        raise SystemExit(
            f"error: multi-value --set only makes sense for 'repro sweep' "
            f"(got multiple values for {', '.join(bad)})"
        )
    return {k: vs[0] for k, vs in grid.items()}


def _expand_grid(
    grid: dict[str, list[Any]], base: SimulationConfig
) -> list[SimulationConfig]:
    """Cartesian product of the --set axes applied to ``base``."""
    configs = [base]
    for key, values in grid.items():
        configs = [c.with_(**{key: v}) for c in configs for v in values]
    return configs


def _progress_printer(quiet: bool):
    """Per-run progress callback for ``run_sweep`` (``None`` if quiet)."""
    if quiet:
        return None

    def progress(done, total, index, result, cached, stats):
        """Print one `[done/total] hash description (time|cache)` line."""
        tag = "cache" if cached else f"{result.wall_time_s:6.2f}s"
        print(
            f"  [{done}/{total}] {short_hash(result.config)} "
            f"{result.config.describe()}  ({tag})"
        )

    return progress


def _expand(
    spec: str, args: argparse.Namespace, n_seeds: int | None = None
) -> tuple[ScenarioPack, list[SimulationConfig]]:
    """Resolve a pack or ``pack+modifier`` spec and expand it.

    The one scenario expansion of ``run``, ``chaos``, ``profile`` and
    ``trace``: ``--fast`` and the command's single-valued
    ``--set`` overrides (if it takes any) apply to every config, and
    ``n_seeds`` defaults to ``--seeds`` (3 when not given).  An unknown
    name exits with the registry's message.
    """
    try:
        pack = resolve_scenario(spec)
    except (KeyError, ValueError) as exc:
        raise SystemExit(f"error: {exc.args[0]}") from None
    if n_seeds is None:
        n_seeds = args.seeds if args.seeds is not None else _DEFAULT_SEEDS
    overrides = _single_overrides(_parse_set(getattr(args, "set", None)))
    configs = pack.expand(
        fast=args.fast, n_seeds=n_seeds, overrides=overrides or None
    )
    return pack, configs


def _execute(
    configs: list[SimulationConfig], args: argparse.Namespace
) -> list[SimulationResult | None]:
    """Run ``configs`` as one sweep under the command's execution flags.

    The execution path of ``run``, ``sweep``, ``chaos`` and ``figures``:
    prints the dispatch counters, every quarantined config and the
    store's cache line.  A quarantined config's slot is ``None``.
    """
    if args.no_store and (
        args.dispatch or args.on_error == "quarantine" or args.checkpoint_every
    ):
        raise SystemExit(
            "error: --dispatch=store, --on-error=quarantine and "
            "--checkpoint-every keep their state in the store; drop --no-store"
        )
    store = None if args.no_store else RunStore(args.store)
    failures: list[SweepFailure] = []
    results = run_sweep(
        configs,
        executor=args.executor,
        workers=args.workers,
        store=store,
        progress=_progress_printer(args.quiet),
        lane_width=args.lane_width,
        dispatch=args.dispatch,
        lease_expiry_s=args.lease_expiry,
        on_error=args.on_error,
        checkpoint_every=args.checkpoint_every,
        on_failure=failures.append,
    )
    if args.dispatch and not args.quiet:
        from .dispatch import last_dispatch_stats

        stats = last_dispatch_stats()
        if stats is not None:
            print(
                f"dispatch: {stats.computed} computed / {stats.served} served "
                f"by peers or cache; {stats.claimed} tasks claimed, "
                f"{stats.reclaimed} reclaimed "
                f"({stats.configs_per_sec:.2f} configs/s as {stats.owner})"
            )
    if failures:
        print(f"quarantined {len(failures)} config(s):")
        for f in failures:
            print(
                f"  {short_hash(f.config_hash)}  attempts={f.attempts}  "
                f"{f.error}"
            )
        print(
            f"  (details in {args.store}/errors/<hash>.json; "
            f"list with: repro ls --errors --store {args.store})"
        )
    if store is not None:
        # The store was opened above with zeroed counters, so the session
        # totals are exactly this command's hits/misses.
        print(
            f"cache: {store.hits} hits / {store.misses} misses "
            f"({len(store)} runs stored in {store.root})"
        )
    return results


def _run_and_report(
    configs: list[SimulationConfig], args: argparse.Namespace
) -> int:
    """Execute ``configs`` and print the ``--metric`` table over them."""
    records = [
        StoredRun.from_result(r) for r in _execute(configs, args) if r is not None
    ]
    metrics = tuple(args.metric or _DEFAULT_METRICS)
    print(render_stored_table(aggregate_stored_runs(records, metrics), metrics))
    return 0


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_scenarios(args: argparse.Namespace) -> int:
    """List packs (and modifiers), or emit the markdown catalog."""
    if args.markdown:
        if args.tag:
            # The catalog is the full, CI-checked document; silently
            # emitting an unfiltered file for a filtered request would
            # mislead whoever pipes it somewhere.
            raise SystemExit("error: --markdown emits the full catalog; "
                             "it cannot be combined with --tag")
        from .catalog import scenario_catalog_markdown

        print(scenario_catalog_markdown(), end="")
        return 0
    for pack in iter_scenarios():
        if args.tag and args.tag not in pack.tags:
            continue
        tags = f" [{', '.join(pack.tags)}]" if pack.tags else ""
        print(f"{pack.name:<26} {pack.description}{tags}")
    mods = [
        m for m in iter_modifiers() if not args.tag or args.tag in m.tags
    ]
    if mods:
        print()
        print("modifiers (compose onto any pack with '+', e.g. <pack>+<modifier>):")
        for mod in mods:
            tags = f" [{', '.join(mod.tags)}]" if mod.tags else ""
            print(f"  +{mod.name:<24} {mod.description}{tags}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """Expand a pack or a ``pack+modifier`` spec and run it cached."""
    pack, configs = _expand(args.scenario, args)
    if not args.quiet:
        print(f"scenario {pack.name}: {len(configs)} configs")
    return _run_and_report(configs, args)


def cmd_figures(args: argparse.Namespace) -> int:
    """Regenerate the paper's figures (or the ablations) from one sweep.

    Expands the selected figures' packs, runs their distinct configs as
    one sweep through ``run``'s execution path (so a store makes a
    re-run all cache hits), and renders each figure: an ASCII rendition
    on stdout and ``<name>.csv`` + ``<name>.json`` under ``--out``.
    Figures 1 and 2 are analytic: selected alone, they run no sweep and
    open no store.
    """
    from ..experiments.runner import (
        EXPERIMENTS,
        EXTRA_EXPERIMENTS,
        PAPER_FIGURES,
        run_figures,
    )
    from ..obs import Stopwatch

    unknown = sorted(set(args.names) - {"all", *EXPERIMENTS})
    if unknown:
        raise SystemExit(
            f"error: unknown figure(s) {', '.join(unknown)}; choose from: "
            f"all, {', '.join(sorted(EXPERIMENTS))}"
        )
    every = PAPER_FIGURES + (EXTRA_EXPERIMENTS if args.extras else [])
    names = list(
        dict.fromkeys(n for name in args.names for n in (every if name == "all" else [name]))
    )

    def sweep(configs: list[SimulationConfig]) -> list[SimulationResult]:
        """Run the figures' distinct configs; a gap leaves nothing to render."""
        if not args.quiet:
            print(f"figures {', '.join(names)}: {len(configs)} distinct configs")
        results = _execute(configs, args)
        if any(r is None for r in results):
            raise SystemExit("error: quarantined configs leave the figures incomplete")
        return results

    watch = Stopwatch()
    figures = run_figures(names, sweep=sweep, fast=args.fast, n_seeds=args.seeds)
    for figs in figures.values():
        for fig in figs:
            print(fig.render())
            csv_path = fig.to_csv(args.out / f"{fig.name}.csv")
            fig.to_json(args.out / f"{fig.name}.json")
            print(f"-> wrote {csv_path}")
    print(f"[{', '.join(names)}] done in {watch.elapsed():.1f}s")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run the ad-hoc cartesian grid spelled by ``--set`` axes, cached."""
    grid = _parse_set(args.set)
    seeds_axis = grid.pop("seed", None)
    if seeds_axis is not None and args.seeds is not None:
        raise SystemExit(
            "error: --seeds and an explicit '--set seed=...' axis are "
            "mutually exclusive"
        )
    configs = _expand_grid(grid, base_config(args.fast))
    if seeds_axis is not None:
        configs = [c.with_(seed=s) for c in configs for s in seeds_axis]
    else:
        from ..sim.rng import spawn_seeds

        n_seeds = args.seeds if args.seeds is not None else _DEFAULT_SEEDS
        configs = [
            c.with_(seed=s)
            for c in configs
            for s in spawn_seeds(c.seed, n_seeds)
        ]
    if not args.quiet:
        print(f"sweep: {len(configs)} configs")
    if args.publish_only:
        if args.no_store:
            raise SystemExit("error: --publish-only writes the store; drop --no-store")
        from .dispatch import publish_sweep_grid

        store = RunStore(args.store)
        key, grid = publish_sweep_grid(store, configs, lane_width=args.lane_width)
        print(
            f"published grid {key} ({len(grid)} configs) to {store.root}; "
            f"drain it with: repro sweep-worker {store.root}"
        )
        return 0
    return _run_and_report(configs, args)


def cmd_sweep_worker(args: argparse.Namespace) -> int:
    """Join the cooperative drain of published grids in a store.

    The inverse handshake of ``repro sweep --dispatch=store``: instead of
    bringing a grid, the worker discovers grid manifests already
    published in the store (``repro sweep --publish-only``, or any
    dispatching sweep) and computes whatever task units it can claim.
    Launch any number against one store — terminals, cron jobs, other
    machines on a shared filesystem — and they drain it together with
    zero duplicate computation.
    """
    from ..obs import build_telemetry, tracing
    from .dispatch import last_dispatch_stats

    store = RunStore(args.store)
    poll_s = max(0.05, args.poll_interval)
    deadline = (
        time.monotonic() + args.wait_for_grid
        if args.wait_for_grid is not None
        else None
    )
    grid_stats: dict[str, dict[str, Any]] = {}

    def settled(h: str) -> bool:
        """A config needs no worker: result landed or (when quarantining)
        it is settled by a persisted quarantine artifact."""
        if store.contains_hash(h):
            return True
        return args.on_error == "quarantine" and store.has_error(h)

    def drain_one(key: str, manifest: Any) -> None:
        """Cooperatively drain one grid and book its stats."""
        if not args.quiet:
            print(f"draining grid {key} ({len(manifest.configs)} configs)")
        failures: list[SweepFailure] = []
        run_sweep(
            manifest.configs,
            executor="serial",
            store=store,
            progress=_progress_printer(args.quiet),
            lane_width=manifest.lane_width,
            dispatch="store",
            lease_expiry_s=args.lease_expiry,
            on_error=args.on_error,
            checkpoint_every=args.checkpoint_every,
            on_failure=failures.append,
        )
        if failures and not args.quiet:
            print(
                f"grid {key[:12]}: {len(failures)} config(s) quarantined "
                f"(repro ls --errors --store {store.root})"
            )
        stats = last_dispatch_stats()
        if stats is not None:
            grid_stats[key] = stats.as_dict()
            if not args.quiet:
                print(
                    f"grid {key[:12]}: {stats.computed} computed / "
                    f"{stats.served} served ({stats.claimed} claimed, "
                    f"{stats.reclaimed} reclaimed, {stats.resumed} resumed)"
                )

    while True:
        store.refresh()
        keys = [args.grid] if args.grid else store.grid_keys()
        worked = False
        for key in keys:
            manifest = store.get_grid(key)
            if manifest is None:
                if args.grid and deadline is None:
                    raise SystemExit(f"error: no grid {key!r} in {store.root}")
                continue
            if all(settled(h) for h in manifest.config_hashes):
                continue  # grid fully drained; nothing to join
            worked = True
            if args.trace:
                with tracing() as tracer:
                    drain_one(key, manifest)
                    payload = build_telemetry(
                        tracer,
                        config_hash=key,
                        meta={"kind": "sweep-worker", "grid": key},
                    )
                store.put_telemetry(payload, config_hash_=key)
            else:
                drain_one(key, manifest)
        if worked:
            continue  # rescan at once: new grids may have been published
        if deadline is None or time.monotonic() >= deadline:
            break
        time.sleep(poll_s)

    computed = sorted({h for s in grid_stats.values() for h in s["computed_hashes"]})
    if args.summary_json:
        print(
            json.dumps(
                {
                    "store": str(store.root),
                    "grids": grid_stats,
                    "computed": len(computed),
                    "computed_hashes": computed,
                }
            )
        )
    elif not args.quiet:
        if grid_stats:
            print(
                f"worker done: {len(grid_stats)} grid(s), "
                f"{len(computed)} configs computed locally"
            )
        else:
            print(f"no undrained grids in {store.root}")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run a scenario under a deterministic fault-injection plan.

    The resilience layer's front door (docs/RESILIENCE.md): loads a
    :class:`~repro.resilience.FaultPlan` (``--plan`` takes inline JSON
    or a file path), activates it for the whole run — in this process
    *and*, via ``REPRO_FAULT_PLAN``, in any subprocess workers — and
    executes the scenario with quarantine-mode error handling, so the
    run degrades instead of dying.  The same plan against the same
    scenario replays the identical fault schedule, which is what makes
    a chaos failure debuggable.  Exits 0 when every config either
    completed or quarantined as scheduled.
    """
    from ..resilience import FAULT_PLAN_ENV, FaultPlan, inject_faults

    pack, configs = _expand(args.scenario, args)
    try:
        plan = FaultPlan.parse(args.plan)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        raise SystemExit(f"error: cannot load fault plan: {exc}") from None
    if not args.quiet:
        print(
            f"chaos {pack.name}: {len(configs)} configs under "
            f"{len(plan.specs)} fault spec(s) (seed {plan.seed})"
        )
    # Subprocess workers (executor=process, dispatch peers) inherit the
    # schedule through the environment; this process uses the installed
    # plan so the fired log below reflects coordinator-side faults.
    previous_env = os.environ.get(FAULT_PLAN_ENV)
    os.environ[FAULT_PLAN_ENV] = json.dumps(plan.to_dict())
    try:
        with inject_faults(plan):
            code = _run_and_report(configs, args)
    finally:
        if previous_env is None:
            os.environ.pop(FAULT_PLAN_ENV, None)
        else:
            os.environ[FAULT_PLAN_ENV] = previous_env
    if not args.quiet:
        if plan.fired:
            print(f"faults fired in this process ({len(plan.fired)}):")
            for f in plan.fired:
                key = f" key={f['key'][:12]}" if f["key"] else ""
                print(f"  {f['site']} hit#{f['hit']} -> {f['action']}{key}")
        else:
            print(
                "no faults fired in this process (subprocess workers "
                "count their own)"
            )
    return code


#: Valid ``repro profile --sort`` keys (pstats sort_stats spellings).
_PROFILE_SORTS = ("cumtime", "tottime", "ncalls", "pcalls", "filename", "line", "name")


def cmd_profile(args: argparse.Namespace) -> int:
    """Run one pack config under ``cProfile`` and print the top functions.

    Hot-path hunting without ad-hoc scripts: expands the pack (or
    ``pack+modifier`` spec), takes its first config with a single seed,
    executes it under the profiler and prints the ``--limit`` hottest
    functions by ``--sort``.  Never touches the store — a profiled run's
    timings would be meaningless to cache.
    """
    pack, configs = _expand(args.scenario, args, n_seeds=1)
    cfg = configs[0]
    print(
        f"profiling {pack.name} config 1/{len(configs)} "
        f"[{short_hash(cfg)}] {cfg.describe()}"
    )

    import cProfile
    import pstats

    from ..sim.engine import run_simulation

    profiler = cProfile.Profile()
    profiler.enable()
    result = run_simulation(cfg)
    profiler.disable()
    print(f"run finished in {result.wall_time_s:.2f}s; top {args.limit} by {args.sort}:")
    pstats.Stats(profiler).sort_stats(args.sort).print_stats(args.limit)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Run one pack config under the tracer and report phase timings.

    Expands the pack (or ``pack+modifier`` spec), takes its first config
    with a single seed, runs it with :mod:`repro.obs` tracing enabled and
    prints the per-phase wall-time breakdown (``--json`` for the machine
    form, ``--jsonl PATH`` to also export individual span events).  The
    result and its ``telemetry/<hash>.json`` artifact are persisted into
    ``--store`` unless ``--no-store`` is given, so ``repro stats`` and
    reports can aggregate phase-time breakdowns later.
    """
    pack, configs = _expand(args.scenario, args, n_seeds=1)
    cfg = configs[0]
    if not args.json:
        print(
            f"tracing {pack.name} config 1/{len(configs)} "
            f"[{short_hash(cfg)}] {cfg.describe()}"
        )

    from ..obs import (
        build_telemetry,
        phase_breakdown,
        render_phase_table,
        tracing,
        write_events_jsonl,
    )
    from ..sim.engine import run_simulation
    from .hashing import config_hash

    with tracing(
        trace_events=args.jsonl is not None, track_memory=args.memory
    ) as tracer:
        result = run_simulation(cfg)
        payload = build_telemetry(
            tracer,
            config_hash=config_hash(cfg),
            wall_time_s=result.wall_time_s,
            meta={"scenario": pack.name, "fast": args.fast},
        )
        if args.jsonl is not None:
            with open(args.jsonl, "w", encoding="utf-8") as fh:
                n_events = write_events_jsonl(tracer.events, fh)

    stored_in = None
    if not args.no_store:
        store = RunStore(args.store)
        if not cfg.collect_events:
            store.put(result)
        store.put_telemetry(payload)
        stored_in = store.root

    breakdown = phase_breakdown(payload)
    if args.json:
        print(
            json.dumps(
                {
                    "config_hash": payload["config_hash"],
                    "scenario": pack.name,
                    "wall_time_s": result.wall_time_s,
                    "breakdown": breakdown,
                    "telemetry": payload,
                },
                indent=2,
            )
        )
    else:
        print(render_phase_table(breakdown, memory=args.memory))
        print(f"run finished in {result.wall_time_s:.2f}s")
        if args.jsonl is not None:
            print(f"wrote {n_events} span events to {args.jsonl}")
        if stored_in is not None:
            print(
                f"telemetry stored as {short_hash(payload['config_hash'])} "
                f"in {stored_in}"
            )
    return 0


def cmd_ls(args: argparse.Namespace) -> int:
    """List stored runs (reads the store; never simulates).

    ``--errors`` lists the quarantine artifacts instead: one line per
    config that exhausted its retry budget, with the attempt count and
    last error from ``errors/<hash>.json``.
    """
    store = RunStore(args.store)
    if getattr(args, "errors", False):
        hashes = sorted(store.error_hashes())
        if not hashes:
            print(f"(no quarantine artifacts in {store.root})")
            return 0
        for h in hashes:
            payload = store.get_error(h) or {}
            error = " ".join(str(payload.get("error", "?")).split())
            print(
                f"{short_hash(h)}  attempts={payload.get('attempts', '?'):<3} "
                f"{error[:100]}"
            )
        print(f"{len(hashes)} quarantined config(s) in {store.root}")
        return 0
    records = store.records()
    if args.limit:
        records = records[-args.limit :]
    if not records:
        print(f"(store {store.root} is empty)")
        return 0
    for rec in records:
        cfg = revive_floats(rec.config) if rec.config else {}
        mix = cfg.get("mix") or {}
        mix_str = (
            f"{mix.get('rational', '?')}/{mix.get('altruistic', '?')}"
            f"/{mix.get('irrational', '?')}"
        )
        metrics = "  ".join(
            f"{m}={rec.summary.get(m, float('nan')):.3f}"
            for m in (args.metric or _DEFAULT_METRICS)
            if m in rec.summary
        )
        print(
            f"{short_hash(rec.config_hash)}  scheme={cfg.get('scheme', '?'):<10} "
            f"n={cfg.get('n_agents', '?'):<4} mix={mix_str:<14} "
            f"seed={cfg.get('seed', '?'):<11} {metrics}  "
            f"({rec.wall_time_s:.2f}s)"
        )
    print(f"{len(records)} runs in {store.root}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Aggregate stored runs into a table (never simulates)."""
    store = RunStore(args.store)
    metrics = tuple(args.metric or _DEFAULT_METRICS)
    where = (
        _single_overrides(_parse_set(args.where, allow_dotted=True))
        if args.where
        else {}
    )
    records = store.query(**where) if where else store.records()
    print(render_stored_table(aggregate_stored_runs(records, metrics), metrics))
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Aggregate stored telemetry artifacts (never simulates).

    Reads every ``telemetry/<hash>.json`` artifact in the store and
    prints span totals across runs — where does the engine actually
    spend its time on this machine?  Populate artifacts with
    ``repro trace`` first.
    """
    from ..obs import aggregate_telemetry, render_stats_table

    store = RunStore(args.store)
    payloads = [
        payload
        for key in store.telemetry_hashes()
        if (payload := store.get_telemetry(key)) is not None
    ]
    aggregate = aggregate_telemetry(payloads)
    if args.json:
        print(json.dumps(aggregate, indent=2))
    elif not payloads:
        print(f"(no telemetry artifacts in {store.root}; run 'repro trace' first)")
    else:
        print(render_stats_table(aggregate))
        print(f"{len(payloads)} telemetry artifacts in {store.root}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the simulation service HTTP API until SIGINT/SIGTERM.

    The always-on front-end over this store (docs/SERVICE.md): clients
    POST scenario specs or config grids, duplicate work dedupes against
    the store and against jobs already in flight, and progress streams
    back over SSE.  Serving and sweeping the same store compose — the
    service refreshes before every admission, so results landed by
    ``repro sweep``/``sweep-worker`` peers are served from cache.
    """
    from ..service import ServiceSettings, serve

    settings = ServiceSettings(
        host=args.host,
        port=args.port,
        store_path=args.store,
        workers=args.workers,
        max_pending=args.max_pending,
        batch_width=args.batch_width,
        dispatch=args.dispatch,
        checkpoint_every=args.checkpoint_every,
        heartbeat_s=args.heartbeat,
        shutdown_timeout_s=args.shutdown_timeout,
    )
    return serve(settings)


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
#: Every flag more than one command takes, defined once; a command
#: lists the ones it takes (see :func:`_add_flags`).
_FLAGS: dict[str, Callable[[argparse.ArgumentParser], Any]] = {
    "scenario": lambda p: p.add_argument(
        "scenario",
        help="pack name or pack+modifier[+modifier...] spec (see 'scenarios')",
    ),
    "--fast": lambda p: p.add_argument(
        "--fast", action="store_true", help="reduced horizon"
    ),
    "--seeds": lambda p: p.add_argument(
        "--seeds",
        type=_positive_int,
        default=None,
        help="seeds per grid point (default 3, or each figure's own count; "
        "exclusive with --set seed=...)",
    ),
    "--set": lambda p: p.add_argument(
        "--set",
        action="append",
        metavar="KEY=VAL[,VAL...]",
        help="config override (repeatable); multi-value only for 'sweep'",
    ),
    "--store": lambda p: p.add_argument(
        "--store",
        type=Path,
        default=Path("runstore"),
        help="run-store directory (default: ./runstore)",
    ),
    "--no-store": lambda p: p.add_argument(
        "--no-store", action="store_true", help="do not read or write the run store"
    ),
    "--executor": lambda p: p.add_argument(
        "--executor",
        choices=["serial", "thread", "process"],
        default="process",
        help="grid parallelization: serial | thread | process "
        "(default: process)",
    ),
    "--workers": lambda p: p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="pool width of the thread/process executor "
        "(default: one per core, less one)",
    ),
    "--lane-width": lambda p: p.add_argument(
        "--lane-width",
        type=int,
        default=None,
        metavar="N",
        help="cap lanes per batch: chunk each structurally compatible "
        "group into batches of at most N, bounding per-batch memory and "
        "overriding the even split across --workers (default: one batch "
        "per group within a memory budget, split across the pool)",
    ),
    "--dispatch": lambda p: p.add_argument(
        "--dispatch",
        choices=["store"],
        default=None,
        help="'store': coordinate compute through store leases, so every "
        "command and sweep-worker pointed at the same store drains the "
        "work together with zero duplicate computation "
        "(default: this process alone)",
    ),
    "--lease-expiry": lambda p: p.add_argument(
        "--lease-expiry",
        type=float,
        default=None,
        metavar="SECONDS",
        help="under store dispatch: seconds without a heartbeat before a "
        "crashed peer's task claim is reclaimed (default 30)",
    ),
    "--on-error": lambda p: p.add_argument(
        "--on-error",
        choices=["raise", "quarantine"],
        default="raise",
        help="'quarantine': retry failing configs, then persist an "
        "errors/<hash>.json artifact and keep going (partial results); "
        "'raise': fail fast on the first worker error (default, except "
        "for chaos)",
    ),
    "--checkpoint-every": lambda p: p.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="STEPS",
        help="persist a mid-run resume snapshot every N steps so a "
        "retried or reclaimed task resumes bit-identically instead of "
        "restarting (default 0 = off)",
    ),
    "--metric": lambda p: p.add_argument(
        "--metric", action="append", help="summary metric(s) to report"
    ),
    "--quiet": lambda p: p.add_argument(
        "--quiet", action="store_true", help="suppress per-run lines"
    ),
}

#: The flags of every command that executes a grid: run, sweep, chaos
#: and figures.
_EXEC_FLAGS = (
    "--fast",
    "--seeds",
    "--store",
    "--no-store",
    "--executor",
    "--workers",
    "--lane-width",
    "--dispatch",
    "--lease-expiry",
    "--on-error",
    "--checkpoint-every",
    "--quiet",
)


def _add_flags(p: argparse.ArgumentParser, *names: str) -> None:
    """Give ``p`` the named shared flags, in order."""
    for name in names:
        _FLAGS[name](p)


def build_parser() -> argparse.ArgumentParser:
    """Assemble the ``repro`` argument parser (one subparser per command)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Content-addressed experiment store and scenario runner.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scenarios", help="list scenario packs and modifiers")
    p.add_argument("--tag", help="only packs/modifiers carrying this tag")
    p.add_argument(
        "--markdown",
        action="store_true",
        help="emit the self-documenting catalog (docs/SCENARIOS.md) to stdout",
    )
    p.set_defaults(func=cmd_scenarios)

    p = sub.add_parser("run", help="run a scenario pack or composition (cached)")
    _add_flags(p, "scenario", *_EXEC_FLAGS, "--set", "--metric")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "figures", help="regenerate the paper's figures from one sweep (cached)"
    )
    p.add_argument(
        "names",
        nargs="+",
        metavar="NAME",
        help="figures to render: fig1..fig7, the extras, or 'all' (fig1..fig7)",
    )
    _add_flags(p, *_EXEC_FLAGS)
    p.add_argument(
        "--out",
        type=Path,
        default=Path("results"),
        help="directory for <figure>.csv and <figure>.json (default: ./results)",
    )
    p.add_argument(
        "--extras",
        action="store_true",
        help="with 'all': also the ablations, the scheme comparison and the "
        "adversary panel",
    )
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser("sweep", help="run an ad-hoc --set grid (cached)")
    _add_flags(p, *_EXEC_FLAGS, "--set", "--metric")
    p.add_argument(
        "--publish-only",
        action="store_true",
        help="publish the grid manifest into the store and exit without "
        "computing anything; a fleet of 'repro sweep-worker' processes "
        "does the draining",
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "sweep-worker",
        help="join the cooperative drain of grids published in a store",
    )
    p.add_argument("store", type=Path, help="run-store directory to drain")
    p.add_argument(
        "--grid",
        default=None,
        metavar="KEY",
        help="drain only this grid manifest (default: every undrained grid)",
    )
    p.add_argument(
        "--wait-for-grid",
        type=float,
        default=None,
        metavar="SECONDS",
        help="keep polling this long for new undrained grids instead of "
        "exiting when none are found",
    )
    p.add_argument(
        "--poll-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="sleep between polls while waiting for grids (default 1.0)",
    )
    _add_flags(p, "--lease-expiry", "--on-error", "--checkpoint-every", "--quiet")
    p.add_argument(
        "--trace",
        action="store_true",
        help="trace each grid drain and persist a telemetry artifact "
        "keyed by the grid (inspect with 'repro stats')",
    )
    p.add_argument(
        "--summary-json",
        action="store_true",
        help="emit a JSON summary (per-grid lease counters, locally "
        "computed config hashes) to stdout on exit",
    )
    p.set_defaults(func=cmd_sweep_worker)

    p = sub.add_parser(
        "chaos",
        help="run a scenario under a deterministic fault-injection plan",
    )
    _add_flags(p, "scenario", *_EXEC_FLAGS, "--set", "--metric")
    p.add_argument(
        "--plan",
        required=True,
        metavar="JSON|PATH",
        help="fault plan: inline JSON (starts with '{') or a plan file; "
        "see docs/RESILIENCE.md for the schema",
    )
    p.set_defaults(func=cmd_chaos, on_error="quarantine")

    p = sub.add_parser(
        "serve",
        help="serve the simulation job API over a store (HTTP + SSE)",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address")
    p.add_argument(
        "--port", type=int, default=8321, help="bind port (0 = ephemeral)"
    )
    _add_flags(p, "--store", "--dispatch", "--checkpoint-every")
    p.add_argument(
        "--workers",
        type=int,
        default=2,
        help="compute worker threads (default 2)",
    )
    p.add_argument(
        "--max-pending",
        type=int,
        default=256,
        metavar="N",
        help="queued compute-unit bound; beyond it submissions get "
        "429 + Retry-After (default 256)",
    )
    p.add_argument(
        "--batch-width",
        type=int,
        default=4,
        metavar="N",
        help="max configs one worker claims at once, and so the widest "
        "lane batch one service worker runs (default 4)",
    )
    p.add_argument(
        "--heartbeat",
        type=float,
        default=15.0,
        metavar="SECONDS",
        help="SSE keep-alive comment interval (default 15)",
    )
    p.add_argument(
        "--shutdown-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="grace period for running compute on shutdown (default 30)",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "profile",
        help="cProfile one pack config and print the hottest functions",
    )
    _add_flags(p, "scenario", "--fast", "--set")
    p.add_argument(
        "--sort",
        choices=_PROFILE_SORTS,
        default="cumtime",
        help="pstats sort key (default: cumtime)",
    )
    p.add_argument(
        "--limit",
        type=int,
        default=25,
        help="number of functions to print (default: 25)",
    )
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser(
        "trace",
        help="run one pack config with tracing on; phase-time breakdown",
    )
    _add_flags(p, "scenario", "--fast", "--set", "--store", "--no-store")
    p.add_argument(
        "--json",
        action="store_true",
        help="emit breakdown + full telemetry as JSON instead of the table",
    )
    p.add_argument(
        "--jsonl",
        type=Path,
        default=None,
        metavar="PATH",
        help="also export individual span events as JSON lines to PATH",
    )
    p.add_argument(
        "--memory",
        action="store_true",
        help="track per-phase tracemalloc deltas (slower)",
    )
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("ls", help="list stored runs (no simulation)")
    _add_flags(p, "--store", "--metric")
    p.add_argument("--limit", type=int, default=None, help="show only the last N")
    p.add_argument(
        "--errors",
        action="store_true",
        help="list quarantine artifacts (errors/<hash>.json) instead of runs",
    )
    p.set_defaults(func=cmd_ls)

    p = sub.add_parser("report", help="aggregate stored runs (no simulation)")
    _add_flags(p, "--store", "--metric")
    p.add_argument(
        "--where",
        action="append",
        metavar="KEY=VAL",
        help="filter by config field (dotted paths reach nested fields)",
    )
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "stats", help="aggregate stored telemetry artifacts (no simulation)"
    )
    _add_flags(p, "--store")
    p.add_argument(
        "--json", action="store_true", help="emit the aggregate as JSON"
    )
    p.set_defaults(func=cmd_stats)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Console entry point: parse ``argv`` and dispatch the subcommand."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
