"""Time-stepped simulation engine (paper section IV).

One :class:`CollaborationSimulation` reproduces the paper's protocol:

1. **Training phase** — ``training_steps`` (paper: 10 000) at ``T = inf``:
   rational agents act uniformly at random so every state-action pair is
   explored and "no agent will have a degenerated Q-Matrix".
2. **Phase boundary** — reputations (and punishment state) are reset,
   Q-matrices are kept.
3. **Evaluation phase** — ``eval_steps`` at ``T = 1``: actions are drawn
   from the Boltzmann distribution of the learned Q-values; learning stays
   on by default, which is what lets rational agents converge onto the
   majority behaviour (Figures 6/7).

The per-step protocol itself lives in the composable phase kernels of
:mod:`repro.sim.phases` (churn -> act -> download -> edit_vote -> learn ->
record) operating on an explicit :class:`repro.sim.state.SimState`.  The
state carries a replicate axis, which yields two front-ends:

* :class:`CollaborationSimulation` — the historical single-run API, now a
  thin wrapper over an ``R = 1`` state (all attributes are the state's own
  arrays, so checkpointing and introspection work unchanged);
* :class:`BatchedSimulation` — ``R`` seed-varied replicates of one config
  advanced in lock-step as stacked ``(R, N)`` populations, amortizing the
  Python per-step overhead over the whole ensemble.  Batched replicate
  ``r`` reproduces the sequential run with the same seed **bit for bit**
  (each replicate owns an independent RNG stream consumed in the
  sequential order; all cross-replicate math is elementwise or grouped by
  disjoint slot ranges).

:func:`run_replicates` is the ensemble entry point the sweep layer and the
``repro`` CLI build on: per-replicate results are returned (and cached)
individually, so batched and sequential execution share one cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..network.events import EventLog
from ..obs import Stopwatch, get_tracer
from .config import SimulationConfig
from .phases import step_state
from .rng import spawn_seeds
from .state import SimState, build_sim_state

__all__ = [
    "SimulationResult",
    "CollaborationSimulation",
    "BatchedSimulation",
    "run_simulation",
    "run_replicates",
    "replicate_configs",
]


@dataclass
class SimulationResult:
    """Outcome of one run: summary metrics plus light diagnostics."""

    config: SimulationConfig
    summary: dict[str, float]
    training_summary: dict[str, float]
    wall_time_s: float
    events: EventLog | None = None
    extras: dict[str, float] = field(default_factory=dict)

    def __getitem__(self, key: str) -> float:
        return self.summary[key]


def _summary_window(cfg: SimulationConfig) -> int:
    """First step of the evaluation window the summary reduces over."""
    eval_start = cfg.training_steps
    return eval_start + int(cfg.eval_steps * (1.0 - cfg.measure_window))


def replicate_configs(
    config: SimulationConfig, n_replicates: int, root_seed: int | None = None
) -> list[SimulationConfig]:
    """``n_replicates`` copies of ``config`` with independent derived seeds.

    This is the single seed-derivation rule every ensemble path uses —
    :func:`run_replicates`, :func:`repro.sim._sweep.replicate` and through
    them the ``repro`` CLI — so batched and per-seed executions always
    address the same RunStore entries.
    """
    if n_replicates < 1:
        raise ValueError("n_replicates must be >= 1")
    root = config.seed if root_seed is None else root_seed
    return [config.with_(seed=s) for s in spawn_seeds(root, n_replicates)]


def _run_protocol(state) -> float:
    """Drive the paper's protocol on a state: train at ``T = t_train``,
    reset reputations at the phase boundary, evaluate at ``T = t_eval``.

    Shared by the single-run and batched front-ends so the protocol can
    never diverge between them (the batched == sequential bit-identity
    contract depends on that).  Step counts and the eval-learning flag
    are structural (shared by every lane); the temperatures come from the
    lane parameters, so mixed-temperature batches train/evaluate each
    lane at its own ``T``.  Returns the wall time consumed.

    Timing flows through :mod:`repro.obs`: the returned wall time is a
    :class:`~repro.obs.Stopwatch` reading, and an enabled ambient tracer
    additionally records ``engine/train`` / ``engine/eval`` boundary
    spans (plus the per-kernel ``phase/*`` spans inside ``step_state``).
    """
    cfg = state.config
    lanes = state.lanes
    tracer = get_tracer()
    dims = {
        "lanes": state.n_replicates,
        "agents": state.n_agents,
        "steps": cfg.training_steps,
    }
    watch = Stopwatch()
    with tracer.span("engine/train", **dims):
        for _ in range(cfg.training_steps):
            step_state(state, lanes.t_train, learn=True)
    state.scheme.reset_reputations()
    with tracer.span("engine/eval", **{**dims, "steps": cfg.eval_steps}):
        for _ in range(cfg.eval_steps):
            step_state(state, lanes.t_eval, learn=cfg.learn_during_eval)
    return watch.elapsed()


def _phase_summaries(state, replicate: int) -> tuple[dict, dict]:
    """(evaluation-window summary, training summary) for one replicate.

    Windowing uses the *lane's own* config (``measure_window`` may differ
    per lane; the step counts are structural and shared).
    """
    cfg = state.configs[replicate]
    summary = state.metrics.summary(
        _summary_window(cfg), cfg.total_steps, replicate=replicate
    )
    if cfg.training_steps > 0:
        training = state.metrics.summary(
            0, cfg.training_steps, replicate=replicate
        )
    else:
        training = {}
    return summary, training


class CollaborationSimulation:
    """A fully assembled single run of the collaboration-network model.

    This is the ``R = 1`` specialization of the phase-kernel pipeline:
    every public attribute (``peers``, ``scheme``, ``metrics``,
    ``sharing_learner``, ...) *is* the underlying state's object, with the
    historical single-run shapes.
    """

    def __init__(self, config: SimulationConfig):
        self.config = config
        self.state = build_sim_state([config])
        s = self.state
        self.rng = s.rngs[0]
        self.peers = s.peers
        self.overlay = s.overlays[0] if s.overlays is not None else None
        self.scheme = s.scheme
        self.articles = s.articles
        self.sharing_space = s.sharing_space
        self.edit_space = s.edit_space
        self.rational_idx = s.rational_idx
        self.sharing_learner = s.sharing_learner
        self.edit_learner = s.edit_learner
        self.behavior = s.behavior
        self.churn = s.churn[0]
        self.metrics = s.metrics
        self.events = s.events[0]

    # ------------------------------------------------------------------
    @property
    def step_count(self) -> int:
        return self.state.step_count

    @step_count.setter
    def step_count(self, value: int) -> None:
        self.state.step_count = int(value)

    @property
    def whitewash_count(self) -> int:
        return int(self.state.whitewash_counts[0])

    @property
    def sybil_count(self) -> int:
        return int(self.state.sybil_counts[0])

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Execute training + evaluation and summarize the eval window."""
        wall = _run_protocol(self.state)
        summary, training_summary = _phase_summaries(self.state, replicate=0)
        return SimulationResult(
            config=self.config,
            summary=summary,
            training_summary=training_summary,
            wall_time_s=wall,
            events=self.events,
            extras={
                "whitewash_count": float(self.whitewash_count),
                "sybil_count": float(self.sybil_count),
            },
        )

    def summarize(self, measure_window: float | None = None) -> SimulationResult:
        """Summarize the steps recorded *so far* into a result.

        :meth:`run` drives both phases itself; this is for workflows that
        drive phases manually — e.g. restore a trained checkpoint, run
        only the evaluation phase, and persist the outcome in a
        :class:`repro.store.RunStore`.  The summary window is the last
        ``measure_window`` fraction (default: the config's) of whatever
        this instance recorded; ``training_summary`` stays empty because
        a restored sim never saw its own training steps.
        """
        recorded = self.metrics.steps_recorded
        if recorded < 1:
            raise ValueError("no steps recorded; nothing to summarize")
        frac = (
            self.config.measure_window if measure_window is None else measure_window
        )
        if not 0.0 < frac <= 1.0:
            raise ValueError("measure_window must be in (0, 1]")
        start = min(int(recorded * (1.0 - frac)), recorded - 1)
        return SimulationResult(
            config=self.config,
            summary=self.metrics.summary(start, recorded),
            training_summary={},
            wall_time_s=0.0,
            events=self.events,
            extras={
                "whitewash_count": float(self.whitewash_count),
                "sybil_count": float(self.sybil_count),
                # Provenance marker: this summary came from manual phase
                # driving, not the canonical run() protocol.  RunStore
                # refuses it unless the caller explicitly vouches for it
                # (allow_partial=True) — a manually windowed summary under
                # a config's hash would otherwise poison the cache.
                "manual_summary": 1.0,
            },
        )

    # ------------------------------------------------------------------
    # One step
    # ------------------------------------------------------------------
    def step(self, temperature: float, learn: bool = True) -> None:
        """Advance one step through the phase-kernel pipeline."""
        step_state(self.state, temperature, learn=learn)


class BatchedSimulation:
    """``R`` stacked lanes stepped in lock-step — seed replicates of one
    config, or a heterogeneous mix of configs.

    ``configs`` must agree on the structural dimensions
    (:data:`repro.sim.lanes.STRUCTURAL_FIELDS` plus the scheme class);
    everything else — temperatures, constants, mixes, churn/adversary
    knobs — may differ per lane, each lane reproducing its sequential run
    bit for bit.  Event collection is not supported here — use sequential
    runs for event-level diagnostics (``run_replicates`` and the sweep
    lane planner fall back automatically).
    """

    def __init__(self, configs: list[SimulationConfig]):
        if not configs:
            raise ValueError("need at least one config")
        if any(c.collect_events for c in configs):
            raise ValueError(
                "BatchedSimulation does not collect events; "
                "run event-collecting configs sequentially"
            )
        self.configs = list(configs)
        self.state: SimState = build_sim_state(self.configs)

    @property
    def n_replicates(self) -> int:
        return self.state.n_replicates

    def step(self, temperature: float, learn: bool = True) -> None:
        """Advance every replicate by one simultaneous step."""
        step_state(self.state, temperature, learn=learn)

    def run(self) -> list[SimulationResult]:
        """Execute the full protocol; one result per replicate, in order.

        ``wall_time_s`` reports each replicate's amortized share of the
        batch's wall time (the batch is one process-level execution).
        """
        wall = _run_protocol(self.state)
        results = []
        for r, conf in enumerate(self.configs):
            summary, training_summary = _phase_summaries(self.state, replicate=r)
            results.append(
                SimulationResult(
                    config=conf,
                    summary=summary,
                    training_summary=training_summary,
                    wall_time_s=wall / self.n_replicates,
                    events=None,
                    extras={
                        "whitewash_count": float(self.state.whitewash_counts[r]),
                        "sybil_count": float(self.state.sybil_counts[r]),
                    },
                )
            )
        return results


def run_simulation(config: SimulationConfig) -> SimulationResult:
    """Build and run one simulation (the sweep workers call this)."""
    return CollaborationSimulation(config).run()


def run_replicates(
    config: SimulationConfig,
    n_replicates: int,
    root_seed: int | None = None,
    store: Any = None,
) -> list[SimulationResult]:
    """Run ``n_replicates`` seed-varied copies of ``config`` batched.

    Seeds are derived exactly like :func:`repro.sim._sweep.replicate`
    (``SeedSequence`` children of ``root_seed``, default the config's
    seed), so batched ensembles and sequential sweeps share cache
    entries.  With a ``store``, cached replicates are served without
    executing and fresh ones are persisted individually the moment the
    batch finishes — resume semantics are identical to a sequential
    sweep.  Falls back to sequential execution for event-collecting
    configs (whose events the store cannot persist and the batched
    engine does not record).

    Example::

        >>> from repro.sim.config import SimulationConfig
        >>> from repro.sim.engine import run_replicates
        >>> cfg = SimulationConfig(n_agents=8, n_articles=2,
        ...                        founders_per_article=2,
        ...                        training_steps=5, eval_steps=5)
        >>> results = run_replicates(cfg, n_replicates=3)
        >>> len(results), len({r.config.seed for r in results})
        (3, 3)
    """
    configs = replicate_configs(config, n_replicates, root_seed)
    results: list[SimulationResult | None] = [None] * n_replicates

    storable = store is not None and not config.collect_events
    pending: list[int] = []
    for i, conf in enumerate(configs):
        cached = store.get(conf) if storable else None
        if cached is not None:
            results[i] = cached
        else:
            pending.append(i)

    if pending:
        if config.collect_events or len(pending) == 1:
            fresh = [run_simulation(configs[i]) for i in pending]
        else:
            fresh = BatchedSimulation([configs[i] for i in pending]).run()
        for i, result in zip(pending, fresh):
            if storable:
                store.put(result)
            results[i] = result
    return results  # type: ignore[return-value]  # every slot is filled
