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

* :class:`CollaborationSimulation` — the historical single-run API, a
  thin wrapper over an ``R = 1`` state (all attributes are the state's
  own arrays, so introspection and manual stepping work unchanged);
* :class:`BatchedSimulation` — ``R`` lanes (seed replicates of one
  config, or a heterogeneous mix of configs) advanced in lock-step as
  stacked ``(R, N)`` populations, amortizing the Python per-step overhead
  over the whole ensemble.  Lane ``r`` reproduces the sequential run of
  its config **bit for bit** (every draw is a counter-based hash of the
  lane's own key, the step and a lane-local index; all cross-lane math
  is elementwise or grouped by disjoint slot ranges), and an
  event-collecting lane logs exactly the events its sequential run
  would.

Both front-ends, and the resumable sweep task, drive their state through
one protocol loop (:func:`_run_protocol`) and turn finished lanes into
results in one place (:func:`_lane_results`).  Every sweep task is a
:class:`BatchedSimulation` (a solo task is one lane), and the only saved
form of a run in flight is the resume snapshot of
:mod:`repro.resilience.snapshot`.  :func:`run_replicates` runs a seed
ensemble as a serial sweep: per-replicate results are returned (and
cached) individually, so batched and sequential execution share one
cache.
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

    This is the seed-derivation rule of every ensemble path — a seed
    ensemble is :func:`run_replicates` or
    :func:`~repro.sim._sweep.run_sweep` over this list, and ``repro sweep
    --seeds`` derives the same seeds from each config's own seed — so
    batched and per-seed executions always address the same RunStore
    entries.
    """
    if n_replicates < 1:
        raise ValueError("n_replicates must be >= 1")
    root = config.seed if root_seed is None else root_seed
    return [config.with_(seed=s) for s in spawn_seeds(root, n_replicates)]


def _run_protocol(state, start: int = 0, before_step=None) -> float:
    """Drive the paper's protocol on a state: train at ``T = t_train``,
    reset reputations at the phase boundary, evaluate at ``T = t_eval``.

    The only loop that drives a state through the protocol: the
    single-run and batched front-ends call it from step 0, and
    :class:`repro.resilience.ResumableTask` calls it with the step count
    of a restored snapshot (``start``) and a ``before_step(i)`` hook that
    saves due snapshots and fires the ``sweep/step`` fault point before
    step ``i`` runs.  One loop is what keeps batched == sequential and
    resumed == uninterrupted bit-identical.  Step counts and the
    eval-learning flag are structural (shared by every lane); the
    temperatures come from the lane parameters, so mixed-temperature
    batches train/evaluate each lane at its own ``T``.

    The boundary reset runs when ``start < training_steps`` or
    ``start == 0`` (a protocol with no training steps still resets
    before evaluating).  A snapshot taken at the boundary is saved after
    its reset, so a state restored there is never reset twice.  Returns
    the wall time consumed.

    Timing flows through :mod:`repro.obs`: the returned wall time is a
    :class:`~repro.obs.Stopwatch` reading, and an enabled ambient tracer
    additionally records ``engine/train`` / ``engine/eval`` boundary
    spans (plus the per-kernel ``phase/*`` spans inside ``step_state``).
    """
    cfg = state.config
    lanes = state.lanes
    tracer = get_tracer()
    t_train = cfg.training_steps
    dims = {
        "lanes": state.n_replicates,
        "agents": state.n_agents,
        "steps": t_train,
    }
    watch = Stopwatch()
    with tracer.span("engine/train", **dims):
        for i in range(start, t_train):
            if before_step is not None:
                before_step(i)
            step_state(state, lanes.t_train, learn=True)
    if start < t_train or start == 0:
        state.scheme.reset_reputations()
    with tracer.span("engine/eval", **{**dims, "steps": cfg.eval_steps}):
        for i in range(max(start, t_train), cfg.total_steps):
            if before_step is not None:
                before_step(i)
            step_state(state, lanes.t_eval, learn=cfg.learn_during_eval)
    return watch.elapsed()


def _lane_results(state, wall: float) -> list[SimulationResult]:
    """One :class:`SimulationResult` per lane of a finished protocol run.

    The single place a finished lane becomes a result, for solo, batched
    and resumed runs alike.  Each lane's summary covers the evaluation
    window of the *lane's own* config (``measure_window`` may differ per
    lane; the step counts are structural and shared), and
    ``wall_time_s`` is the lane's amortized share of ``wall``.
    """
    metrics = state.metrics
    n = state.n_replicates
    results = []
    for r, cfg in enumerate(state.configs):
        summary = metrics.summary(_summary_window(cfg), cfg.total_steps, replicate=r)
        if cfg.training_steps > 0:
            training = metrics.summary(0, cfg.training_steps, replicate=r)
        else:
            training = {}
        results.append(
            SimulationResult(
                config=cfg,
                summary=summary,
                training_summary=training,
                wall_time_s=wall / n,
                events=state.events[r],
                extras={
                    "whitewash_count": float(state.whitewash_counts[r]),
                    "sybil_count": float(state.sybil_counts[r]),
                },
            )
        )
    return results


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
        self.peers = s.peers
        self.overlay = s.overlays[0] if s.overlays is not None else None
        self.scheme = s.scheme
        self.articles = s.articles
        self.sharing_space = s.sharing_space
        self.edit_space = s.edit_space
        self.rational_idx = s.rational_idx
        self.sharing_learner = s.sharing_learner
        self.edit_learner = s.edit_learner
        self.churn = s.churn
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
        return _lane_results(self.state, _run_protocol(self.state))[0]

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
    bit for bit.  Event collection is per lane too: each logging lane
    gets its own event log (``results[r].events``), holding exactly the
    events of its sequential run.
    """

    def __init__(self, configs: list[SimulationConfig]):
        if not configs:
            raise ValueError("need at least one config")
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
        return _lane_results(self.state, _run_protocol(self.state))


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

    An ensemble is a sweep: this is a serial
    :func:`repro.sim._sweep.run_sweep` over :func:`replicate_configs`,
    so the replicates run as one lane batch and seeds —
    ``SeedSequence`` children of ``root_seed``, default the config's
    seed — address the same cache entries as any
    other sweep of them.  Like every sweep it caches into ``store``
    when one is passed: cached replicates are served without
    executing, fresh ones are persisted individually the moment the
    batch finishes.

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
    from ._sweep import run_sweep  # late: _sweep imports this module

    return run_sweep(
        replicate_configs(config, n_replicates, root_seed),
        executor="serial",
        store=store,
    )
