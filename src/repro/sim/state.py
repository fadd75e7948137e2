"""Explicit simulation state for the phase-kernel pipeline.

:class:`SimState` is everything a run mutates, pulled out of the old
monolithic ``CollaborationSimulation`` so the per-step logic can live in
small composable phase kernels (:mod:`repro.sim.phases`) that each take
``(SimState, SimulationConfig)`` and the state's RNG streams.

The state carries an explicit **lane axis** (generalizing PR 2's
replicate axis): ``R`` stacked populations run as a single state whose
per-peer arrays are flat ``(R * N,)`` slot vectors (lane ``r`` owns slots
``[r*N, (r+1)*N)``).  Lanes may carry *different* configurations as long
as they agree on the structural dimensions
(:data:`repro.sim.lanes.STRUCTURAL_FIELDS`); every other knob —
temperatures, scheme constants, population mixes, churn/adversary rates,
per-scheme parameters — is lifted into the state's :class:`LaneParams`
and per-lane scheme parameter arrays.  Every lane's articles live in one
lane-stacked :class:`~repro.network.articles.ArticleStore`; structured
per-lane objects — RNG streams, overlay graphs, churn models, event
logs — stay per-lane lists.  ``R = 1`` is the plain single simulation: every array
has its historical shape and the kernels execute the exact operation
sequence the monolithic engine used, so results are bit-identical.

Seed-for-seed guarantee: lane ``r`` of a batched state consumes its own
generator (seeded with its config's seed) through *exactly* the same
draw sites, shapes and order as a sequential run of that config, both
during construction (types -> capacities -> overlay -> founders ->
adversary rosters) and in every phase kernel.  Batched lane ``r``
therefore reproduces the sequential run bit for bit — including in
mixed-config batches, because all lane-varying parameters are applied
elementwise within each lane's slots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..agents.actions import EditActionSpace, SharingActionSpace
from ..agents.behaviors import BatchedBehaviorEngine
from ..agents.qlearning import VectorQLearner
from ..core.baselines import KarmaScheme, PrivateHistoryScheme
from ..core.incentives import make_scheme
from ..core.reputation import REPUTATION_FUNCTIONS, ViewMemo
from ..network.articles import ArticleStore
from ..network.events import EventLog
from ..network.overlay import ChurnModel, OverlayNetwork
from ..network.peer import RATIONAL, PeerArrays
from .config import SimulationConfig
from .lanes import (
    LaneParams,
    assert_lane_compatible,
    build_lane_params,
    lane_constants,
    lane_values,
    rational_values,
    slot_values,
)
from .metrics import MetricsCollector
from .rng import BufferedRNG, make_rng

__all__ = [
    "SimState",
    "StepScratch",
    "PhaseContext",
    "build_sim_state",
    "assign_collusion_rings",
]


def _make_reputation_fn(name: str, params):
    try:
        cls = REPUTATION_FUNCTIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown reputation function {name!r}; "
            f"choose from {sorted(REPUTATION_FUNCTIONS)}"
        ) from None
    return cls(params)


@dataclass
class StepScratch:
    """Per-step accumulation buffers, zeroed and reused every step."""

    succ_votes: np.ndarray  # (R*N,) successful votes this step
    acc_edits: np.ndarray  # (R*N,) accepted edits this step
    proposals_count: np.ndarray  # (R, 3, 2) proposals by (type, constructive)
    accepted_count: np.ndarray  # (R, 3, 2) accepted by (type, constructive)
    votes_cast: np.ndarray  # (R,)
    votes_successful: np.ndarray  # (R,)
    vote_bans: np.ndarray  # (R,)
    reputation_resets: np.ndarray  # (R,)
    proposer_u: np.ndarray  # (R, N) per-replicate proposer uniforms

    @classmethod
    def create(cls, n_replicates: int, n_agents: int) -> "StepScratch":
        slots = n_replicates * n_agents
        return cls(
            succ_votes=np.zeros(slots, dtype=np.float64),
            acc_edits=np.zeros(slots, dtype=np.float64),
            proposals_count=np.zeros((n_replicates, 3, 2)),
            accepted_count=np.zeros((n_replicates, 3, 2)),
            votes_cast=np.zeros(n_replicates),
            votes_successful=np.zeros(n_replicates),
            vote_bans=np.zeros(n_replicates),
            reputation_resets=np.zeros(n_replicates),
            proposer_u=np.empty((n_replicates, n_agents)),
        )

    def reset(self) -> None:
        self.succ_votes.fill(0.0)
        self.acc_edits.fill(0.0)
        self.proposals_count.fill(0.0)
        self.accepted_count.fill(0.0)
        self.votes_cast.fill(0.0)
        self.votes_successful.fill(0.0)
        self.vote_bans.fill(0.0)
        self.reputation_resets.fill(0.0)


@dataclass
class PhaseContext:
    """Intermediate values one step's kernels hand to the next kernel.

    Reused across steps; every field is overwritten by the producing
    phase before the consuming phase reads it.
    """

    rep_s: np.ndarray | None = None  # step-start sharing reputations (R*N,)
    rep_e: np.ndarray | None = None  # step-start editing reputations (R*N,)
    states_s: np.ndarray | None = None  # discretized states, stacked rational
    states_e: np.ndarray | None = None
    share_actions: np.ndarray | None = None  # (R*N,) action indices
    edit_actions: np.ndarray | None = None
    bw: np.ndarray | None = None  # offered bandwidth fractions (R*N,)
    files: np.ndarray | None = None  # offered file fractions (R*N,)
    edit_constructive: np.ndarray | None = None  # (R*N,) bool
    vote_constructive: np.ndarray | None = None  # (R*N,) bool
    received: np.ndarray | None = None  # settled download bandwidth (R*N,)
    u_s: np.ndarray | None = None  # sharing utilities (R*N,)
    u_e: np.ndarray | None = None  # editing utilities (R*N,)


@dataclass
class SimState:
    """Full mutable state of ``R`` stacked lanes (configs sharing the
    structural dimensions; each lane may vary every other knob)."""

    configs: list[SimulationConfig]  # one per lane
    n_replicates: int
    n_agents: int  # peers per replicate
    rngs: list  # one independent BufferedRNG stream per replicate
    peers: PeerArrays  # flat R*N slots
    scheme: Any  # replicate-aware incentive scheme
    overlays: list[OverlayNetwork] | None  # per replicate, None = full mesh
    articles: ArticleStore  # every lane's articles, lane-stacked rows
    sharing_space: SharingActionSpace
    edit_space: EditActionSpace
    sharing_learner: VectorQLearner  # stacked over all replicates' rationals
    edit_learner: VectorQLearner
    behavior: BatchedBehaviorEngine
    churn: list[ChurnModel]  # one per lane
    metrics: MetricsCollector
    events: list[EventLog | None]  # per replicate
    rational_idx: np.ndarray  # flat slot ids of rational peers
    scratch: StepScratch
    ctx: PhaseContext
    transfer_hook: Any  # scheme.record_transfers or None
    #: Per-lane lifted parameters the phase kernels read every step.
    lanes: LaneParams = None  # type: ignore[assignment]  # set by build
    #: Any lane has churn enabled (static; gates the churn kernel).
    churn_active: bool = False
    #: Ring id per flat slot, -1 for non-colluders.  Ring ids are offset
    #: by ``r * n_agents`` so they can never alias across replicates.
    collusion_rings: np.ndarray = field(
        default_factory=lambda: np.full(1, -1, np.int64)
    )
    colluder_mask: np.ndarray = field(default_factory=lambda: np.zeros(1, bool))
    sybil_mask: np.ndarray = field(default_factory=lambda: np.zeros(1, bool))
    step_count: int = 0
    whitewash_counts: np.ndarray = field(default_factory=lambda: np.zeros(1, np.int64))
    sybil_counts: np.ndarray = field(default_factory=lambda: np.zeros(1, np.int64))
    #: Discretized rational states of the last sharing / editing
    #: reputation array observed (see
    #: :func:`repro.sim.phases.act.observe_states`).  Derived data, not
    #: run state: invisible to the fingerprint walk, pickled empty.
    memo_s: ViewMemo = field(default_factory=ViewMemo)
    memo_e: ViewMemo = field(default_factory=ViewMemo)

    @property
    def config(self) -> SimulationConfig:
        """Lane 0's configuration.

        Safe for the *structural* fields (every lane shares them — step
        counts, population size, scheme class, ...); kernels must read
        lane-varying knobs from :attr:`lanes`, never from here.
        """
        return self.configs[0]

    def rows(self, arr: np.ndarray) -> np.ndarray:
        """Zero-copy ``(R, N)`` view of a flat per-slot array."""
        return arr.reshape(self.n_replicates, self.n_agents)


def assign_collusion_rings(
    rng, n_agents: int, fraction: float, ring_size: int, offset: int = 0
) -> np.ndarray:
    """Partition a random ``fraction`` of one population into collusion rings.

    Returns an ``(n_agents,)`` int64 array of ring ids, ``-1`` for peers
    outside every ring.  Members are a uniform random subset (one
    ``permutation`` draw — the only stream consumption); consecutive
    chunks of ``ring_size`` members form one ring, and a trailing
    remainder of a single peer is merged into the previous ring so no
    ring degenerates below two members.  Ring ids start at ``offset``
    (callers stacking replicates pass ``r * n_agents`` so ids never alias
    across replicates).  Fractions that round below two colluders yield
    an all ``-1`` assignment without consuming the stream.
    """
    rings = np.full(n_agents, -1, dtype=np.int64)
    n_colluders = int(round(fraction * n_agents))
    if n_colluders < 2:
        return rings
    members = rng.permutation(n_agents)[:n_colluders]
    ring_of_member = np.arange(n_colluders) // ring_size
    if n_colluders % ring_size == 1 and ring_of_member[-1] > 0:
        ring_of_member[-1] -= 1  # absorb the lone trailing peer
    rings[members] = ring_of_member + offset
    return rings


def build_sim_state(configs: list[SimulationConfig]) -> SimState:
    """Assemble the state for ``len(configs)`` stacked lanes.

    The configs must agree on the structural dimensions
    (:data:`repro.sim.lanes.STRUCTURAL_FIELDS` plus the resolved scheme
    class); any other field may differ per lane.  Construction consumes
    each lane's generator in the same order a sequential
    ``CollaborationSimulation(config)`` would: population types, then
    heterogeneous capacities, then the overlay seed, then article
    founders, then (when that lane enables them) collusion rings and the
    sybil roster — the seed-for-seed guarantee starts here.
    """
    if not configs:
        raise ValueError("need at least one config")
    cfg = configs[0]
    assert_lane_compatible(configs)
    n_rep = len(configs)
    n = cfg.n_agents
    # Uniform draws are block-buffered per stream (the kernels issue many
    # small vectors per step); sequential and batched runs share the
    # kernel code and therefore the draw sequence, so buffering preserves
    # the seed-for-seed guarantee.
    rngs = [BufferedRNG(make_rng(conf.seed)) for conf in configs]

    types2d = np.stack([configs[r].mix.build(n, rngs[r]) for r in range(n_rep)])
    peers = PeerArrays.create(types2d)
    caps2d = peers.upload_capacity.reshape(n_rep, n)
    for r in range(n_rep):
        # Log-normal heterogeneous capacities, mean preserved at 1; a
        # sigma-0 lane keeps the homogeneous default and draws nothing.
        sigma = configs[r].capacity_sigma
        if sigma > 0.0:
            caps2d[r] = rngs[r].lognormal(
                mean=-0.5 * sigma**2, sigma=sigma, size=n
            )
    overlays = (
        None
        if cfg.overlay_kind == "full"
        else [
            OverlayNetwork(
                n,
                kind=cfg.overlay_kind,
                rng=rngs[r],
                degree=configs[r].overlay_degree,
            )
            for r in range(n_rep)
        ]
    )

    # Constants collapse to the shared PaperConstants when uniform; a
    # heterogeneous batch gets per-slot parameter arrays consumed
    # elementwise by the scheme's books (see repro.sim.lanes).
    c = lane_constants([conf.constants for conf in configs], n)
    scheme_name = cfg.resolved_scheme
    if scheme_name == "reputation":
        scheme = make_scheme(
            n,
            True,
            c,
            reputation_fn_s=_make_reputation_fn(cfg.reputation_fn_s, c.reputation_s),
            reputation_fn_e=_make_reputation_fn(cfg.reputation_fn_e, c.reputation_e),
            n_replicates=n_rep,
        )
    elif scheme_name == "none":
        scheme = make_scheme(n, False, c, n_replicates=n_rep)
    elif scheme_name == "tft":
        scheme = PrivateHistoryScheme(
            n,
            c,
            optimistic_floor=slot_values(configs, "tft_optimistic_floor", n),
            history_decay=lane_values(configs, "tft_history_decay"),
            n_replicates=n_rep,
            # Scale path: sparse/chunking are structural (one storage
            # layout per batch); the cap lifts per lane like any other
            # scheme knob.
            sparse=cfg.scale.sparse,
            ledger_cap=slot_values(
                [conf.scale for conf in configs], "ledger_cap", n, np.int64
            ),
            chunk_size=cfg.scale.chunk_size,
        )
    elif scheme_name == "karma":
        scheme = KarmaScheme(
            n,
            c,
            initial_karma=slot_values(configs, "karma_initial", n),
            floor=slot_values(configs, "karma_floor", n),
            n_replicates=n_rep,
        )
    else:  # pragma: no cover - config validates names
        raise ValueError(f"unknown scheme {scheme_name!r}")

    articles = ArticleStore(
        cfg.n_articles, n, rngs, founders_per_article=cfg.founders_per_article
    )

    # Adversary rosters.  Draws happen only in lanes that enable the
    # feature, so adversary-free lanes consume exactly the historical
    # stream.
    slots = n_rep * n
    collusion_rings = np.concatenate(
        [
            assign_collusion_rings(
                rngs[r],
                n,
                configs[r].collusion_fraction,
                configs[r].collusion_ring_size,
                offset=r * n,
            )
            if configs[r].collusion_fraction > 0.0
            else np.full(n, -1, dtype=np.int64)
            for r in range(n_rep)
        ]
    )
    sybil_mask = np.zeros(slots, dtype=bool)
    for r in range(n_rep):
        if configs[r].sybil_fraction <= 0.0:
            continue
        n_sybils = int(round(configs[r].sybil_fraction * n))
        if n_sybils:
            sybil_mask[rngs[r].permutation(n)[:n_sybils] + r * n] = True

    sharing_space = SharingActionSpace()
    edit_space = EditActionSpace()
    rational_idx = np.flatnonzero(peers.types == RATIONAL)
    n_rational = rational_idx.size
    if n_rational:
        lane_lr = rational_values(configs, "learning_rate", n, rational_idx)
        lane_gamma = rational_values(configs, "discount", n, rational_idx)
    else:
        lane_lr, lane_gamma = cfg.learning_rate, cfg.discount
    sharing_learner = VectorQLearner(
        max(n_rational, 1),
        cfg.n_states,
        sharing_space.n_actions,
        learning_rate=lane_lr,
        discount=lane_gamma,
    )
    edit_learner = VectorQLearner(
        max(n_rational, 1),
        cfg.n_states,
        edit_space.n_actions,
        learning_rate=lane_lr,
        discount=lane_gamma,
    )
    behavior = BatchedBehaviorEngine(
        types2d, sharing_space, edit_space, sharing_learner, edit_learner
    )
    churn = [
        ChurnModel(
            leave_rate=conf.leave_rate,
            join_rate=conf.join_rate,
            whitewash_rate=conf.whitewash_rate,
        )
        for conf in configs
    ]
    metrics = MetricsCollector(
        cfg.total_steps,
        types2d,
        streaming=n >= cfg.scale.stream_metrics_threshold,
    )
    events = [EventLog() if conf.collect_events else None for conf in configs]
    lanes = build_lane_params(
        configs,
        rational_idx,
        sybil_any=sybil_mask.reshape(n_rep, n).any(axis=1),
    )

    return SimState(
        configs=list(configs),
        n_replicates=n_rep,
        n_agents=n,
        rngs=rngs,
        peers=peers,
        scheme=scheme,
        overlays=overlays,
        articles=articles,
        sharing_space=sharing_space,
        edit_space=edit_space,
        sharing_learner=sharing_learner,
        edit_learner=edit_learner,
        behavior=behavior,
        churn=churn,
        metrics=metrics,
        events=events,
        rational_idx=rational_idx,
        scratch=StepScratch.create(n_rep, n),
        ctx=PhaseContext(),
        transfer_hook=getattr(scheme, "record_transfers", None),
        lanes=lanes,
        churn_active=any(model.active for model in churn),
        collusion_rings=collusion_rings,
        colluder_mask=collusion_rings >= 0,
        sybil_mask=sybil_mask,
        step_count=0,
        whitewash_counts=np.zeros(n_rep, dtype=np.int64),
        sybil_counts=np.zeros(n_rep, dtype=np.int64),
    )
