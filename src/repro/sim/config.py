"""Simulation configuration (paper section IV-B plus our documented gaps).

Everything a run needs is in one picklable dataclass so sweeps can ship
configs across process boundaries.  Paper-fixed values keep the paper's
numbers as defaults (100 agents, 10 states, 10 000 training steps,
``T = inf`` training / ``T = 1`` evaluation); paper-open values are
documented at their field definitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from ..agents.population import PopulationMix
from ..core.params import PaperConstants

__all__ = ["ScaleConfig", "SimulationConfig"]


@dataclass(frozen=True)
class ScaleConfig:
    """Memory-bounded scale path (docs/ARCHITECTURE.md, "Scale path").

    The default configuration reproduces the historical engine exactly:
    dense pairwise state, unchunked-in-practice kernels (the chunk is far
    larger than any small-N request batch) and fully gathered metrics.
    Large-population packs flip ``sparse`` and rely on the thresholded
    streaming collector; see the ``scale/`` scenario family.
    """

    #: Store the tit-for-tat private history as a capped sparse ledger
    #: (O(N·cap)) instead of the dense (R, N, N) matrix (O(N²)).  Bit-
    #: identical to dense while no peer exceeds ``ledger_cap`` distinct
    #: partners; beyond that the smallest (most-decayed) entry is evicted.
    sparse: bool = False
    #: Partners remembered per peer on the sparse path.  Lane batching
    #: lifts this per lane like any other non-structural knob.
    ledger_cap: int = 64
    #: Rows per vectorized chunk in the sparse-ledger and edit/vote
    #: gather kernels; bounds peak temporaries without changing results
    #: (processing stays in input order).
    chunk_size: int = 32_768
    #: Populations at or above this stream per-step metric reductions
    #: (bincount segment sums) instead of materializing per-type gather
    #: buffers.  Streams only aggregate differently — summaries are
    #: statistically identical, bitwise equal only below the threshold.
    stream_metrics_threshold: int = 10_000

    def __post_init__(self) -> None:
        if self.ledger_cap < 1:
            raise ValueError("ledger_cap must be >= 1")
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if self.stream_metrics_threshold < 2:
            raise ValueError("stream_metrics_threshold must be >= 2")


@dataclass(frozen=True)
class SimulationConfig:
    """Full specification of one simulation run."""

    # --- population (paper: 100 agents) ------------------------------
    n_agents: int = 100
    mix: PopulationMix = field(
        default_factory=lambda: PopulationMix(rational=1.0, altruistic=0.0, irrational=0.0)
    )

    # --- scheme -------------------------------------------------------
    incentives_enabled: bool = True
    #: Which incentive scheme drives service differentiation:
    #: "auto" resolves to the paper's reputation scheme when
    #: ``incentives_enabled`` else the no-incentive baseline; "tft" is the
    #: private-history tit-for-tat baseline, "karma" the trade-based
    #: currency baseline (see :mod:`repro.core.baselines`).
    scheme: str = "auto"
    constants: PaperConstants = field(default_factory=PaperConstants)
    #: Reputation-function family for the sharing reputation; one of the
    #: keys of :data:`repro.core.reputation.REPUTATION_FUNCTIONS`.  Used by
    #: the future-work ablation; the paper's choice is "logistic".
    reputation_fn_s: str = "logistic"
    reputation_fn_e: str = "logistic"
    #: Newcomer grant of the karma baseline (``scheme="karma"``): the
    #: balance a fresh identity starts with.  The grant is what makes
    #: currencies whitewash-prone, so sweeps vary it.
    karma_initial: float = 1.0
    #: Bootstrap floor added to every downloader's karma weight so broke
    #: newcomers are not starved outright.
    karma_floor: float = 0.05
    #: Optimistic-unchoke floor of the tit-for-tat baseline
    #: (``scheme="tft"``): the weight a stranger gets before any direct
    #: experience exists — the scheme's "forgiveness" knob.
    tft_optimistic_floor: float = 0.05
    #: Geometric decay of the tit-for-tat private history per settlement
    #: round (BitTorrent-style rolling rate estimate).
    tft_history_decay: float = 0.995

    # --- learning (paper: 10 states, T=inf then T=1, 10k training) ----
    n_states: int = 10
    training_steps: int = 10_000
    eval_steps: int = 3_000  # paper: unspecified; long enough to converge
    t_train: float = float("inf")
    t_eval: float = 1.0
    learning_rate: float = 0.1  # paper: unspecified Q-learning alpha
    discount: float = 0.9  # paper: unspecified Q-learning gamma
    learn_during_eval: bool = True  # the Fig. 6/7 feedback needs this

    # --- network / workload -------------------------------------------
    n_articles: int = 30
    founders_per_article: int = 5
    #: Per-peer probability of issuing a download request each step.  The
    #: paper's "downloads ... with probability P = 1/N_S" is read as "the
    #: probability of picking any *specific* source is 1/N_S", i.e. every
    #: peer downloads once per step from a uniformly random sharer; set
    #: this below 1 to thin the request process instead.
    download_probability: float = 1.0
    #: Probability that an edit-eligible peer proposes an edit in a step.
    edit_attempt_prob: float = 0.08
    #: Upper bound on sampled voters per proposal (cost control; the
    #: qualified voter set of a popular article can grow large).
    max_voters_per_edit: int = 15
    #: Minimum voters needed for a decision; proposals without a quorum
    #: are declined (founder seeding makes this rare).
    min_voters_per_edit: int = 1
    #: Whether the edit privilege requires ``R_S >= theta`` (the designed
    #: scheme, section III-C3).  The paper's *simulated* editing game lets
    #: every agent type edit and vote ("the chance to succeed with
    #: destructive voting behavior is bigger ... if 60% of the agents have
    #: selected a destructive voting behavior") — with the gate enforced,
    #: free-riding vandals can never enter any voter pool and the
    #: constructive camp wins even at 90 % irrational, which contradicts
    #: the paper's Figures 6/7.  The figure scenarios therefore disable
    #: the gate; their ``strict_editing`` flag (:mod:`repro.sim.scenarios`)
    #: builds the strict variant.
    enforce_edit_threshold: bool = True

    # --- overlay & capacity extensions (paper future work) -------------
    #: "full" reproduces the paper (any sharer reachable); "random",
    #: "smallworld" or "scalefree" restrict downloads to overlay
    #: neighbours (see :mod:`repro.network.overlay`).
    overlay_kind: str = "full"
    overlay_degree: int = 8
    #: Log-normal sigma of per-peer upload capacities; 0 = the paper's
    #: homogeneous "bandwidth normalized to 1".
    capacity_sigma: float = 0.0

    # --- churn (off by default, used by the whitewashing ablation) ----
    leave_rate: float = 0.0
    join_rate: float = 0.0
    whitewash_rate: float = 0.0

    # --- adversaries (off by default; see repro.sim.phases.adversary) --
    #: Fraction of the population assigned to collusion rings: cliques
    #: that offer maximal sharing but serve bandwidth only to ring-mates
    #: and vote for ring-mates' proposals (and against everyone else's)
    #: regardless of content.
    collusion_fraction: float = 0.0
    #: Target peers per collusion ring; the last ring absorbs a remainder
    #: smaller than 2 so no ring degenerates to a single peer.
    collusion_ring_size: int = 4
    #: Fraction of the population acting as sybil/whitewash attackers.
    sybil_fraction: float = 0.0
    #: Per-step probability that each sybil attacker discards its identity
    #: and rejoins fresh — a generalized churn-rejoin that wipes *all*
    #: identity-bound scheme state (contributions, punishments, private
    #: histories, currency balances), unlike plain ``whitewash_rate``
    #: which models only the R_min reputation trade-off.
    sybil_rate: float = 0.0

    # --- scale path (off by default; see docs/ARCHITECTURE.md) --------
    scale: ScaleConfig = field(default_factory=ScaleConfig)

    # --- bookkeeping ---------------------------------------------------
    seed: int = 0
    collect_events: bool = False
    #: Fraction of the evaluation phase (from the end) used for summary
    #: metrics; 0.5 = the last half of evaluation.
    measure_window: float = 0.5

    def __post_init__(self) -> None:
        if self.n_agents < 2:
            raise ValueError("n_agents must be >= 2")
        if self.n_states < 1:
            raise ValueError("n_states must be >= 1")
        if self.training_steps < 0 or self.eval_steps < 1:
            raise ValueError("need training_steps >= 0 and eval_steps >= 1")
        if not 0.0 < self.t_eval:
            raise ValueError("t_eval must be positive")
        if not 0.0 <= self.download_probability <= 1.0:
            raise ValueError("download_probability must be in [0, 1]")
        if not 0.0 <= self.edit_attempt_prob <= 1.0:
            raise ValueError("edit_attempt_prob must be in [0, 1]")
        if self.max_voters_per_edit < 1:
            raise ValueError("max_voters_per_edit must be >= 1")
        if not 0.0 < self.measure_window <= 1.0:
            raise ValueError("measure_window must be in (0, 1]")
        if self.capacity_sigma < 0.0:
            raise ValueError("capacity_sigma must be non-negative")
        if not 0.0 <= self.collusion_fraction <= 1.0:
            raise ValueError("collusion_fraction must be in [0, 1]")
        if self.collusion_ring_size < 2:
            raise ValueError("collusion_ring_size must be >= 2")
        if not 0.0 <= self.sybil_fraction <= 1.0:
            raise ValueError("sybil_fraction must be in [0, 1]")
        if not 0.0 <= self.sybil_rate <= 1.0:
            raise ValueError("sybil_rate must be in [0, 1]")
        if self.karma_initial < 0.0:
            raise ValueError("karma_initial must be non-negative")
        if self.karma_floor <= 0.0:
            raise ValueError("karma_floor must be positive")
        if self.tft_optimistic_floor <= 0.0:
            raise ValueError("tft_optimistic_floor must be positive")
        if not 0.0 < self.tft_history_decay <= 1.0:
            raise ValueError("tft_history_decay must be in (0, 1]")
        if self.scheme not in ("auto", "reputation", "none", "tft", "karma"):
            raise ValueError(
                f"unknown scheme {self.scheme!r}; "
                "choose auto|reputation|none|tft|karma"
            )

    @property
    def resolved_scheme(self) -> str:
        """The concrete scheme name after resolving "auto"."""
        if self.scheme != "auto":
            return self.scheme
        return "reputation" if self.incentives_enabled else "none"

    # ------------------------------------------------------------------
    def with_(self, **changes: Any) -> "SimulationConfig":
        """Functional update, e.g. ``config.with_(seed=7)``.

        Dotted ``scale.<leaf>`` keys update the nested section in place,
        so CLI overrides and scenario modifiers can reach it without
        constructing a :class:`ScaleConfig`::

            config.with_(**{"scale.sparse": True, "scale.ledger_cap": 64})
        """
        nested = {
            k.split(".", 1)[1]: v for k, v in changes.items() if k.startswith("scale.")
        }
        if nested:
            changes = {k: v for k, v in changes.items() if not k.startswith("scale.")}
            changes["scale"] = replace(changes.get("scale", self.scale), **nested)
        return replace(self, **changes)

    @property
    def total_steps(self) -> int:
        return self.training_steps + self.eval_steps

    def describe(self) -> str:
        scheme = "incentive" if self.incentives_enabled else "no-incentive"
        return f"{scheme} | {self.mix.describe()} | seed={self.seed}"
