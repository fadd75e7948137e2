"""Model constants for the Bocek et al. (IPDPS 2008) incentive scheme.

The paper pins down some constants explicitly (``g = 19``, ``R_min = 0.05``,
``R_max = 1``, 10 Q-learning states, 100 agents, 10 000 training steps) and
leaves others open (the contribution weights ``alpha_S``/``beta_S``, the decay
terms, the utility modifiers ``alpha``..``epsilon``, the edit threshold
``theta``, the punishment thresholds and the adaptive-majority range).  All
of them live here so that every experiment and test refers to a single,
documented source of truth.

Where the paper gives no value we choose defaults that (a) respect every
qualitative constraint stated in the text (e.g. ``theta > R_min``; majority
decreasing in the editor's reputation) and (b) reproduce the *shape* of the
paper's Figures 3-7.  Each substitution is recorded in the comment beside
its constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

__all__ = [
    "gather_param",
    "ReputationParams",
    "ContributionParams",
    "ServiceParams",
    "UtilityParams",
    "PaperConstants",
    "DEFAULT_CONSTANTS",
]


def gather_param(param: float | int | np.ndarray, idx: np.ndarray):
    """Gather a scalar-or-array parameter at (slot/lane) indices.

    The one idiom every lane-lifted parameter gather uses — scheme books
    in :mod:`repro.core` and phase kernels alike (``repro.sim.lanes``
    re-exports it as ``take``): scalars pass through untouched (numpy
    broadcasting does the rest), arrays are fancy-indexed.
    """
    return param[idx] if isinstance(param, np.ndarray) else param


@dataclass(frozen=True)
class ReputationParams:
    """Parameters of the logistic reputation function (paper section III-A).

    ``R(C) = 1 / (1 + g * exp(-beta * C))`` mapped onto ``[r_min, r_max]``.
    With ``g = 19`` the function starts exactly at ``R(0) = 1/20 = 0.05``,
    which is why the paper pairs ``g = 19`` with ``R_min = 0.05``.
    """

    g: float = 19.0
    beta: float = 0.2
    r_min: float = 0.05
    r_max: float = 1.0

    def __post_init__(self) -> None:
        if self.g <= 0:
            raise ValueError(f"g must be positive, got {self.g}")
        if self.beta <= 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if not 0.0 < self.r_min < self.r_max <= 1.0:
            raise ValueError(
                f"need 0 < r_min < r_max <= 1, got r_min={self.r_min}, r_max={self.r_max}"
            )


@dataclass(frozen=True)
class ContributionParams:
    """Weights and decay of the two contribution values (paper section III-B).

    ``C_S = alpha_s * S_articles + beta_s * S_bandwidth - d_s`` and
    ``C_E = alpha_e * S_votes + beta_e * S_edits - d_e``.  The decay terms
    are applied every step, so a peer that stops contributing sees its
    contribution (and hence reputation) drift back towards zero, exactly the
    "inactive peers decay" semantics of the paper.
    """

    #: The paper's running example sets (alpha_s, beta_s) = (1, 2)
    #: ("sharing bandwidth is twice as valuable"), but with those weights
    #: rational agents substitute *all* reputation-buying into the cheaper
    #: bandwidth channel and article sharing drops below the baseline.
    #: With equal weights incentives raise both.  Measured over 4 seeds
    #: of the Figure 3 configs at the full 10k + 3k protocol: shared
    #: articles 0.451 -> 0.479 (+6.2 %) and bandwidth 0.466 -> 0.498
    #: (+6.9 %), short of the paper's +8-11 % (ROADMAP item 2).
    alpha_s: float = 2.0  # weight of shared articles
    beta_s: float = 2.0  # weight of shared bandwidth
    d_s: float = 0.02  # sharing decay per step
    alpha_e: float = 2.0  # weight of successful votes
    beta_e: float = 4.0  # weight of accepted edits
    d_e: float = 0.02  # editing decay per step
    #: Exponential retention factor lambda: ``C <- lambda*C + inflow - d``.
    #: The paper's literal constant-decay rule lets C grow without bound
    #: over 10 000 steps, saturating every sharer at R = 1 and erasing the
    #: service differentiation the paper measures.  With retention < 1 the
    #: steady state is bounded, ``C* = (inflow - d) / (1 - lambda)``, and a
    #: peer's reputation tracks its *sustained* behaviour — the semantics
    #: the paper's decay paragraph describes.  ``retention = 1.0`` recovers
    #: the literal rule.
    retention: float = 0.9

    def __post_init__(self) -> None:
        for name in ("alpha_s", "beta_s", "alpha_e", "beta_e"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("d_s", "d_e"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not 0.0 < self.retention <= 1.0:
            raise ValueError("retention must be in (0, 1]")

    @property
    def memory_window(self) -> float:
        """Effective averaging window ``1 / (1 - retention)`` in steps."""
        return float("inf") if self.retention >= 1.0 else 1.0 / (1.0 - self.retention)

    def steady_state_sharing(self, articles: float, bandwidth: float) -> float:
        """Steady-state ``C_S`` for a constant per-step sharing profile."""
        inflow = self.alpha_s * articles + self.beta_s * bandwidth - self.d_s
        if self.retention >= 1.0:
            return float("inf") if inflow > 0 else 0.0
        return max(inflow, 0.0) / (1.0 - self.retention)


@dataclass(frozen=True)
class ServiceParams:
    """Service-differentiation knobs (paper section III-C).

    * ``edit_threshold`` is the paper's ``theta``: a peer may only edit when
      its sharing reputation satisfies ``R_S >= theta > R_min``.
    * ``majority_min``/``majority_max`` bound the adaptive accept majority
      ``M``; ``M`` interpolates linearly from ``majority_max`` (editor at
      ``R_min``) down to ``majority_min`` (editor at ``R_max``), i.e. it is
      inversely proportional to the editor's reputation as required.
    * ``vote_punish_threshold``: number of unsuccessful (anti-majority)
      votes after which a peer loses its voting rights.
    * ``edit_punish_threshold``: number of declined edits after which a
      peer's reputations are reset to the minimum.
    """

    edit_threshold: float = 0.10
    majority_min: float = 0.50
    majority_max: float = 0.75
    vote_punish_threshold: int = 5
    edit_punish_threshold: int = 5

    def __post_init__(self) -> None:
        if not 0.0 < self.majority_min <= self.majority_max <= 1.0:
            raise ValueError(
                "need 0 < majority_min <= majority_max <= 1, got "
                f"{self.majority_min}..{self.majority_max}"
            )
        if self.vote_punish_threshold < 1 or self.edit_punish_threshold < 1:
            raise ValueError("punishment thresholds must be >= 1")


@dataclass(frozen=True)
class UtilityParams:
    """Utility-function modifiers (paper section III-D).

    ``U_S = alpha * UP_source * B - beta * DS_articles - gamma * UP_own``
    ``U_E = delta * E_succ + epsilon * V_succ``

    The defaults make downloading clearly beneficial while sharing carries a
    moderate cost: with these values the Q-learners settle at intermediate
    sharing levels, which is what produces the paper's "moderately
    effective" +8-11% result rather than all-or-nothing behaviour.
    """

    alpha: float = 4.0  # benefit of received download bandwidth
    beta: float = 0.30  # cost of disk space used for shared articles
    gamma: float = 0.20  # cost of offered upload bandwidth
    #: Editing/voting benefits.  Edits are rare events (a peer proposes
    #: roughly every 1/edit_attempt_prob steps), so the per-event benefit
    #: must be large for the expected per-step reward difference between
    #: constructive and destructive behaviour to survive the T = 1
    #: Boltzmann exploration — with delta ~ 1 rational agents never leave
    #: the 50/50 mix regardless of the majority.  The paper leaves both
    #: constants open.
    delta: float = 20.0  # benefit per accepted edit
    epsilon: float = 4.0  # benefit per successful vote


@dataclass(frozen=True)
class PaperConstants:
    """Bundle of all scheme constants used by the simulation and analysis."""

    reputation_s: ReputationParams = field(default_factory=ReputationParams)
    # Editing/voting events are much rarer than sharing inflow, so the
    # editing reputation uses a steeper logistic (inflection near C ~ 6)
    # to stay responsive; the paper leaves these constants open.
    reputation_e: ReputationParams = field(
        default_factory=lambda: ReputationParams(beta=0.5)
    )
    contribution: ContributionParams = field(default_factory=ContributionParams)
    service: ServiceParams = field(default_factory=ServiceParams)
    utility: UtilityParams = field(default_factory=UtilityParams)

    def __post_init__(self) -> None:
        # The paper requires theta strictly above the minimum sharing
        # reputation, otherwise freshly joined peers could edit immediately.
        if self.service.edit_threshold <= self.reputation_s.r_min:
            raise ValueError(
                "edit_threshold (theta) must exceed the minimum sharing "
                f"reputation: theta={self.service.edit_threshold} vs "
                f"r_min={self.reputation_s.r_min}"
            )

    def with_overrides(self, **sections: Any) -> "PaperConstants":
        """Return a copy with whole sections replaced, e.g.
        ``constants.with_overrides(utility=UtilityParams(alpha=2.0))``."""
        return replace(self, **sections)


DEFAULT_CONSTANTS = PaperConstants()
