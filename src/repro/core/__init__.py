"""Core library: the paper's reputation-based incentive scheme.

Public surface:

* :mod:`repro.core.params` — every model constant, documented.
* :mod:`repro.core.reputation` — logistic reputation function (+ alternatives).
* :mod:`repro.core.contribution` — vectorized ``C_S``/``C_E`` ledgers.
* :mod:`repro.core.service` — the editing rules of service differentiation
  (accept majority, edit threshold); the bandwidth and vote shares are the
  engine's ``grouped_shares`` kernel (:mod:`repro.sim.backends`).
* :mod:`repro.core.utility` — the paper's utility functions.
* :mod:`repro.core.punishment` — malicious voter/editor punishment.
* :mod:`repro.core.incentives` — scheme facade + no-incentive baseline.
"""

from .baselines import KarmaScheme, PrivateHistoryScheme
from .contribution import ContributionLedger
from .incentives import NoIncentiveScheme, ReputationIncentiveScheme, make_scheme
from .params import (
    DEFAULT_CONSTANTS,
    ContributionParams,
    PaperConstants,
    ReputationParams,
    ServiceParams,
    UtilityParams,
)
from .punishment import EditPunishment, VotePunishment
from .reputation import (
    REPUTATION_FUNCTIONS,
    ConstantReputation,
    LinearReputation,
    LogisticReputation,
    PowerReputation,
    ReputationFunction,
    StepReputation,
    reputation_to_state,
)
from .service import edit_eligibility

__all__ = [
    "KarmaScheme",
    "PrivateHistoryScheme",
    "ContributionLedger",
    "NoIncentiveScheme",
    "ReputationIncentiveScheme",
    "make_scheme",
    "DEFAULT_CONSTANTS",
    "ContributionParams",
    "PaperConstants",
    "ReputationParams",
    "ServiceParams",
    "UtilityParams",
    "EditPunishment",
    "VotePunishment",
    "REPUTATION_FUNCTIONS",
    "ConstantReputation",
    "LinearReputation",
    "LogisticReputation",
    "PowerReputation",
    "ReputationFunction",
    "StepReputation",
    "reputation_to_state",
    "edit_eligibility",
]
