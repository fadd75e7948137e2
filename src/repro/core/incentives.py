"""Incentive-scheme facade: the paper's contribution, assembled.

:class:`ReputationIncentiveScheme` wires together the contribution ledger,
the two reputation functions, service differentiation and the punishment
rules behind one step-level API the simulation engine drives.

:class:`NoIncentiveScheme` is the paper's comparison baseline (Figure 3,
"without incentive"): bandwidth is split equally among downloaders, votes
are unweighted, anybody may edit or vote, and nothing is punished.  It
still *tracks* contributions so that the same metrics can be reported.

Both classes satisfy the same implicit protocol; the engine never needs to
know which one it is driving.
"""

from __future__ import annotations

import numpy as np

from .contribution import ContributionLedger
from .params import PaperConstants
from .punishment import EditPunishment, VotePunishment
from .reputation import (
    ConstantReputation,
    LogisticReputation,
    ReputationFunction,
)
from .service import (
    edit_eligibility,
    required_majority,
    voting_weights,
)

__all__ = ["ReputationIncentiveScheme", "NoIncentiveScheme", "make_scheme"]


def _kernels():
    """The engine's kernel instance, imported late: ``repro.sim`` imports us."""
    from ..sim.backends import KERNELS

    return KERNELS


class ReputationIncentiveScheme:
    """The reputation-based incentive scheme of Bocek et al. (2008).

    With ``n_replicates > 1`` the scheme keeps the books for ``R``
    independent stacked populations in flat ``R * n_peers`` arrays
    (replicate ``r`` owns slots ``[r*N, (r+1)*N)``).  Every operation here
    is elementwise or grouped by peer slot, so one scheme instance drives
    all replicates bit-identically to ``R`` separate instances; ``R = 1``
    reduces to the historical behaviour exactly.
    """

    differentiates_service = True

    def __init__(
        self,
        n_peers: int,
        constants: PaperConstants | None = None,
        reputation_fn_s: ReputationFunction | None = None,
        reputation_fn_e: ReputationFunction | None = None,
        n_replicates: int = 1,
    ) -> None:
        if n_replicates < 1:
            raise ValueError("n_replicates must be >= 1")
        self.n_peers = int(n_peers)
        self.n_replicates = int(n_replicates)
        self.n_slots = self.n_peers * self.n_replicates
        self.kernels = _kernels()
        self.constants = constants if constants is not None else PaperConstants()
        c = self.constants
        self.fn_s = reputation_fn_s or LogisticReputation(c.reputation_s)
        self.fn_e = reputation_fn_e or LogisticReputation(c.reputation_e)
        self.ledger = ContributionLedger(self.n_slots, c.contribution)
        self.vote_punishment = VotePunishment(
            self.n_slots, c.service.vote_punish_threshold
        )
        self.edit_punishment = EditPunishment(
            self.n_slots, c.service.edit_punish_threshold
        )

    # ------------------------------------------------------------------
    # Reputation views
    # ------------------------------------------------------------------
    def reputation_s(self) -> np.ndarray:
        """Sharing reputation ``R_S`` per peer."""
        return self.fn_s(self.ledger.sharing)

    def reputation_e(self) -> np.ndarray:
        """Editing/voting reputation ``R_E`` per peer."""
        return self.fn_e(self.ledger.editing)

    # ------------------------------------------------------------------
    # Service differentiation
    # ------------------------------------------------------------------
    def bandwidth_shares(
        self, source_ids: np.ndarray, downloader_ids: np.ndarray
    ) -> np.ndarray:
        """Fraction of each source's upload bandwidth granted per request."""
        rep = self.reputation_s()[downloader_ids]
        return self.kernels.grouped_shares(source_ids, rep, self.n_slots)

    def vote_weights(self, voter_ids: np.ndarray) -> np.ndarray:
        """Normalized voting power of one edit's voter set."""
        return voting_weights(self.reputation_e()[voter_ids])

    def accept_majority(self, editor_id: int) -> float:
        """Required accept majority ``M`` for an edit by ``editor_id``."""
        rep = self.reputation_e()[editor_id]
        return float(
            required_majority(rep, self.constants.service, self.constants.reputation_e)
        )

    def may_edit(self) -> np.ndarray:
        """Mask of peers whose ``R_S >= theta`` (editing privilege)."""
        return edit_eligibility(self.reputation_s(), self.constants.service)

    def may_vote(self) -> np.ndarray:
        """Mask of peers currently holding voting rights (not vote-banned)."""
        return self.vote_punishment.can_vote()

    # ------------------------------------------------------------------
    # Accounting hooks (called once per step by the engine)
    # ------------------------------------------------------------------
    def record_sharing(
        self, shared_articles: np.ndarray, served_bandwidth: np.ndarray
    ) -> None:
        self.ledger.record_sharing(shared_articles, served_bandwidth)

    def record_editing(
        self, successful_votes: np.ndarray, accepted_edits: np.ndarray
    ) -> None:
        self.ledger.record_editing(successful_votes, accepted_edits)

    def record_vote_outcomes(
        self, voter_ids: np.ndarray, successful: np.ndarray
    ) -> np.ndarray:
        """Feed vote outcomes to the punishment tracker; returns new bans."""
        return self.vote_punishment.record_votes(voter_ids, successful)

    def record_edit_outcomes(
        self, editor_ids: np.ndarray, accepted: np.ndarray
    ) -> np.ndarray:
        """Feed edit outcomes to the punishment tracker.

        Accepted edits restore the editor's voting rights (the paper's "to
        get any new rights, the peer has to contribute constructive edits
        first").  Editors crossing the declined-edit threshold get both
        reputations reset to the minimum; their indices are returned.
        """
        editor_ids = np.asarray(editor_ids, dtype=np.int64)
        accepted = np.asarray(accepted, dtype=bool)
        if editor_ids.size:
            self.vote_punishment.restore(editor_ids[accepted])
        punished = self.edit_punishment.record_edits(editor_ids, accepted)
        if punished.size:
            self.ledger.reset_peers(punished)
        return punished

    # ------------------------------------------------------------------
    def reset_identities(self, peer_ids: np.ndarray) -> None:
        """Wipe *all* identity-bound state of the given peer slots.

        Used by the sybil/whitewash kernel: a discarded identity loses its
        contributions (reputation falls to ``R_min``) *and* its punishment
        record — the fresh identity is unbanned and carries no streaks,
        which is exactly why sybil attacks defeat punishment-based
        deterrence.
        """
        peer_ids = np.asarray(peer_ids, dtype=np.int64)
        self.ledger.reset_peers(peer_ids)
        self.vote_punishment.forget(peer_ids)
        self.edit_punishment.forget(peer_ids)

    def reset_reputations(self) -> None:
        """Training -> evaluation phase boundary: wipe reputations and
        punishment state, keep nothing but the agents' Q-matrices (which
        live outside this class)."""
        self.ledger.reset_all()
        self.vote_punishment.reset()
        self.edit_punishment.reset()


class NoIncentiveScheme:
    """Baseline without service differentiation (paper Figure 3, 'without')."""

    differentiates_service = False

    def __init__(
        self,
        n_peers: int,
        constants: PaperConstants | None = None,
        n_replicates: int = 1,
    ) -> None:
        if n_replicates < 1:
            raise ValueError("n_replicates must be >= 1")
        self.n_peers = int(n_peers)
        self.n_replicates = int(n_replicates)
        self.n_slots = self.n_peers * self.n_replicates
        self.kernels = _kernels()
        self.constants = constants if constants is not None else PaperConstants()
        # Contributions are still tracked so metrics stay comparable, but
        # they never influence any service decision.
        self.ledger = ContributionLedger(self.n_slots, self.constants.contribution)
        self._flat = ConstantReputation(self.constants.reputation_s, value=1.0)

    def reputation_s(self) -> np.ndarray:
        return self._flat(self.ledger.sharing)

    def reputation_e(self) -> np.ndarray:
        return self._flat(self.ledger.editing)

    def bandwidth_shares(
        self, source_ids: np.ndarray, downloader_ids: np.ndarray
    ) -> np.ndarray:
        source_ids = np.asarray(source_ids)
        ones = np.ones(source_ids.shape, dtype=np.float64)
        return self.kernels.grouped_shares(source_ids, ones, self.n_slots)

    def vote_weights(self, voter_ids: np.ndarray) -> np.ndarray:
        voter_ids = np.asarray(voter_ids)
        if voter_ids.size == 0:
            return np.zeros(0, dtype=np.float64)
        return np.full(voter_ids.shape, 1.0 / voter_ids.size)

    def accept_majority(self, editor_id: int) -> float:
        # Simple unweighted majority rule.
        return 0.5

    def may_edit(self) -> np.ndarray:
        return np.ones(self.n_slots, dtype=bool)

    def may_vote(self) -> np.ndarray:
        return np.ones(self.n_slots, dtype=bool)

    def record_sharing(
        self, shared_articles: np.ndarray, served_bandwidth: np.ndarray
    ) -> None:
        self.ledger.record_sharing(shared_articles, served_bandwidth)

    def record_editing(
        self, successful_votes: np.ndarray, accepted_edits: np.ndarray
    ) -> None:
        self.ledger.record_editing(successful_votes, accepted_edits)

    def record_vote_outcomes(
        self, voter_ids: np.ndarray, successful: np.ndarray
    ) -> np.ndarray:
        return np.empty(0, dtype=np.int64)

    def record_edit_outcomes(
        self, editor_ids: np.ndarray, accepted: np.ndarray
    ) -> np.ndarray:
        return np.empty(0, dtype=np.int64)

    def reset_identities(self, peer_ids: np.ndarray) -> None:
        """A fresh identity only loses its (inert) contribution record."""
        self.ledger.reset_peers(np.asarray(peer_ids, dtype=np.int64))

    def reset_reputations(self) -> None:
        self.ledger.reset_all()


def make_scheme(
    n_peers: int,
    incentives_enabled: bool,
    constants: PaperConstants | None = None,
    reputation_fn_s: ReputationFunction | None = None,
    reputation_fn_e: ReputationFunction | None = None,
    n_replicates: int = 1,
):
    """Factory used by the simulation config."""
    if incentives_enabled:
        return ReputationIncentiveScheme(
            n_peers,
            constants,
            reputation_fn_s=reputation_fn_s,
            reputation_fn_e=reputation_fn_e,
            n_replicates=n_replicates,
        )
    return NoIncentiveScheme(n_peers, constants, n_replicates=n_replicates)
