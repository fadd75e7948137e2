"""Baseline incentive schemes from the paper's related work (section II-B).

The paper sorts incentive schemes into *trust based* (the proposed
reputation scheme; private vs shared histories) and *trade based*
(currencies such as Off-line Karma).  To make the comparison concrete we
implement one representative of each missing category behind the same
scheme protocol the engine drives:

* :class:`PrivateHistoryScheme` — BitTorrent-style tit-for-tat: a source
  splits its upload bandwidth among concurrent downloaders in proportion
  to the bandwidth each of them has *personally* served to that source
  before.  No shared state, no editing support — exactly the scheme the
  paper argues breaks down on non-direct relations.
* :class:`KarmaScheme` — a trade-based currency: serving earns karma,
  downloading costs karma, and a source splits bandwidth proportionally
  to its downloaders' balances.  Globally efficient but needs the central
  authority / heavy overhead the paper criticises (here: an oracle).

Both schemes leave editing/voting undifferentiated (everyone may edit and
vote with equal weight) because neither can price a vote against an
upload — the very gap the paper's scheme fills.

The engine feeds both through the optional ``record_transfers`` hook
(called after download settlement with the request pairs and transferred
amounts); schemes that don't need it simply inherit the no-op.
"""

from __future__ import annotations

import numpy as np

from .contribution import ContributionLedger
from .params import PaperConstants, gather_param as _gather
from .sparse import SparseInteractionLedger


def _kernels():
    """The engine's kernel instance, imported late: ``repro.sim`` imports us."""
    from ..sim.backends import KERNELS

    return KERNELS

__all__ = ["PrivateHistoryScheme", "KarmaScheme"]


class _UndifferentiatedEditingMixin:
    """Editing/voting behaviour shared by both baselines: no privileges,
    unweighted votes, no punishment.

    Both baselines differentiate *bandwidth*, so the edit-vote phase runs
    them through the reputation branch of its voting rules.  The flat
    ``reputation_e`` of 1 makes every vote weigh the same, and it puts
    every editor at the top of the reputation band, so each edit needs
    the lane's ``majority_min``.  That is a simple majority only at the
    paper's constants (``majority_min = 0.5``).
    """

    n_peers: int
    #: Total peer slots across stacked replicates (== n_peers when R=1).
    n_slots: int

    def reputation_e(self) -> np.ndarray:
        return np.ones(self.n_slots)

    def may_edit(self) -> np.ndarray:
        return np.ones(self.n_slots, dtype=bool)

    def may_vote(self) -> np.ndarray:
        return np.ones(self.n_slots, dtype=bool)

    def record_vote_outcomes(
        self, voter_ids: np.ndarray, successful: np.ndarray
    ) -> np.ndarray:
        return np.empty(0, dtype=np.int64)

    def record_edit_outcomes(
        self, editor_ids: np.ndarray, accepted: np.ndarray
    ) -> np.ndarray:
        return np.empty(0, dtype=np.int64)


class PrivateHistoryScheme(_UndifferentiatedEditingMixin):
    """Tit-for-tat bandwidth allocation from private direct experience.

    ``given[i, j]`` accumulates the bandwidth peer ``i`` has served peer
    ``j`` (decayed geometrically so the history stays recent, like
    BitTorrent's rolling rate estimate).  When peers compete for source
    ``j``'s bandwidth, downloader ``i``'s weight is
    ``epsilon + given[i, j]`` — strangers receive only the optimistic-
    unchoke floor ``epsilon``.

    Storage has two modes sharing one book-keeping code path, picked by
    ``ledger_cap``:

    * **dense** (``None``, the default): the historical ``(R, N, N)``
      matrix — exact, but O(N²) memory, capping populations at a few
      thousand peers;
    * **capped** (an int, or a per-slot array): a
      :class:`~repro.core.sparse.SparseInteractionLedger` of at most
      ``ledger_cap`` partners per peer — O(N·cap) memory, bit-identical
      to the dense matrix while no row overflows its cap (the engine's
      scale packs run 50k+ peers this way), but slower than the dense
      gather at small N.

    Per-peer service totals (what ``reputation_s`` normalizes) are
    maintained *incrementally* in both modes — decayed and accumulated by
    the same elementwise operations the pairwise cells see — so the two
    modes produce identical reputations by construction instead of
    depending on the summation tree of a dense row reduction.
    """

    differentiates_service = True

    def __init__(
        self,
        n_peers: int,
        constants: PaperConstants | None = None,
        optimistic_floor: float = 0.05,
        history_decay: float = 0.995,
        n_replicates: int = 1,
        ledger_cap: int | np.ndarray | None = None,
    ) -> None:
        # Lane batches pass ``optimistic_floor`` as a per-slot (R*N,)
        # array and ``history_decay`` as a per-replicate (R,) array; both
        # are consumed elementwise within each replicate's slots, so a
        # heterogeneous batch books bit-identically to per-lane instances.
        if np.any(np.asarray(history_decay) <= 0.0) or np.any(
            np.asarray(history_decay) > 1.0
        ):
            raise ValueError("history_decay must be in (0, 1]")
        if np.any(np.asarray(optimistic_floor) <= 0.0):
            raise ValueError("optimistic_floor must be positive (unchoke)")
        if n_replicates < 1:
            raise ValueError("n_replicates must be >= 1")
        self.n_peers = int(n_peers)
        self.n_replicates = int(n_replicates)
        self.n_slots = self.n_peers * self.n_replicates
        self.constants = constants if constants is not None else PaperConstants()
        self.optimistic_floor = (
            optimistic_floor
            if isinstance(optimistic_floor, np.ndarray)
            else float(optimistic_floor)
        )
        self.history_decay = (
            history_decay
            if isinstance(history_decay, np.ndarray)
            else float(history_decay)
        )
        self.kernels = _kernels()
        if ledger_cap is not None:
            # Capped interaction rows: O(N·cap) instead of O(N²).  The
            # cap may be a per-slot array (lane batching lifts it like
            # every other per-lane knob).
            self._ledger = SparseInteractionLedger(
                n_peers, n_replicates=self.n_replicates, cap=ledger_cap
            )
            self._given = None
        else:
            # One (N, N) direct-experience matrix per replicate; histories
            # are strictly per-replicate (a peer never remembers service
            # from a sibling universe), so replicate batching keeps a
            # (R, N, N) stack rather than a quadratically larger flat
            # (R*N, R*N) matrix.
            self._ledger = None
            self._given = np.zeros(
                (self.n_replicates, n_peers, n_peers), dtype=np.float64
            )
        # Incrementally maintained per-peer service totals — the one
        # aggregate ``reputation_s`` needs, kept O(N) so neither mode ever
        # reduces over the pairwise axis.
        self._totals = np.zeros((self.n_replicates, n_peers), dtype=np.float64)
        self._totals_flat = self._totals.reshape(-1)
        # Contributions tracked only for comparable metrics.
        self.ledger = ContributionLedger(self.n_slots, self.constants.contribution)

    # ``_totals_flat`` is a live view of ``_totals``; pickle would
    # serialize the pair as two independent arrays, silently severing the
    # aliasing and corrupting every post-restore total.  Drop the view
    # from the state and rebuild it on the other side so a restored
    # scheme books transfers bit-identically (checkpoint/resume relies
    # on this).
    def __getstate__(self):
        state = dict(self.__dict__)
        del state["_totals_flat"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._totals_flat = self._totals.reshape(-1)

    @property
    def given(self) -> np.ndarray:
        """Direct-experience matrix: ``(N, N)`` for a single run (the
        historical shape), ``(R, N, N)`` when replicates are stacked.

        The capped mode materializes the dense matrix on demand — an
        introspection convenience, not a hot path.
        """
        dense = (
            self._ledger.to_dense() if self._given is None else self._given
        )
        return dense[0] if self.n_replicates == 1 else dense

    def reputation_s(self) -> np.ndarray:
        """No global reputation exists; expose each peer's total recent
        service (normalized per replicate) purely for metrics."""
        top = self._totals.max(axis=1, keepdims=True)
        out = np.zeros_like(self._totals)
        np.divide(self._totals, top, out=out, where=top > 0)
        return out.reshape(-1)

    def bandwidth_shares(
        self, source_ids: np.ndarray, downloader_ids: np.ndarray
    ) -> np.ndarray:
        source_ids = np.asarray(source_ids, dtype=np.int64)
        downloader_ids = np.asarray(downloader_ids, dtype=np.int64)
        if source_ids.size == 0:
            return np.zeros(0, dtype=np.float64)
        n = self.n_peers
        if self._given is None:
            history = self._ledger.lookup(downloader_ids, source_ids % n)
        else:
            history = self._given[
                source_ids // n, downloader_ids % n, source_ids % n
            ]
        weights = _gather(self.optimistic_floor, source_ids) + history
        return self.kernels.grouped_shares(source_ids, weights, self.n_slots)

    def record_sharing(
        self, shared_articles: np.ndarray, served_bandwidth: np.ndarray
    ) -> None:
        self.ledger.record_sharing(shared_articles, served_bandwidth)

    def record_editing(
        self, successful_votes: np.ndarray, accepted_edits: np.ndarray
    ) -> None:
        self.ledger.record_editing(successful_votes, accepted_edits)

    def record_transfers(
        self,
        downloader_ids: np.ndarray,
        source_ids: np.ndarray,
        amounts: np.ndarray,
    ) -> None:
        """After settlement: the source remembers what it gave whom.

        The rolling history decays one notch per settlement round — but
        only in replicates that actually settled transfers this step, so
        a stacked run decays each replicate exactly as often as running
        it alone would (the engine skips the hook on request-free steps).
        """
        source_ids = np.asarray(source_ids, dtype=np.int64)
        downloader_ids = np.asarray(downloader_ids, dtype=np.int64)
        n = self.n_peers
        rep_ids = source_ids // n
        decay = self.history_decay
        # Decay pairwise cells and totals with the same per-replicate
        # scaling; both modes execute identical total-side operations, so
        # capped and dense runs see bit-identical reputations.
        if self.n_replicates == 1:
            if self._given is None:
                self._ledger.decay_rows(decay)
            else:
                self._given *= decay
            self._totals *= decay
        else:
            settled = np.bincount(rep_ids, minlength=self.n_replicates).nonzero()[0]
            if self._given is None:
                self._ledger.decay_replicates(settled, decay)
            elif isinstance(decay, np.ndarray):
                self._given[settled] *= decay[settled, None, None]
            else:
                self._given[settled] *= decay
            if isinstance(decay, np.ndarray):
                self._totals[settled] *= decay[settled, None]
            else:
                self._totals[settled] *= decay
        if self._given is None:
            ev_rows, ev_amounts = self._ledger.add(
                source_ids, downloader_ids % n, amounts
            )
            if ev_rows.size:
                # Cap overflow (the approximation regime): the displaced
                # service is forgotten, so the totals forget it too.
                np.subtract.at(self._totals_flat, ev_rows, ev_amounts)
        else:
            np.add.at(
                self._given,
                (rep_ids, source_ids % n, downloader_ids % n),
                amounts,
            )
        np.add.at(self._totals_flat, source_ids, amounts)

    def reset_identities(self, peer_ids: np.ndarray) -> None:
        """Wipe a discarded identity from every private history.

        Both directions vanish: what the peer gave (its own rows) and what
        every source remembers about it (its columns) — a rejoining sybil
        is a stranger to the whole population and falls back to the
        optimistic-unchoke floor.
        """
        peer_ids = np.asarray(peer_ids, dtype=np.int64)
        rep, local = peer_ids // self.n_peers, peer_ids % self.n_peers
        # Rows first (the peer's own history and totals) ...
        if self._given is None:
            self._ledger.clear_rows(peer_ids)
        else:
            self._given[rep, local, :] = 0.0
        self._totals_flat[peer_ids] = 0.0
        # ... then the columns: every source forgets the service it gave
        # the discarded identity, one peer at a time so the totals see the
        # exact same subtraction sequence in both storage modes.
        for k in range(peer_ids.size):
            r, c = int(rep[k]), int(local[k])
            if self._given is None:
                rows, removed = self._ledger.remove_partner(r, c)
                if rows.size:
                    self._totals_flat[rows] -= removed
            else:
                self._totals[r] -= self._given[r, :, c]
                self._given[r, :, c] = 0.0
        self.ledger.reset_peers(peer_ids)

    def reset_reputations(self) -> None:
        if self._given is None:
            self._ledger.reset()
        else:
            self._given.fill(0.0)
        self._totals.fill(0.0)
        self.ledger.reset_all()


class KarmaScheme(_UndifferentiatedEditingMixin):
    """Trade-based currency: earn by serving, pay by downloading.

    Balances start at ``initial_karma``; a served unit of bandwidth earns
    one karma, a received unit costs one (floored at zero — we model a
    soft debit rather than refusing service, so the engine's request flow
    is unchanged).  Allocation weight is the downloader's balance plus a
    small floor so broke newcomers can bootstrap.
    """

    differentiates_service = True

    def __init__(
        self,
        n_peers: int,
        constants: PaperConstants | None = None,
        initial_karma: float = 1.0,
        floor: float = 0.05,
        n_replicates: int = 1,
    ) -> None:
        # Lane batches pass both knobs as per-slot (R*N,) arrays; every
        # use below is an elementwise fill or a per-downloader gather, so
        # each lane trades exactly as a solo scheme with its scalars would.
        if np.any(np.asarray(initial_karma) < 0):
            raise ValueError("initial_karma must be non-negative")
        if np.any(np.asarray(floor) <= 0):
            raise ValueError("floor must be positive")
        if n_replicates < 1:
            raise ValueError("n_replicates must be >= 1")
        self.n_peers = int(n_peers)
        self.n_replicates = int(n_replicates)
        self.n_slots = self.n_peers * self.n_replicates
        self.constants = constants if constants is not None else PaperConstants()
        self.initial_karma = (
            initial_karma
            if isinstance(initial_karma, np.ndarray)
            else float(initial_karma)
        )
        self.floor = floor if isinstance(floor, np.ndarray) else float(floor)
        self.kernels = _kernels()
        self.balance = np.empty(self.n_slots, dtype=np.float64)
        self.balance[:] = self.initial_karma
        self.ledger = ContributionLedger(self.n_slots, self.constants.contribution)

    def reputation_s(self) -> np.ndarray:
        """Balances normalized into [0, 1], per replicate (karma is a
        currency within one universe — a rich sibling replicate must not
        deflate everyone else's normalized standing)."""
        b = self.balance.reshape(self.n_replicates, self.n_peers)
        top = b.max(axis=1, keepdims=True)
        out = np.zeros_like(b)
        np.divide(b, top, out=out, where=top > 0)
        return out.reshape(-1)

    def bandwidth_shares(
        self, source_ids: np.ndarray, downloader_ids: np.ndarray
    ) -> np.ndarray:
        source_ids = np.asarray(source_ids, dtype=np.int64)
        downloader_ids = np.asarray(downloader_ids, dtype=np.int64)
        if source_ids.size == 0:
            return np.zeros(0, dtype=np.float64)
        weights = _gather(self.floor, downloader_ids) + self.balance[downloader_ids]
        return self.kernels.grouped_shares(source_ids, weights, self.n_slots)

    def record_sharing(
        self, shared_articles: np.ndarray, served_bandwidth: np.ndarray
    ) -> None:
        self.ledger.record_sharing(shared_articles, served_bandwidth)

    def record_editing(
        self, successful_votes: np.ndarray, accepted_edits: np.ndarray
    ) -> None:
        self.ledger.record_editing(successful_votes, accepted_edits)

    def record_transfers(
        self,
        downloader_ids: np.ndarray,
        source_ids: np.ndarray,
        amounts: np.ndarray,
    ) -> None:
        np.add.at(self.balance, source_ids, amounts)
        np.subtract.at(self.balance, downloader_ids, amounts)
        np.maximum(self.balance, 0.0, out=self.balance)

    def reset_identities(self, peer_ids: np.ndarray) -> None:
        """A discarded identity forfeits its balance; the fresh one gets
        the newcomer grant — which is why currencies with a positive
        ``initial_karma`` are whitewash-prone: broke peers profit from
        rejoining."""
        peer_ids = np.asarray(peer_ids, dtype=np.int64)
        self.balance[peer_ids] = _gather(self.initial_karma, peer_ids)
        self.ledger.reset_peers(peer_ids)

    def reset_reputations(self) -> None:
        self.balance[:] = self.initial_karma
        self.ledger.reset_all()
