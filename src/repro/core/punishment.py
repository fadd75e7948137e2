"""Punishment of malicious voters and editors (paper sections III-C2/3).

* **Voters**: "if the number of a peer's unsuccessful votes, i.e. votes
  against the majority, exceeds a certain threshold it will lose its voting
  rights.  To get any new rights, the peer has to contribute constructive
  edits first."
* **Editors**: "if a peer has too many declined edits it will lose its
  editing right.  This is done by setting its sharing reputation to the
  minimum value ... In addition, the editing reputation drops to the
  minimum value as well."  Because editing requires ``R_S >= theta > R_min``
  the reputation reset *is* the editing ban; the peer must re-earn sharing
  reputation before it may edit again.

Both trackers are vectorized over the population and expose boolean masks
the engine consults every step.
"""

from __future__ import annotations

import numpy as np

__all__ = ["VotePunishment", "EditPunishment"]


def _as_threshold(threshold):
    """Scalar threshold, or a per-peer array for lane-heterogeneous
    batches (every comparison below is elementwise, so a slot with
    threshold ``t`` behaves exactly like a tracker built with ``t``)."""
    if isinstance(threshold, np.ndarray):
        if np.any(threshold < 1):
            raise ValueError("threshold must be >= 1")
        return threshold
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    return int(threshold)


class VotePunishment:
    """Counts anti-majority votes; revokes voting rights above a threshold."""

    def __init__(self, n_peers: int, threshold):
        self.n_peers = int(n_peers)
        self.threshold = _as_threshold(threshold)
        self.unsuccessful_votes = np.zeros(self.n_peers, dtype=np.int64)
        self.banned = np.zeros(self.n_peers, dtype=bool)

    def record_votes(
        self, voter_ids: np.ndarray, successful: np.ndarray
    ) -> np.ndarray:
        """Account one round of votes.

        ``voter_ids`` are peer indices, ``successful`` the matching boolean
        outcomes (True = voted with the majority).  Returns the indices of
        peers *newly* banned by this round.
        """
        voter_ids = np.asarray(voter_ids, dtype=np.int64)
        successful = np.asarray(successful, dtype=bool)
        if voter_ids.shape != successful.shape:
            raise ValueError("voter_ids and successful must align")
        if voter_ids.size == 0:
            return np.empty(0, dtype=np.int64)
        # A successful vote clears the streak; an unsuccessful one extends it.
        losers = voter_ids[~successful]
        winners = voter_ids[successful]
        self.unsuccessful_votes[winners] = 0
        np.add.at(self.unsuccessful_votes, losers, 1)
        newly = (self.unsuccessful_votes >= self.threshold) & ~self.banned
        self.banned |= newly
        return newly.nonzero()[0]

    def restore(self, peer_ids: np.ndarray) -> None:
        """Restore voting rights after constructive (accepted) edits."""
        peer_ids = np.asarray(peer_ids, dtype=np.int64)
        self.banned[peer_ids] = False
        self.unsuccessful_votes[peer_ids] = 0

    def forget(self, peer_ids: np.ndarray) -> None:
        """Drop all state for peers whose identity was discarded (sybil
        rejoin): a fresh identity carries no ban and no vote streak."""
        self.restore(peer_ids)

    def reset(self) -> None:
        self.unsuccessful_votes.fill(0)
        self.banned.fill(False)

    def can_vote(self) -> np.ndarray:
        """Boolean mask of peers currently holding voting rights."""
        return ~self.banned


class EditPunishment:
    """Counts declined edits; triggers a reputation reset above a threshold."""

    def __init__(self, n_peers: int, threshold):
        self.n_peers = int(n_peers)
        self.threshold = _as_threshold(threshold)
        self.declined_edits = np.zeros(self.n_peers, dtype=np.int64)

    def record_edits(
        self, editor_ids: np.ndarray, accepted: np.ndarray
    ) -> np.ndarray:
        """Account one round of edit outcomes.

        Returns indices of peers that crossed the threshold and must have
        their reputations reset (the caller applies the reset through the
        :class:`~repro.core.contribution.ContributionLedger`); their counter
        restarts from zero afterwards.
        """
        editor_ids = np.asarray(editor_ids, dtype=np.int64)
        accepted = np.asarray(accepted, dtype=bool)
        if editor_ids.shape != accepted.shape:
            raise ValueError("editor_ids and accepted must align")
        if editor_ids.size == 0:
            return np.empty(0, dtype=np.int64)
        good = editor_ids[accepted]
        bad = editor_ids[~accepted]
        self.declined_edits[good] = 0
        np.add.at(self.declined_edits, bad, 1)
        punished = (self.declined_edits >= self.threshold).nonzero()[0]
        self.declined_edits[punished] = 0
        return punished

    def forget(self, peer_ids: np.ndarray) -> None:
        """Drop the declined-edit streak of peers with discarded identities."""
        self.declined_edits[np.asarray(peer_ids, dtype=np.int64)] = 0

    def reset(self) -> None:
        self.declined_edits.fill(0)
