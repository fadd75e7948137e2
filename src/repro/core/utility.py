"""Utility functions (paper section III-D).

``U_S = alpha * UP_source * B - beta * DS_articles - gamma * UP_own``
    The benefit of the bandwidth actually received minus the costs of the
    disk space used for shared articles and of the peer's own offered
    upload bandwidth.  Bandwidths and the file size are normalized to 1 as
    in the paper, so ``UP_source * B`` is the download rate received.

``U_E = delta * E_succ + epsilon * V_succ``
    The benefit of accepted edits and successful votes.  The paper
    deliberately assigns editing/voting no rational *cost* ("there must be
    an altruistic motivation for them"), so ``U_E >= 0``.

Both are pure, vectorized functions of per-peer arrays; the download and
edit-vote phases feed them straight into the Q-learning reward signal.
The modifiers (``alpha`` ... ``epsilon``, see
:class:`~repro.core.params.UtilityParams`) are scalars or per-slot
``(R * N,)`` arrays: a lane batch rewards each lane with its own constants.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "sharing_utility_values",
    "editing_utility_values",
]


def sharing_utility_values(
    received_bandwidth: np.ndarray,
    shared_articles: np.ndarray,
    offered_bandwidth: np.ndarray,
    alpha: float | np.ndarray,
    beta: float | np.ndarray,
    gamma: float | np.ndarray,
) -> np.ndarray:
    """Per-peer sharing utility ``U_S`` for one step.

    Parameters
    ----------
    received_bandwidth:
        ``UP_source * B`` — the download bandwidth each peer actually
        received this step (0 for peers that did not download).
    shared_articles:
        ``DS_articles`` — fraction of disk space used for shared articles.
    offered_bandwidth:
        ``UP_own`` — fraction of upload bandwidth the peer offers.
    """
    received_bandwidth = np.asarray(received_bandwidth, dtype=np.float64)
    shared_articles = np.asarray(shared_articles, dtype=np.float64)
    offered_bandwidth = np.asarray(offered_bandwidth, dtype=np.float64)
    return (
        alpha * received_bandwidth
        - beta * shared_articles
        - gamma * offered_bandwidth
    )


def editing_utility_values(
    accepted_edits: np.ndarray,
    successful_votes: np.ndarray,
    delta: float | np.ndarray,
    epsilon: float | np.ndarray,
) -> np.ndarray:
    """Per-peer editing/voting utility ``U_E`` for one step."""
    accepted_edits = np.asarray(accepted_edits, dtype=np.float64)
    successful_votes = np.asarray(successful_votes, dtype=np.float64)
    return delta * accepted_edits + epsilon * successful_votes
