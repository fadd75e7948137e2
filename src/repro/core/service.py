"""Service differentiation (paper section III-C).

Three services are differentiated by reputation:

1. **Downloading** — all peers downloading from the same source compete for
   its upload bandwidth; peer ``i`` receives the fraction
   ``B_i = R_iS / sum_k R_kS`` over the downloaders of that source.
2. **Voting** — voting power is ``v_i = R_iE / sum_k R_kE`` over the voters
   of one edit; eligibility is restricted to previously successful editors.
3. **Editing** — requires sharing reputation ``R_S >= theta``; the accept
   majority ``M`` is inversely proportional to the editor's editing
   reputation (high-reputation editors need less consent).

The two shares are one group-normalized allocation, grouped by source or
by proposal: the ``grouped_shares`` kernel of :mod:`repro.sim.backends`,
which the download and edit-vote phases call directly.  This module holds
the editing rules: the accept majority and the edit threshold.
"""

from __future__ import annotations

import numpy as np

from .params import ServiceParams

__all__ = [
    "required_majority_values",
    "edit_eligibility",
]


def required_majority_values(
    editor_reputation: np.ndarray | float,
    r_min: np.ndarray | float,
    r_max: np.ndarray | float,
    majority_min: np.ndarray | float,
    majority_max: np.ndarray | float,
) -> np.ndarray:
    """Adaptive accept-majority ``M`` for an edit (paper section III-C3).

    "the majority M of a vote is inversely proportional to the editor's
    reputation": we interpolate linearly from ``majority_max`` at ``r_min``
    down to ``majority_min`` at ``r_max``, clipped outside the band.  The
    lane-batched engine gathers per-editor parameters (each editor's lane
    may configure its own reputation and majority band); scalars apply
    one band to every editor.
    """
    r = np.asarray(editor_reputation, dtype=np.float64)
    span = r_max - r_min
    frac = np.minimum(np.maximum((r - r_min) / span, 0.0), 1.0)
    return majority_max - (majority_max - majority_min) * frac


def edit_eligibility(
    sharing_reputation: np.ndarray,
    service: ServiceParams,
) -> np.ndarray:
    """Boolean mask of peers allowed to edit: ``R_S >= theta``."""
    r = np.asarray(sharing_reputation, dtype=np.float64)
    return r >= service.edit_threshold
