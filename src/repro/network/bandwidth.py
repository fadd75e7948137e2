"""Download-request sampling and bandwidth settlement.

Paper section IV: "At every time step, a peer downloads an article from
another peer with probability P = 1/N_S, where N_S is the number of peers
that offer any files for download."  We read this as: each peer issues a
download request with probability ``P`` and picks its source uniformly at
random among the ``N_S`` sharing peers (never itself).  ``P`` defaults to
the paper's ``1/N_S`` but is configurable (``download_probability``) so the
download intensity can be studied independently.

Settlement: all requests targeting the same source compete for that
source's upload bandwidth; the incentive scheme (or the equal-split
baseline) decides the shares.  The amount a downloader receives is
``offered_bandwidth[source] * share`` — a source offering nothing transfers
nothing, so free-riders throttle their *own* downloaders, which is exactly
the pressure the scheme exploits.

Everything here is vectorized over requests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DownloadRequests",
    "sample_download_requests",
    "sample_download_requests_overlay",
    "settle_downloads",
]


@dataclass(frozen=True)
class DownloadRequests:
    """One step's download requests (parallel arrays)."""

    downloader_ids: np.ndarray  # int64
    source_ids: np.ndarray  # int64

    @property
    def n(self) -> int:
        return self.downloader_ids.size

    def __post_init__(self) -> None:
        if self.downloader_ids.shape != self.source_ids.shape:
            raise ValueError("downloader_ids and source_ids must align")


def sample_download_requests(
    rng: np.random.Generator,
    sharing_mask: np.ndarray,
    download_probability: float | None = None,
) -> DownloadRequests:
    """Draw this step's download requests.

    Parameters
    ----------
    sharing_mask:
        Boolean mask of peers currently offering files (the sources).
    download_probability:
        Per-peer request probability; ``None`` uses the paper's ``1/N_S``.
    """
    sharing_mask = np.asarray(sharing_mask, dtype=bool)
    n_peers = sharing_mask.size
    sources = np.flatnonzero(sharing_mask)
    n_s = sources.size
    empty = DownloadRequests(
        downloader_ids=np.empty(0, dtype=np.int64),
        source_ids=np.empty(0, dtype=np.int64),
    )
    if n_s == 0:
        return empty

    p = 1.0 / n_s if download_probability is None else float(download_probability)
    p = min(max(p, 0.0), 1.0)
    wants = rng.random(n_peers) < p
    downloaders = np.flatnonzero(wants)
    if downloaders.size == 0:
        return empty

    # Uniform source choice among sharers; re-draw self-selections by
    # shifting to the next sharer (cheap and unbiased enough for n_s >= 2).
    choice_idx = rng.integers(0, n_s, size=downloaders.size)
    chosen = sources[choice_idx]
    if n_s > 1:
        self_hit = chosen == downloaders
        if np.any(self_hit):
            chosen[self_hit] = sources[(choice_idx[self_hit] + 1) % n_s]
    else:
        # Only one sharer: that sharer cannot download from itself.
        keep = chosen != downloaders
        downloaders, chosen = downloaders[keep], chosen[keep]

    return DownloadRequests(downloader_ids=downloaders, source_ids=chosen)


def sample_download_requests_overlay(
    rng: np.random.Generator,
    sharing_mask: np.ndarray,
    overlay,
    download_probability: float | None = None,
) -> DownloadRequests:
    """Overlay-constrained variant: sources must be *neighbouring* sharers.

    The paper's model is fully connected (any sharer is reachable); its
    future work is deployment on a real P2P overlay, where a peer only
    sees its neighbours.  ``overlay`` is a
    :class:`repro.network.overlay.OverlayNetwork`.

    Per requesting peer the source is uniform over its sharing neighbours;
    peers whose entire neighbourhood shares nothing simply issue no
    request this step (they are partition-starved — one of the effects an
    overlay introduces).
    """
    sharing_mask = np.asarray(sharing_mask, dtype=bool)
    n_peers = sharing_mask.size
    n_s = int(sharing_mask.sum())
    empty = DownloadRequests(
        downloader_ids=np.empty(0, dtype=np.int64),
        source_ids=np.empty(0, dtype=np.int64),
    )
    if n_s == 0:
        return empty
    p = 1.0 / n_s if download_probability is None else float(download_probability)
    p = min(max(p, 0.0), 1.0)
    wants = np.flatnonzero(rng.random(n_peers) < p)
    if wants.size == 0:
        return empty
    downloaders = []
    sources = []
    for d in wants:
        candidates = overlay.reachable_sharers(int(d), sharing_mask)
        candidates = candidates[candidates != d]
        if candidates.size == 0:
            continue
        downloaders.append(int(d))
        sources.append(int(candidates[rng.integers(0, candidates.size)]))
    if not downloaders:
        return empty
    return DownloadRequests(
        downloader_ids=np.asarray(downloaders, dtype=np.int64),
        source_ids=np.asarray(sources, dtype=np.int64),
    )


def settle_downloads(
    requests: DownloadRequests,
    shares: np.ndarray,
    offered_bandwidth: np.ndarray,
    upload_capacity: np.ndarray,
    n_peers: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Convert shares into transferred bandwidth.

    A checked front end to the ``settle_downloads`` kernel, which the
    engine's download phase calls directly.  The kernel is
    replicate-agnostic: with requests in the flat ``R * N`` slot space
    and ``n_peers = R * N`` it settles ``R`` stacked replicates in one
    scatter, bit-identically to settling each replicate alone (slot
    ranges are disjoint and the per-source accumulation order within a
    replicate is preserved).

    Returns
    -------
    received : per-peer download bandwidth received this step.
    served : per-peer upload bandwidth actually served this step (this is
        the "actually shared bandwidth" that feeds ``C_S``).
    """
    if requests.n == 0:
        return (
            np.zeros(n_peers, dtype=np.float64),
            np.zeros(n_peers, dtype=np.float64),
        )
    shares = np.asarray(shares, dtype=np.float64)
    if shares.shape != (requests.n,):
        raise ValueError("shares must align with requests")
    from ..sim.backends import KERNELS  # late: repro.sim imports this module

    return KERNELS.settle_downloads(
        requests.downloader_ids,
        requests.source_ids,
        shares,
        offered_bandwidth,
        upload_capacity,
        n_peers,
    )
