"""Download requests: the request record and the overlay sampler.

Paper section IV: "At every time step, a peer downloads an article from
another peer with probability P = 1/N_S, where N_S is the number of peers
that offer any files for download."  We read this as: each peer issues a
download request with probability ``P`` and picks its source uniformly at
random among the ``N_S`` sharing peers (never itself).  ``P`` defaults to
the paper's ``1/N_S`` but is configurable (``download_probability``) so the
download intensity can be studied independently.

The full-mesh sampler is lane-batched and lives with the download phase
(:func:`repro.sim.phases.download.sample_download_requests_batch`); it
calls :func:`sample_download_requests_overlay` once per lane when the run
has an overlay.  Settlement is the ``settle_downloads`` kernel
(:mod:`repro.sim.backends`): all requests targeting the same source
compete for that source's upload bandwidth, the incentive scheme (or the
equal-split baseline) decides the shares, and a downloader receives
``offered_bandwidth[source] * share`` — a source offering nothing
transfers nothing, so free-riders throttle their *own* downloaders, which
is exactly the pressure the scheme exploits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DownloadRequests",
    "sample_download_requests_overlay",
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
