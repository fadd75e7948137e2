"""Download phase: request sampling, bandwidth settlement, sharing books."""

from __future__ import annotations

import numpy as np

from ...core.utility import sharing_utility_values
from ...network.bandwidth import DownloadRequests, sample_download_requests_overlay
from ..backends import KERNELS
from ..config import SimulationConfig
from ..state import SimState
from .adversary import collusion_shares

__all__ = ["download_phase"]

#: The answer of a step with no requests, shared (its arrays are frozen).
_NO_REQUESTS = DownloadRequests(
    downloader_ids=np.empty(0, dtype=np.int64),
    source_ids=np.empty(0, dtype=np.int64),
)
_NO_REQUESTS.downloader_ids.flags.writeable = False
_NO_REQUESTS.source_ids.flags.writeable = False


def download_phase(state: SimState, cfg: SimulationConfig) -> None:
    """Sample per-replicate download requests and settle them in one pass.

    Requests are drawn per replicate (each from its own stream) and
    offset into the flat slot space; the share allocation and the settle
    scatter then run once over all replicates — competition is grouped by
    source slot, so replicates never interact.  Ends with the sharing
    utilities and the scheme's sharing-contribution update, matching the
    monolithic engine's ordering (the ledger moves *before* the editing
    phase reads edit eligibility).
    """
    ctx = state.ctx
    peers = state.peers
    lanes = state.lanes
    mask2d = state.rows(peers.sharing_mask())
    requests = sample_download_requests_batch(
        state.rngs,
        mask2d,
        lanes.download_probability,
        overlays=state.overlays,
    )
    shares = state.scheme.bandwidth_shares(
        requests.source_ids, requests.downloader_ids
    )
    if state.collusion_active and requests.n:
        shares = collusion_shares(
            state, requests.source_ids, requests.downloader_ids, shares
        )
    received, _served = KERNELS.settle_downloads(
        requests.downloader_ids,
        requests.source_ids,
        shares,
        peers.offered_bandwidth,
        peers.upload_capacity,
        peers.n,
    )
    ctx.received = received
    if state.transfer_hook is not None and requests.n:
        amounts = (
            peers.offered_bandwidth[requests.source_ids]
            * peers.upload_capacity[requests.source_ids]
            * shares
        )
        state.transfer_hook(requests.downloader_ids, requests.source_ids, amounts)

    ctx.u_s = sharing_utility_values(
        received, ctx.files, ctx.bw, lanes.u_alpha, lanes.u_beta, lanes.u_gamma
    )
    state.scheme.record_sharing(ctx.files, ctx.bw)


def sample_download_requests_batch(
    rngs,
    sharing_mask: np.ndarray,
    download_probability: float | None = None,
    overlays=None,
) -> DownloadRequests:
    """Replicate-axis request sampling: one request set over ``R`` stacked runs.

    ``sharing_mask`` is ``(R, N)``; ``rngs`` holds one generator per
    replicate.  On the full mesh, a replicate with ``N_S`` sharers draws
    ``N`` uniforms and each peer requests when its uniform falls below
    ``P`` (the paper's ``1/N_S`` when ``download_probability`` is
    ``None``, clipped to ``[0, 1]``).  It then draws one source per
    requester, uniform over its sharers in ascending id order.  A
    requester that picked itself shifts to the next sharer, or is dropped
    when it is the only one.  A replicate with no sharers draws nothing.
    With ``overlays``, each replicate calls
    :func:`~repro.network.bandwidth.sample_download_requests_overlay` on
    its own graph instead.

    A replicate's draws come from its own generator only, so its requests
    equal the ``R = 1`` call on that replicate alone, offset by ``r * N``
    into the flat ``R * N`` slot space.  One ``settle_downloads`` kernel
    call (with ``n_peers = R * N``) then settles all replicates at once —
    requests never cross replicate boundaries because bandwidth
    competition is grouped by source id.

    ``download_probability`` may be a per-replicate ``(R,)`` array (lane
    batching): each replicate's draw is thresholded against its own
    probability, exactly as its solo run would be.

    The post-draw matching fix-ups run in the ``match_sources`` kernel;
    the RNG draws themselves never enter a kernel.  Per-requester lane
    facts (its lane's sharer segment and sharer count) are gathered by
    the requester's lane, ``slot // N``, from one per-lane vector each.
    """
    sharing_mask = np.asarray(sharing_mask, dtype=bool)
    if sharing_mask.ndim != 2:
        raise ValueError("sharing_mask must be (n_replicates, n_peers)")
    n_rep, n_peers = sharing_mask.shape
    if len(rngs) != n_rep:
        raise ValueError("need one rng per replicate")
    if np.ndim(download_probability) > 0:
        lane_ps = download_probability
    else:
        lane_ps = (download_probability,) * n_rep

    if overlays is not None:
        dl_parts: list[np.ndarray] = []
        src_parts: list[np.ndarray] = []
        for r in range(n_rep):
            req = sample_download_requests_overlay(
                rngs[r], sharing_mask[r], overlays[r], lane_ps[r]
            )
            if req.n:
                offset = r * n_peers
                dl_parts.append(req.downloader_ids + offset)
                src_parts.append(req.source_ids + offset)
        if not dl_parts:
            return _NO_REQUESTS
        return DownloadRequests(
            downloader_ids=np.concatenate(dl_parts),
            source_ids=np.concatenate(src_parts),
        )

    # Full-mesh fast path: only the RNG draws loop over replicates (each
    # replicate consumes a uniform vector, then source choices sized to
    # its requester count); the id arithmetic runs flat across replicates.
    n_sharers = np.add.reduce(sharing_mask, axis=1)  # N_S per replicate
    n_sharers_list = n_sharers.tolist()
    wants = np.zeros((n_rep, n_peers), dtype=bool)
    for r, n_s in enumerate(n_sharers_list):
        if n_s == 0:
            continue
        p_r = lane_ps[r]
        p = 1.0 / n_s if p_r is None else float(p_r)
        p = min(max(p, 0.0), 1.0)
        wants[r] = rngs[r].random(n_peers) < p
    downloaders = wants.reshape(-1).nonzero()[0]  # global slot ids
    if downloaders.size == 0:
        return _NO_REQUESTS
    choice_idx = np.concatenate(
        [
            rngs[r].integers(0, n_sharers_list[r], size=k)
            for r, k in enumerate(np.add.reduce(wants, axis=1).tolist())
            if k
        ]
    )
    # Each requester's lane segment of the flat (ascending) sharer list.
    sources_flat = sharing_mask.reshape(-1).nonzero()[0]
    lane = downloaders // n_peers
    req_start = (n_sharers.cumsum() - n_sharers)[lane]
    req_n_s = n_sharers[lane]
    # With several sharers a self-selection shifts to the next one; a
    # lone sharer cannot download from itself (the request is dropped).
    downloaders, chosen = KERNELS.match_sources(
        downloaders, choice_idx, sources_flat, req_start, req_n_s
    )
    if downloaders.size == 0:
        return _NO_REQUESTS
    return DownloadRequests(downloader_ids=downloaders, source_ids=chosen)
