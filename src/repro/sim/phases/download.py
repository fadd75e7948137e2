"""Download phase: request sampling, bandwidth settlement, sharing books."""

from __future__ import annotations

import numpy as np

from ...core.utility import sharing_utility_values
from ...network.bandwidth import DownloadRequests, sample_download_requests_overlay
from ..backends import KERNELS
from ..config import SimulationConfig
from ..rng import SITE_REQUEST, SITE_SOURCE, CounterDraws, to_below
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
    """Sample every lane's download requests and settle them in one pass.

    Requests are sampled for all lanes at once from the state's
    counter-based draws, in the flat slot space; the share allocation
    and the settle scatter then run once over all lanes — competition is
    grouped by source slot, so lanes never interact.  Ends with the sharing
    utilities and the scheme's sharing-contribution update, matching the
    monolithic engine's ordering (the ledger moves *before* the editing
    phase reads edit eligibility).
    """
    ctx = state.ctx
    peers = state.peers
    lanes = state.lanes
    mask2d = state.rows(peers.sharing_mask())
    requests = sample_download_requests_batch(
        state.draws,
        state.step_count,
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
    draws: CounterDraws,
    step: int,
    sharing_mask: np.ndarray,
    download_probability: float | None = None,
    overlays=None,
) -> DownloadRequests:
    """Lane-batched request sampling: one request set over ``R`` stacked lanes.

    ``sharing_mask`` is ``(R, N)`` and ``draws`` serves the lanes'
    counter-based draws at ``step``.  On the full mesh, each peer of a
    lane with ``N_S`` sharers requests when its request uniform
    (:data:`~repro.sim.rng.SITE_REQUEST`) falls below ``P`` (the paper's
    ``1/N_S`` when ``download_probability`` is ``None``, clipped to
    ``[0, 1]``), and picks one source uniform over its lane's sharers in
    ascending id order from its source word
    (:data:`~repro.sim.rng.SITE_SOURCE`).  A requester that picked itself
    shifts to the next sharer, or is dropped when it is the only one.  A
    lane with no sharers requests nothing.  With ``overlays``, each lane
    calls :func:`~repro.network.bandwidth.sample_download_requests_overlay`
    on its own graph with its slots' uniforms and words.

    Every draw is a function of the lane's key, the step and the
    lane-local slot, so a lane's requests equal the ``R = 1`` call on
    that lane alone, offset by ``r * N`` into the flat ``R * N`` slot
    space.  One ``settle_downloads`` kernel call (with ``n_peers = R *
    N``) then settles all lanes at once — requests never cross lane
    boundaries because bandwidth competition is grouped by source id.

    ``download_probability`` may be a per-lane ``(R,)`` array: each
    lane's uniforms are thresholded against its own probability, exactly
    as its solo run's would be.

    The post-draw matching fix-ups run in the ``match_sources`` kernel.
    Per-requester lane facts (its lane's sharer segment and sharer
    count) are gathered by the requester's lane, ``slot // N``, from one
    per-lane vector each.
    """
    sharing_mask = np.asarray(sharing_mask, dtype=bool)
    if sharing_mask.ndim != 2:
        raise ValueError("sharing_mask must be (n_replicates, n_peers)")
    n_rep, n_peers = sharing_mask.shape
    if draws.base.size != sharing_mask.size:
        raise ValueError("need the draws of exactly these lanes")
    u = draws.uniforms(step, SITE_REQUEST)
    words = draws.words(step, SITE_SOURCE)

    if overlays is not None:
        lane_ps = (
            download_probability
            if np.ndim(download_probability) > 0
            else (download_probability,) * n_rep
        )
        dl_parts: list[np.ndarray] = []
        src_parts: list[np.ndarray] = []
        for r in range(n_rep):
            lane = slice(r * n_peers, (r + 1) * n_peers)
            req = sample_download_requests_overlay(
                u[lane], words[lane], sharing_mask[r], overlays[r], lane_ps[r]
            )
            if req.n:
                dl_parts.append(req.downloader_ids + r * n_peers)
                src_parts.append(req.source_ids + r * n_peers)
        if not dl_parts:
            return _NO_REQUESTS
        return DownloadRequests(
            downloader_ids=np.concatenate(dl_parts),
            source_ids=np.concatenate(src_parts),
        )

    # Full mesh: every lane thresholds its slots' uniforms at once.
    n_sharers = np.add.reduce(sharing_mask, axis=1)  # N_S per lane
    p = (
        1.0 / np.maximum(n_sharers, 1)
        if download_probability is None
        else download_probability
    )
    if np.ndim(p) == 0:
        wants = u < min(max(float(p), 0.0), 1.0)
    else:
        wants = (u.reshape(n_rep, n_peers) < np.clip(p, 0.0, 1.0)[:, None]).reshape(-1)
    if not n_sharers.all():
        wants.reshape(n_rep, n_peers)[n_sharers == 0] = False
    downloaders = wants.nonzero()[0]
    if downloaders.size == 0:
        return _NO_REQUESTS
    lane = downloaders // n_peers
    req_n_s = n_sharers[lane]
    choice_idx = to_below(words[downloaders], req_n_s)
    # Each requester's lane segment of the flat (ascending) sharer list.
    sources_flat = sharing_mask.reshape(-1).nonzero()[0]
    req_start = (n_sharers.cumsum() - n_sharers)[lane]
    # With several sharers a self-selection shifts to the next one; a
    # lone sharer cannot download from itself (the request is dropped).
    downloaders, chosen = KERNELS.match_sources(
        downloaders, choice_idx, sources_flat, req_start, req_n_s
    )
    if downloaders.size == 0:
        return _NO_REQUESTS
    return DownloadRequests(downloader_ids=downloaders, source_ids=chosen)
