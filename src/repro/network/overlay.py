"""P2P overlay topologies and churn.

The paper's simulation treats the overlay as fully connected (any peer can
download from any sharer), and so does the engine by default.  Real
deployments are not: a config whose ``overlay_kind`` is not ``"full"``
restricts each peer's download sources to its sharing neighbours
(:func:`repro.network.bandwidth.sample_download_requests_overlay`).  This
module builds those graphs and models churn (joins / leaves / whitewashing
identity resets).

Graphs are built with :mod:`networkx`, imported only when an overlay is
built (full-mesh runs never load it); the adjacency is exported as index
arrays so hot code never touches networkx objects.
"""

from __future__ import annotations

import numpy as np

__all__ = ["OverlayNetwork", "ChurnModel"]


class OverlayNetwork:
    """Static overlay graph with neighbour queries.

    Supported generators: ``full`` (clique, the paper's implicit model),
    ``random`` (Erdős–Rényi G(n, p)), ``smallworld`` (Watts–Strogatz) and
    ``scalefree`` (Barabási–Albert).
    """

    def __init__(
        self,
        n_peers: int,
        kind: str = "full",
        rng: np.random.Generator | None = None,
        degree: int = 8,
        rewire_p: float = 0.1,
    ) -> None:
        import networkx as nx

        if n_peers < 2:
            raise ValueError("need at least two peers")
        self.n_peers = int(n_peers)
        self.kind = kind
        rng = rng if rng is not None else np.random.default_rng()
        seed = int(rng.integers(0, 2**31 - 1))
        if kind == "full":
            graph = nx.complete_graph(self.n_peers)
        elif kind == "random":
            p = min(1.0, degree / max(self.n_peers - 1, 1))
            graph = nx.gnp_random_graph(self.n_peers, p, seed=seed)
        elif kind == "smallworld":
            k = max(2, min(degree, self.n_peers - 1) // 2 * 2)
            graph = nx.watts_strogatz_graph(self.n_peers, k, rewire_p, seed=seed)
        elif kind == "scalefree":
            m = max(1, min(degree // 2, self.n_peers - 1))
            graph = nx.barabasi_albert_graph(self.n_peers, m, seed=seed)
        else:
            raise ValueError(f"unknown overlay kind: {kind!r}")
        # Guarantee connectivity so every peer can reach every sharer.
        if not nx.is_connected(graph):
            components = [sorted(c) for c in nx.connected_components(graph)]
            for a, b in zip(components, components[1:]):
                graph.add_edge(a[0], b[0])
        self.graph = graph
        # CSR-like adjacency for vectorized neighbour lookups.
        neighbor_lists = [np.fromiter(graph.neighbors(i), dtype=np.int64) for i in range(self.n_peers)]
        self._offsets = np.zeros(self.n_peers + 1, dtype=np.int64)
        self._offsets[1:] = np.cumsum([len(nl) for nl in neighbor_lists])
        self._flat = (
            np.concatenate(neighbor_lists)
            if neighbor_lists
            else np.empty(0, dtype=np.int64)
        )

    def neighbors(self, peer_id: int) -> np.ndarray:
        """Neighbour indices of one peer (a view into the CSR buffer)."""
        return self._flat[self._offsets[peer_id] : self._offsets[peer_id + 1]]

    def degree(self, peer_id: int) -> int:
        return int(self._offsets[peer_id + 1] - self._offsets[peer_id])

    def average_degree(self) -> float:
        return float(self._flat.size) / self.n_peers

    def reachable_sharers(self, peer_id: int, sharing_mask: np.ndarray) -> np.ndarray:
        """Neighbouring peers that currently share files."""
        nbrs = self.neighbors(peer_id)
        return nbrs[sharing_mask[nbrs]]


class ChurnModel:
    """Memoryless churn: each step a peer may leave, rejoin or whitewash.

    *Leaving* flips ``online`` off; *joining* flips it back on; a
    *whitewash* models the paper's R_min trade-off — the peer discards its
    identity, which the caller must translate into a contribution reset
    (fresh identity starts at ``R_min`` again).  Each rate is a scalar or
    one value per peer (a lane-batched state lifts each lane's rates to
    its slots), so one model serves every lane of a state.
    """

    def __init__(self, leave_rate=0.0, join_rate=0.0, whitewash_rate=0.0) -> None:
        for name, v in (
            ("leave_rate", leave_rate),
            ("join_rate", join_rate),
            ("whitewash_rate", whitewash_rate),
        ):
            if not np.all((0.0 <= np.asarray(v)) & (np.asarray(v) <= 1.0)):
                raise ValueError(f"{name} must be in [0, 1]")
        self.leave_rate = leave_rate
        self.join_rate = join_rate
        self.whitewash_rate = whitewash_rate

    @property
    def active(self) -> bool:
        return bool(np.any(self.leave_rate) or np.any(self.join_rate) or self.whitewashes)

    @property
    def whitewashes(self) -> bool:
        return bool(np.any(self.whitewash_rate))

    def step(
        self, online: np.ndarray, u: np.ndarray, w: np.ndarray | None = None
    ) -> np.ndarray:
        """Apply one round of churn in place; return the whitewashed peers.

        ``u`` holds one uniform per peer: an online peer leaves when its
        uniform falls below ``leave_rate``, an offline one joins when it
        falls below ``join_rate`` (both decided before either flip).
        ``w`` holds the whitewash uniforms: a peer online after the
        flips whitewashes when its uniform falls below
        ``whitewash_rate``.  Without ``w`` nobody whitewashes.
        """
        leaving = online & (u < self.leave_rate)
        joining = ~online & (u < self.join_rate)
        online[leaving] = False
        online[joining] = True
        if w is None:
            return np.empty(0, dtype=np.int64)
        return (online & (w < self.whitewash_rate)).nonzero()[0]
