"""P2P overlay topologies and churn.

The paper's simulation treats the overlay as fully connected (any peer can
download from any sharer), and so does the engine by default.  Real
deployments are not: a config whose ``overlay_kind`` is not ``"full"``
restricts each peer's download sources to its sharing neighbours
(:func:`repro.network.bandwidth.sample_download_requests_overlay`).  This
module builds those graphs and models churn (joins / leaves / whitewashing
identity resets).

Graphs are built with :mod:`networkx`; the adjacency is exported as index
arrays so hot code never touches networkx objects.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np

__all__ = ["OverlayNetwork", "ChurnModel", "ChurnEvent"]


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


@dataclass(frozen=True)
class ChurnEvent:
    """One churn action applied to the population this step."""

    kind: str  # "leave" | "join" | "whitewash"
    peer_id: int


class ChurnModel:
    """Memoryless churn: each step a peer may leave, rejoin or whitewash.

    *Leaving* flips ``online`` off; *joining* flips it back on; a
    *whitewash* models the paper's R_min trade-off — the peer discards its
    identity, which the caller must translate into a contribution reset
    (fresh identity starts at ``R_min`` again).
    """

    def __init__(
        self,
        leave_rate: float = 0.0,
        join_rate: float = 0.0,
        whitewash_rate: float = 0.0,
    ) -> None:
        for name, v in (
            ("leave_rate", leave_rate),
            ("join_rate", join_rate),
            ("whitewash_rate", whitewash_rate),
        ):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        self.leave_rate = leave_rate
        self.join_rate = join_rate
        self.whitewash_rate = whitewash_rate

    @property
    def active(self) -> bool:
        return (self.leave_rate + self.join_rate + self.whitewash_rate) > 0.0

    def step(
        self, rng: np.random.Generator, online: np.ndarray
    ) -> list[ChurnEvent]:
        """Sample churn events and apply online/offline flips in place."""
        events: list[ChurnEvent] = []
        if not self.active:
            return events
        n = online.size
        u = rng.random(n)
        leaving = np.flatnonzero(online & (u < self.leave_rate))
        joining = np.flatnonzero(~online & (u < self.join_rate))
        online[leaving] = False
        online[joining] = True
        events.extend(ChurnEvent("leave", int(i)) for i in leaving)
        events.extend(ChurnEvent("join", int(i)) for i in joining)
        if self.whitewash_rate > 0.0:
            w = rng.random(n)
            washing = np.flatnonzero(online & (w < self.whitewash_rate))
            events.extend(ChurnEvent("whitewash", int(i)) for i in washing)
        return events
