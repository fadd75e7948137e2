"""Tests for overlay topologies and churn."""

import numpy as np
import pytest

from repro.network.overlay import ChurnModel, OverlayNetwork


class TestOverlayNetwork:
    @pytest.mark.parametrize("kind", ["full", "random", "smallworld", "scalefree"])
    def test_connected(self, kind, rng):
        net = OverlayNetwork(30, kind=kind, rng=rng)
        import networkx as nx

        assert nx.is_connected(net.graph)

    def test_full_degree(self, rng):
        net = OverlayNetwork(10, kind="full", rng=rng)
        assert all(net.degree(i) == 9 for i in range(10))

    def test_neighbors_symmetric(self, rng):
        net = OverlayNetwork(20, kind="smallworld", rng=rng)
        for i in range(20):
            for j in net.neighbors(i):
                assert i in net.neighbors(int(j)).tolist()

    def test_reachable_sharers(self, rng):
        net = OverlayNetwork(10, kind="full", rng=rng)
        sharing = np.zeros(10, dtype=bool)
        sharing[[2, 5]] = True
        reach = net.reachable_sharers(0, sharing)
        assert set(reach.tolist()) == {2, 5}

    def test_average_degree(self, rng):
        net = OverlayNetwork(10, kind="full", rng=rng)
        assert net.average_degree() == pytest.approx(9.0)

    def test_unknown_kind(self, rng):
        with pytest.raises(ValueError):
            OverlayNetwork(10, kind="torus", rng=rng)

    def test_too_small(self, rng):
        with pytest.raises(ValueError):
            OverlayNetwork(1, rng=rng)

    def test_deterministic_given_rng(self, rng_factory):
        n1 = OverlayNetwork(20, kind="random", rng=rng_factory(7))
        n2 = OverlayNetwork(20, kind="random", rng=rng_factory(7))
        assert sorted(n1.graph.edges) == sorted(n2.graph.edges)


class TestChurnModel:
    def test_inactive_by_default(self, rng):
        churn = ChurnModel()
        online = np.ones(10, dtype=bool)
        washed = churn.step(online, rng.random(10), rng.random(10))
        assert washed.size == 0
        assert online.all()

    def test_leave_and_join(self, rng):
        churn = ChurnModel(leave_rate=1.0)
        online = np.ones(5, dtype=bool)
        churn.step(online, rng.random(5))
        assert not online.any()
        churn = ChurnModel(join_rate=1.0)
        churn.step(online, rng.random(5))
        assert online.all()

    def test_whitewash_events(self, rng):
        churn = ChurnModel(whitewash_rate=1.0)
        online = np.ones(4, dtype=bool)
        washed = churn.step(online, rng.random(4), rng.random(4))
        assert washed.tolist() == [0, 1, 2, 3]

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            ChurnModel(leave_rate=1.5)
        with pytest.raises(ValueError):
            ChurnModel(whitewash_rate=-0.1)

    def test_active_flag(self):
        assert not ChurnModel().active
        assert ChurnModel(leave_rate=0.1).active
        per_peer = ChurnModel(whitewash_rate=np.array([0.0, 0.2]))
        assert per_peer.active and per_peer.whitewashes
