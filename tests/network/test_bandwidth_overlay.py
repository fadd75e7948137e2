"""Tests for overlay-constrained download sampling (engine extension)."""

import numpy as np
import pytest

from repro.network.bandwidth import sample_download_requests_overlay
from repro.network.overlay import OverlayNetwork


def sample(rng, sharing, overlay, download_probability=None):
    """One lane's overlay requests from uniforms and words drawn by ``rng``."""
    n = sharing.size
    u = rng.random(n)
    words = rng.integers(0, 2**64, size=n, dtype=np.uint64)
    return sample_download_requests_overlay(
        u, words, sharing, overlay, download_probability
    )


@pytest.fixture
def small_world(rng):
    return OverlayNetwork(20, kind="smallworld", rng=rng, degree=4)


class TestOverlaySampling:
    def test_sources_are_neighbours(self, small_world, rng):
        sharing = np.ones(20, dtype=bool)
        req = sample(rng, sharing, small_world, download_probability=1.0)
        for d, s in zip(req.downloader_ids, req.source_ids):
            assert s in small_world.neighbors(int(d)).tolist()
            assert s != d

    def test_sources_share(self, small_world, rng):
        sharing = np.zeros(20, dtype=bool)
        sharing[::3] = True
        req = sample(rng, sharing, small_world, download_probability=1.0)
        assert np.all(sharing[req.source_ids])

    def test_starved_peers_skip(self, rng):
        overlay = OverlayNetwork(6, kind="random", rng=rng, degree=2)
        # Only peer 0 shares; any peer not adjacent to 0 is starved.
        sharing = np.zeros(6, dtype=bool)
        sharing[0] = True
        req = sample(rng, sharing, overlay, download_probability=1.0)
        neighbours_of_0 = set(overlay.neighbors(0).tolist())
        assert set(req.downloader_ids.tolist()) <= neighbours_of_0

    def test_no_sharers(self, small_world, rng):
        req = sample(rng, np.zeros(20, dtype=bool), small_world, 1.0)
        assert req.n == 0

    def test_full_overlay_equivalent_support(self, rng):
        """On a clique the overlay sampler reaches every sharer."""
        overlay = OverlayNetwork(10, kind="full")
        sharing = np.ones(10, dtype=bool)
        seen = set()
        for _ in range(50):
            req = sample(rng, sharing, overlay, 1.0)
            seen.update(req.source_ids.tolist())
        assert seen == set(range(10))


class TestEngineWithOverlay:
    def test_overlay_run_completes(self):
        from repro.sim.config import SimulationConfig
        from repro.sim.engine import run_simulation

        cfg = SimulationConfig(
            n_agents=24,
            n_articles=6,
            training_steps=60,
            eval_steps=40,
            overlay_kind="smallworld",
            overlay_degree=4,
            seed=2,
        )
        res = run_simulation(cfg)
        assert 0.0 <= res.summary["shared_files"] <= 1.0

    def test_sparse_overlay_starves_requests(self):
        """When sharers are rare and the overlay sparse, peers without a
        sharing neighbour cannot download at all, so less bandwidth moves
        than on the paper's fully connected graph.  (With a thinned
        request process the throughput is request-limited, which is what
        makes the starvation visible in the mean.)"""
        from repro.agents.population import PopulationMix
        from repro.sim.config import SimulationConfig
        from repro.sim.engine import run_simulation

        base = dict(
            n_agents=40,
            n_articles=8,
            training_steps=80,
            eval_steps=60,
            mix=PopulationMix(0.0, 0.15, 0.85),  # sharers are rare
            download_probability=0.2,  # request-limited regime
            seed=3,
        )
        full = run_simulation(SimulationConfig(**base))
        sparse = run_simulation(
            SimulationConfig(**base, overlay_kind="random", overlay_degree=2)
        )
        assert (
            sparse.summary["utility_sharing"] < full.summary["utility_sharing"]
        )

    def test_heterogeneous_capacity(self):
        from repro.sim.config import SimulationConfig
        from repro.sim.engine import CollaborationSimulation

        cfg = SimulationConfig(
            n_agents=50,
            n_articles=6,
            training_steps=30,
            eval_steps=20,
            capacity_sigma=0.8,
            seed=4,
        )
        sim = CollaborationSimulation(cfg)
        caps = sim.peers.upload_capacity
        assert caps.std() > 0.1
        assert caps.mean() == pytest.approx(1.0, abs=0.35)
        sim.run()

    def test_capacity_sigma_validation(self):
        from repro.sim.config import SimulationConfig

        with pytest.raises(ValueError):
            SimulationConfig(capacity_sigma=-0.1)
