"""Seed-for-seed equivalence: batched replicates == sequential runs.

The contract of the replicate-axis engine is exact: replicate ``r`` of
``run_replicates(config, R)`` must reproduce ``run_simulation`` with the
same derived seed **bit for bit** — same summary, same training summary,
same whitewash count — across every incentive scheme, overlay kind and
churn setting.  These tests enforce the contract on small but
protocol-complete configurations (training phase, reputation reset,
evaluation phase, editing/voting, punishment all exercised).

The lane generalization extends the contract to **mixed-config batches**
(:class:`TestLaneBatches`): every lane of a heterogeneous
``BatchedSimulation`` must reproduce its own sequential run bit for bit,
whatever differs between the lanes — temperatures, scheme constants,
population mixes, churn/adversary knobs, per-scheme parameters.
"""

import math

import pytest

from repro.agents.population import PopulationMix
from repro.core.params import (
    PaperConstants,
    ReputationParams,
    ServiceParams,
    UtilityParams,
)
from repro.sim.config import SimulationConfig
from repro.sim.engine import BatchedSimulation, run_replicates, run_simulation
from repro.sim.rng import spawn_seeds

#: Mixed population so altruists, free-riders and learners all act.
MIX = PopulationMix(rational=0.5, altruistic=0.25, irrational=0.25)

BASE = dict(
    n_agents=24,
    n_articles=6,
    training_steps=40,
    eval_steps=30,
    founders_per_article=3,
    mix=MIX,
)


def tiny(seed, **overrides):
    params = dict(BASE)
    params.update(overrides)
    return SimulationConfig(seed=seed, **params)


def _same(a, b):
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or a == b
    return a == b


def assert_bit_identical(config, n_replicates=3):
    batched = run_replicates(config, n_replicates)
    seeds = spawn_seeds(config.seed, n_replicates)
    assert [r.config.seed for r in batched] == seeds
    for r, seed in enumerate(seeds):
        sequential = run_simulation(config.with_(seed=seed))
        for section, got, want in (
            ("summary", batched[r].summary, sequential.summary),
            ("training", batched[r].training_summary, sequential.training_summary),
        ):
            assert set(got) == set(want), f"replicate {r}: {section} keys differ"
            for key in want:
                assert _same(got[key], want[key]), (
                    f"replicate {r}: {section}[{key!r}] "
                    f"batched={got[key]!r} sequential={want[key]!r}"
                )
        for extra in ("whitewash_count", "sybil_count"):
            assert batched[r].extras[extra] == sequential.extras[extra]


class TestSchemes:
    @pytest.mark.parametrize("scheme", ["reputation", "none", "tft", "karma"])
    def test_scheme_equivalence(self, scheme):
        assert_bit_identical(tiny(seed=101, scheme=scheme))


class TestOverlays:
    @pytest.mark.parametrize("kind", ["random", "smallworld", "scalefree"])
    def test_overlay_equivalence(self, kind):
        assert_bit_identical(tiny(seed=202, overlay_kind=kind, overlay_degree=4))


class TestChurn:
    @pytest.mark.parametrize("scheme", ["reputation", "karma"])
    def test_churn_equivalence(self, scheme):
        assert_bit_identical(
            tiny(
                seed=303,
                scheme=scheme,
                leave_rate=0.03,
                join_rate=0.25,
                whitewash_rate=0.02,
            )
        )

    def test_churn_off_equivalence(self):
        assert_bit_identical(tiny(seed=304))


class TestAdversaries:
    """The contract extends to the collusion and sybil kernels."""

    @pytest.mark.parametrize("scheme", ["reputation", "tft"])
    def test_collusion_equivalence(self, scheme):
        assert_bit_identical(
            tiny(seed=901, scheme=scheme, collusion_fraction=0.25,
                 collusion_ring_size=3)
        )

    @pytest.mark.parametrize("scheme", ["reputation", "karma"])
    def test_sybil_equivalence(self, scheme):
        assert_bit_identical(
            tiny(seed=902, scheme=scheme, sybil_fraction=0.25, sybil_rate=0.1)
        )

    def test_combined_adversaries_with_churn(self):
        assert_bit_identical(
            tiny(
                seed=903,
                collusion_fraction=0.25,
                collusion_ring_size=3,
                sybil_fraction=0.2,
                sybil_rate=0.05,
                leave_rate=0.02,
                join_rate=0.2,
                whitewash_rate=0.01,
                overlay_kind="random",
                overlay_degree=4,
                capacity_sigma=0.5,
            )
        )


def assert_lanes_bit_identical(configs):
    """Each lane of one heterogeneous batch == its own sequential run,
    event log included; returns the batch's results."""
    batched = BatchedSimulation(configs).run()
    for i, config in enumerate(configs):
        sequential = run_simulation(config)
        for section, got, want in (
            ("summary", batched[i].summary, sequential.summary),
            ("training", batched[i].training_summary, sequential.training_summary),
        ):
            assert set(got) == set(want), f"lane {i}: {section} keys differ"
            for key in want:
                assert _same(got[key], want[key]), (
                    f"lane {i}: {section}[{key!r}] "
                    f"batched={got[key]!r} sequential={want[key]!r}"
                )
        for extra in ("whitewash_count", "sybil_count"):
            assert batched[i].extras[extra] == sequential.extras[extra]
        assert batched[i].events == sequential.events, f"lane {i}: events differ"
    return batched


class TestLaneBatches:
    """Mixed-config lanes: the bit-identity contract across the sweep axis."""

    @pytest.mark.parametrize("scheme", ["reputation", "none", "tft", "karma"])
    def test_workload_axes(self, scheme):
        """Temperatures, request/edit intensities and voter bounds differ."""
        assert_lanes_bit_identical(
            [
                tiny(seed=10, scheme=scheme),
                tiny(seed=11, scheme=scheme, t_eval=0.5, t_train=3.0),
                tiny(seed=12, scheme=scheme, download_probability=0.4,
                     edit_attempt_prob=0.15),
                tiny(seed=13, scheme=scheme, max_voters_per_edit=4,
                     min_voters_per_edit=2),
            ]
        )

    def test_mixed_constants(self):
        """Each lane books reputation with its own PaperConstants."""
        assert_lanes_bit_identical(
            [
                tiny(seed=20),
                tiny(seed=21, constants=PaperConstants(
                    utility=UtilityParams(alpha=2.0, delta=10.0))),
                tiny(seed=22, constants=PaperConstants(
                    reputation_e=ReputationParams(beta=0.4, r_min=0.1),
                    service=ServiceParams(majority_max=0.9,
                                          vote_punish_threshold=3))),
            ]
        )

    def test_mixed_population_mixes(self):
        """Ragged member counts across lanes.

        The first batch runs all-rational to no rationals.  In the second
        (24 peers per lane) two lanes share a ragged type's member count
        while another lane differs — altruists 6, 6, 12, 12 — and the
        last lane has no irrational peers, so the collector's per-type
        groups mix shared, distinct and empty counts.
        """
        assert_lanes_bit_identical(
            [
                tiny(seed=30, mix=PopulationMix(1.0, 0.0, 0.0)),
                tiny(seed=31),
                tiny(seed=32, mix=PopulationMix(0.0, 0.5, 0.5)),
            ]
        )
        assert_lanes_bit_identical(
            [
                tiny(seed=33),
                tiny(seed=34, mix=PopulationMix(0.25, 0.25, 0.5)),
                tiny(seed=35, mix=PopulationMix(0.25, 0.5, 0.25)),
                tiny(seed=36, mix=PopulationMix(0.5, 0.5, 0.0)),
            ]
        )

    def test_mixed_churn_and_adversaries(self):
        """Churn, collusion and sybil kernels active in some lanes only."""
        assert_lanes_bit_identical(
            [
                tiny(seed=40),
                tiny(seed=41, leave_rate=0.03, join_rate=0.25,
                     whitewash_rate=0.02),
                tiny(seed=42, collusion_fraction=0.25, collusion_ring_size=3),
                tiny(seed=43, sybil_fraction=0.25, sybil_rate=0.1),
            ]
        )

    def test_mixed_scheme_knobs_karma(self):
        assert_lanes_bit_identical(
            [
                tiny(seed=50, scheme="karma"),
                tiny(seed=51, scheme="karma", karma_initial=3.0,
                     karma_floor=0.2),
            ]
        )

    def test_mixed_scheme_knobs_tft(self):
        assert_lanes_bit_identical(
            [
                tiny(seed=60, scheme="tft"),
                tiny(seed=61, scheme="tft", tft_optimistic_floor=0.2,
                     tft_history_decay=0.9),
            ]
        )

    def test_mixed_learning_and_capacity(self):
        assert_lanes_bit_identical(
            [
                tiny(seed=70, learning_rate=0.3, discount=0.8),
                tiny(seed=71, capacity_sigma=0.6),
                tiny(seed=72, measure_window=0.8),
            ]
        )

    def test_auto_scheme_batches_with_explicit(self):
        """"auto" and its concrete spelling share a structural key."""
        assert_lanes_bit_identical(
            [tiny(seed=80, scheme="auto"), tiny(seed=81, scheme="reputation")]
        )

    def test_inf_and_finite_eval_temperatures(self):
        """One lane stays at T=inf during evaluation (integer fast path)."""
        assert_lanes_bit_identical(
            [tiny(seed=90), tiny(seed=91, t_eval=float("inf"))]
        )


class TestEventLogLanes:
    """Event logs ride the lane axis: a logging lane of a mixed batch
    records exactly the edits and punishments of its sequential run."""

    HOSTILE = dict(
        leave_rate=0.03,
        join_rate=0.25,
        whitewash_rate=0.02,
        collusion_fraction=0.25,
        collusion_ring_size=3,
        sybil_fraction=0.2,
        sybil_rate=0.05,
    )

    @pytest.mark.parametrize("scheme", ["reputation", "karma", "tft"])
    def test_logging_lanes_mixed_with_plain(self, scheme):
        configs = [
            tiny(seed=61, scheme=scheme, collect_events=True, **self.HOSTILE),
            tiny(seed=62, scheme=scheme, **self.HOSTILE),
            tiny(seed=63, scheme=scheme, collect_events=True, t_eval=0.5,
                 **self.HOSTILE),
            tiny(seed=64, scheme=scheme),
            tiny(seed=65, scheme=scheme, collect_events=True),
        ]
        batched = assert_lanes_bit_identical(configs)
        logs = [r.events for r in batched]
        assert [log is not None for log in logs] == [True, False, True, False, True]
        assert all(logs[i].edits for i in (0, 2, 4))
        if scheme == "reputation":
            # Only the reputation scheme punishes: the comparison above
            # covered real vote bans and reputation resets.
            assert any(logs[i].punishments for i in (0, 2, 4))


class TestOtherAxes:
    def test_heterogeneous_capacity(self):
        assert_bit_identical(tiny(seed=404, capacity_sigma=0.6))

    def test_all_rational(self):
        assert_bit_identical(
            tiny(seed=505, mix=PopulationMix(1.0, 0.0, 0.0))
        )

    def test_no_rational(self):
        assert_bit_identical(
            tiny(seed=606, mix=PopulationMix(0.0, 0.5, 0.5)), n_replicates=2
        )

    def test_strict_edit_gate_off(self):
        assert_bit_identical(tiny(seed=707, enforce_edit_threshold=False))

    def test_thinned_downloads(self):
        assert_bit_identical(tiny(seed=808, download_probability=0.3))
