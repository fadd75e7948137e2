"""Scale-path coverage: sparse ledgers, chunked kernels, streaming metrics.

The contract of the scale path is layered:

* **exactness** — with a cap no row can overflow, a sparse run is
  bit-identical to its dense twin (same accumulation order, same
  reputations, same trajectories) across every scheme;
* **neutrality** — ``scale.chunk_size`` is a pure execution knob: any
  positive value yields the same run;
* **boundedness** — in the eviction regime rows never exceed their cap
  and the engine keeps running;
* **batching** — sparse params thread through lanes like every other
  knob (``ledger_cap`` lifts per lane), and the planner derives a
  memory-safe default lane width from the per-lane footprint.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents.population import PopulationMix
from repro.core.sparse import SparseInteractionLedger
from repro.sim.backends import KERNELS, NumpyKernels
from repro.sim.config import ScaleConfig, SimulationConfig
from repro.sim.engine import BatchedSimulation, run_simulation
from repro.sim.lanes import estimate_lane_state_bytes
from repro.sim._sweep import default_lane_width, plan_lane_batches

MIX = PopulationMix(rational=0.5, altruistic=0.25, irrational=0.25)

BASE = dict(
    n_agents=24,
    n_articles=6,
    training_steps=40,
    eval_steps=30,
    founders_per_article=3,
    mix=MIX,
)


def tiny(seed=11, **overrides):
    params = dict(BASE)
    params.update(overrides)
    return SimulationConfig(seed=seed, **params)


def _same(a, b):
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or a == b
    return a == b


def assert_summaries_identical(a, b, label=""):
    for section, got, want in (
        ("summary", a.summary, b.summary),
        ("training", a.training_summary, b.training_summary),
    ):
        assert set(got) == set(want)
        for key in want:
            assert _same(got[key], want[key]), (
                f"{label}{section}[{key!r}]: {got[key]!r} != {want[key]!r}"
            )


class TestSparseDenseEquivalence:
    """Exact regime: cap >= population, so nothing ever evicts."""

    @pytest.mark.parametrize("scheme", ["reputation", "none", "tft", "karma"])
    def test_bit_identical_across_schemes(self, scheme):
        dense = tiny(scheme=scheme)
        sparse = dense.with_(scale=ScaleConfig(sparse=True, ledger_cap=24))
        assert_summaries_identical(
            run_simulation(dense), run_simulation(sparse), f"{scheme}: "
        )

    def test_bit_identical_under_churn_and_sybil(self):
        """Identity resets exercise the ledger's row/column wipes."""
        dense = tiny(
            scheme="tft",
            leave_rate=0.03,
            join_rate=0.25,
            whitewash_rate=0.02,
            sybil_fraction=0.25,
            sybil_rate=0.1,
        )
        sparse = dense.with_(scale=ScaleConfig(sparse=True, ledger_cap=24))
        assert_summaries_identical(run_simulation(dense), run_simulation(sparse))

    def test_sparse_state_matches_dense_matrix(self):
        from repro.sim.engine import CollaborationSimulation

        dense = CollaborationSimulation(tiny(scheme="tft"))
        sparse = CollaborationSimulation(
            tiny(scheme="tft").with_(scale=ScaleConfig(sparse=True, ledger_cap=24))
        )
        for _ in range(30):
            dense.step(float("inf"))
            sparse.step(float("inf"))
        assert np.array_equal(np.asarray(dense.scheme.given),
                              np.asarray(sparse.scheme.given))
        assert np.array_equal(dense.scheme.reputation_s(),
                              sparse.scheme.reputation_s())


class TestChunkNeutrality:
    @pytest.mark.parametrize("scheme", ["reputation", "tft"])
    def test_chunk_size_never_changes_results(self, scheme):
        wide = tiny(scheme=scheme, scale=ScaleConfig(sparse=(scheme == "tft"),
                                                     ledger_cap=24))
        narrow = wide.with_(**{"scale.chunk_size": 3})
        assert_summaries_identical(
            run_simulation(wide), run_simulation(narrow), f"{scheme}: "
        )


class TestEvictionRegime:
    def test_capped_run_completes_and_stays_bounded(self):
        cfg = tiny(scheme="tft", scale=ScaleConfig(sparse=True, ledger_cap=4))
        from repro.sim.engine import CollaborationSimulation

        sim = CollaborationSimulation(cfg)
        for _ in range(50):
            sim.step(float("inf"))
        led = sim.scheme._ledger
        assert int(led.counts.max()) <= 4
        result = run_simulation(cfg)
        assert 0.0 <= result.summary["shared_bandwidth"] <= 1.0

    def test_capped_run_stays_statistically_close_to_dense(self):
        dense = run_simulation(tiny(scheme="tft"))
        capped = run_simulation(
            tiny(scheme="tft", scale=ScaleConfig(sparse=True, ledger_cap=6))
        )
        assert capped.summary["shared_bandwidth"] == pytest.approx(
            dense.summary["shared_bandwidth"], abs=0.15
        )


class TestLaneBatchedScale:
    def test_sparse_lanes_bit_identical_to_sequential(self):
        configs = [
            tiny(seed=70, scheme="tft",
                 scale=ScaleConfig(sparse=True, ledger_cap=24)),
            tiny(seed=71, scheme="tft",
                 scale=ScaleConfig(sparse=True, ledger_cap=8)),
            tiny(seed=72, scheme="tft", tft_history_decay=0.9,
                 scale=ScaleConfig(sparse=True, ledger_cap=24)),
        ]
        batched = BatchedSimulation(configs).run()
        for got, cfg in zip(batched, configs):
            assert_summaries_identical(got, run_simulation(cfg), "lane: ")

    def test_sparse_flag_is_structural(self):
        sparse = tiny(scale=ScaleConfig(sparse=True))
        with pytest.raises(ValueError, match="scale.sparse"):
            BatchedSimulation([tiny(), sparse])

    def test_ledger_cap_is_not_structural(self):
        a = tiny(seed=1, scheme="tft", scale=ScaleConfig(sparse=True, ledger_cap=8))
        b = tiny(seed=2, scheme="tft", scale=ScaleConfig(sparse=True, ledger_cap=16))
        assert len(BatchedSimulation([a, b]).run()) == 2


class TestStreamingMetrics:
    def test_streaming_summaries_close_to_gathered(self):
        base = tiny()
        streamed = base.with_(**{"scale.stream_metrics_threshold": 2})
        a, b = run_simulation(base), run_simulation(streamed)
        for key, want in a.summary.items():
            got = b.summary[key]
            if isinstance(want, float) and math.isnan(want):
                assert math.isnan(got)
            else:
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9), key

    def test_streaming_batched_matches_sequential(self):
        cfg = tiny(seed=42).with_(**{"scale.stream_metrics_threshold": 2})
        configs = [cfg, cfg.with_(seed=43, t_eval=0.5)]
        batched = BatchedSimulation(configs).run()
        for got, conf in zip(batched, configs):
            assert_summaries_identical(got, run_simulation(conf), "stream: ")

    def test_threshold_is_structural(self):
        with pytest.raises(ValueError, match="stream_metrics_threshold"):
            BatchedSimulation(
                [tiny(), tiny().with_(**{"scale.stream_metrics_threshold": 2})]
            )


class TestSparseLedgerUnit:
    def test_lookup_missing_is_zero(self):
        led = SparseInteractionLedger(8, cap=4)
        assert led.lookup(np.array([3]), np.array([5])).tolist() == [0.0]

    def test_add_accumulates_and_looks_up(self):
        led = SparseInteractionLedger(8, cap=4, chunk_size=2)
        rows = np.array([0, 0, 1, 5, 0])
        cols = np.array([1, 2, 3, 6, 1])
        # Pairs unique per call: split the duplicate (0, 1) across calls.
        led.add(rows[:4], cols[:4], np.array([1.0, 2.0, 3.0, 4.0]))
        led.add(rows[4:], cols[4:], np.array([0.5]))
        assert led.lookup(rows, cols).tolist() == [1.5, 2.0, 3.0, 4.0, 1.5]
        assert led.counts[0] == 2

    def test_zero_amounts_never_occupy_slots(self):
        led = SparseInteractionLedger(8, cap=2)
        led.add(np.array([0, 0]), np.array([1, 2]), np.array([0.0, 1.0]))
        assert led.counts[0] == 1
        assert led.lookup(np.array([0]), np.array([1])).tolist() == [0.0]

    def test_eviction_replaces_smallest(self):
        led = SparseInteractionLedger(8, cap=2)
        led.add(np.array([0, 0]), np.array([1, 2]), np.array([5.0, 1.0]))
        ev_rows, ev_amts = led.add(np.array([0]), np.array([3]), np.array([2.0]))
        assert ev_rows.tolist() == [0] and ev_amts.tolist() == [1.0]
        assert led.lookup(np.array([0, 0, 0]), np.array([1, 2, 3])).tolist() == [
            5.0, 0.0, 2.0,
        ]

    def test_remove_partner_reports_amounts(self):
        led = SparseInteractionLedger(4, n_replicates=2, cap=3)
        led.add(np.array([0, 1, 5]), np.array([2, 2, 2]), np.array([1.0, 2.0, 3.0]))
        rows, removed = led.remove_partner(0, 2)
        assert rows.tolist() == [0, 1] and removed.tolist() == [1.0, 2.0]
        # Replicate 1's entry survives its sibling's wipe.
        assert led.lookup(np.array([5]), np.array([2])).tolist() == [3.0]

    def test_dense_round_trip(self):
        rng = np.random.default_rng(3)
        dense = rng.random((2, 6, 6)) * (rng.random((2, 6, 6)) < 0.4)
        for rep in range(2):
            np.fill_diagonal(dense[rep], 0.0)
        led = SparseInteractionLedger(6, n_replicates=2, cap=6)
        rep, i, j = np.nonzero(dense)
        led.add(rep * 6 + i, j, dense[rep, i, j])
        assert np.array_equal(led.to_dense(), dense)

    def test_per_row_caps(self):
        caps = np.array([1, 3, 3, 3], dtype=np.int64)
        led = SparseInteractionLedger(4, cap=caps)
        led.add(np.array([0, 0, 1, 1]), np.array([1, 2, 0, 2]),
                np.array([1.0, 2.0, 3.0, 4.0]))
        assert led.counts.tolist()[:2] == [1, 2]  # row 0 evicted at cap 1
        assert led.lookup(np.array([0]), np.array([2])).tolist() == [2.0]


def reference_ledger_add(led, rows, cols, add_amounts):
    """``ledger_add`` classifying every chunk against all allocated columns."""
    ev_rows, ev_amts = [], []
    for lo in range(0, rows.size, led.chunk_size):
        r = rows[lo : lo + led.chunk_size]
        c = cols[lo : lo + led.chunk_size]
        a = add_amounts[lo : lo + led.chunk_size]
        live = a != 0.0
        r, c, a = r[live], c[live], a[live]
        if not r.size:
            continue
        match = led.partners[r] == c[:, None]
        hit = match.any(axis=1)
        if hit.any():
            led.amounts[r[hit], match.argmax(axis=1)[hit]] += a[hit]
        miss = ~hit
        if miss.any():
            got = NumpyKernels._ledger_insert(
                led.partners, led.amounts, led.counts, led.row_cap,
                r[miss], c[miss], a[miss],
            )
            if got is not None:
                ev_rows.append(got[0])
                ev_amts.append(got[1])
    if not ev_rows:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    return np.concatenate(ev_rows), np.concatenate(ev_amts)


def reference_remove_partner(led, rep, local):
    """``remove_partner`` scanning every allocated column of the block."""
    lo = rep * led.n_local
    match = led.partners[lo : lo + led.n_local] == local
    rel = np.flatnonzero(match.any(axis=1))
    if not rel.size:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    pos = match[rel].argmax(axis=1)
    rows = rel + lo
    removed = led.amounts[rows, pos].copy()
    last = led.counts[rows] - 1
    led.partners[rows, pos] = led.partners[rows, last]
    led.amounts[rows, pos] = led.amounts[rows, last]
    led.partners[rows, last] = -1
    led.amounts[rows, last] = 0.0
    led.counts[rows] = last
    return rows, removed


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


class TestLiveWidthLedger:
    """Live-width scans give what the same calls give on full-width rows."""

    @given(seed=st.integers(0, 2**32 - 1), per_slot_cap=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_random_sequences_match_full_width(self, seed, per_slot_cap):
        rng = np.random.default_rng(seed)
        n_local, n_rep = int(rng.integers(2, 12)), int(rng.integers(1, 3))
        n_slots = n_local * n_rep
        cap = rng.integers(1, 7, n_slots) if per_slot_cap else int(rng.integers(1, 9))
        chunk = int(rng.integers(1, 9))
        led = SparseInteractionLedger(n_local, n_rep, cap=cap, chunk_size=chunk)
        ref = SparseInteractionLedger(n_local, n_rep, cap=cap, chunk_size=chunk)
        for _ in range(30):
            op = int(rng.integers(6))
            if op <= 2:
                # Unique (row, col) pairs, no self-interactions; amounts
                # with ties and zeros (zeros never occupy a slot).
                n_cells = n_slots * n_local
                flat = rng.choice(n_cells, int(rng.integers(0, min(25, n_cells))), replace=False)
                rows, cols = flat // n_local, flat % n_local
                keep = cols != rows % n_local
                rows, cols = rows[keep], cols[keep]
                amounts = rng.choice([0.0, 0.25, 1.0, 3.0], rows.size) * rng.choice(
                    [1.0, 1e-3], rows.size
                )
                got = led.add(rows, cols, amounts)
                want = reference_ledger_add(ref, rows, cols, amounts)
                assert _bits(got[0]) == _bits(want[0])
                assert _bits(got[1]) == _bits(want[1])
            elif op == 3:
                decay = float(rng.choice([0.5, 0.9]))
                led.decay_rows(decay)
                ref.decay_rows(decay)
            elif op == 4:
                rep, local = int(rng.integers(n_rep)), int(rng.integers(n_local))
                got = led.remove_partner(rep, local)
                want = reference_remove_partner(ref, rep, local)
                assert _bits(got[0]) == _bits(want[0])
                assert _bits(got[1]) == _bits(want[1])
            else:
                # Sometimes every row: an all-empty ledger again.
                wipe = rng.random(n_slots) < float(rng.choice([0.3, 1.0]))
                led.clear_rows(np.flatnonzero(wipe))
                ref.clear_rows(np.flatnonzero(wipe))
            assert _bits(led.partners) == _bits(ref.partners)
            assert _bits(led.amounts) == _bits(ref.amounts)
            assert _bits(led.counts) == _bits(ref.counts)
            q_rows = rng.integers(0, n_slots, 40)
            q_cols = rng.integers(0, n_local, 40)
            full = KERNELS.ledger_lookup(led.partners, led.amounts, q_rows, q_cols, chunk)
            assert _bits(led.lookup(q_rows, q_cols)) == _bits(full)

    def test_all_empty_ledger(self):
        led = SparseInteractionLedger(6, n_replicates=2, cap=4, chunk_size=3)
        rows, cols = np.array([0, 7, 11]), np.array([1, 2, 3])
        assert led.lookup(rows, cols).tolist() == [0.0, 0.0, 0.0]
        ev = led.add(rows, cols, np.zeros(3))  # zeros leave it empty
        assert ev[0].size == 0 and led.counts.max() == 0
        led.add(rows, cols, np.array([1.0, 2.0, 3.0]))
        led.reset()
        assert led.lookup(rows, cols).tolist() == [0.0, 0.0, 0.0]
        led.add(rows, cols, np.array([1.0, 2.0, 3.0]))
        assert led.lookup(rows, cols).tolist() == [1.0, 2.0, 3.0]

    def test_lookup_kernel_sees_the_live_width(self, monkeypatch):
        seen = []
        lookup = KERNELS.ledger_lookup

        def spy(partners, amounts, rows, cols, chunk_size):
            seen.append((partners.shape, amounts.shape))
            return lookup(partners, amounts, rows, cols, chunk_size)

        monkeypatch.setattr(KERNELS, "ledger_lookup", spy)
        led = SparseInteractionLedger(10, cap=8)
        led.lookup(np.array([0]), np.array([1]))
        led.add(np.array([0, 0, 0, 4]), np.array([1, 2, 3, 5]), np.ones(4))
        led.lookup(np.array([0]), np.array([1]))
        assert seen == [((10, 1), (10, 1)), ((10, 3), (10, 3))]


class TestFootprintPlanner:
    def test_dense_tft_estimate_is_quadratic_sparse_is_not(self):
        dense = tiny(scheme="tft", n_agents=2000)
        sparse = dense.with_(scale=ScaleConfig(sparse=True, ledger_cap=64))
        assert estimate_lane_state_bytes(dense) > 2000 * 2000 * 8
        assert estimate_lane_state_bytes(sparse) < estimate_lane_state_bytes(dense) / 4

    def test_default_width_bounds_dense_tft_batches(self):
        cfg = tiny(scheme="tft", n_agents=2000)
        width = default_lane_width(cfg)
        assert 1 <= width < 100
        pending = [(cfg.with_(seed=s), [s]) for s in range(width + 5)]
        tasks = plan_lane_batches(pending)
        assert len(tasks) == 2
        assert len(tasks[0]) == width

    def test_small_configs_keep_maximal_batches(self):
        pending = [(tiny(seed=s), [s]) for s in range(40)]
        assert len(plan_lane_batches(pending)) == 1

    def test_explicit_lane_width_overrides_derived(self):
        cfg = tiny(scheme="tft", n_agents=2000)
        pending = [(cfg.with_(seed=s), [s]) for s in range(4)]
        tasks = plan_lane_batches(pending, lane_width=2)
        assert [len(t) for t in tasks] == [2, 2]

    def test_memory_budget_parameter(self):
        pending = [(tiny(seed=s), [s]) for s in range(6)]
        one_by_one = plan_lane_batches(pending, memory_budget=1)
        assert [len(t) for t in one_by_one] == [1] * 6

    def test_derived_width_tracks_the_heaviest_lane(self):
        """A late huge-ledger-cap lane must shrink the group's width —
        the ledger allocates every row at the widest cap in the batch."""
        light = tiny(scheme="tft", n_agents=1000,
                     scale=ScaleConfig(sparse=True, ledger_cap=8))
        heavy = light.with_(**{"scale.ledger_cap": 999})
        assert default_lane_width(heavy) < default_lane_width(light)
        budget = estimate_lane_state_bytes(heavy) * 2
        pending = [(c.with_(seed=s), [s])
                   for s, c in enumerate([light, heavy, light, light, light])]
        tasks = plan_lane_batches(pending, memory_budget=budget)
        # First-config width alone would allow all five in one batch; the
        # heavy lane narrows the batch it joins to 2 — and once that
        # batch closes, the light-only remainder recovers its full width.
        assert [len(t) for t in tasks] == [2, 3]


class TestScaleConfigPlumbing:
    def test_dotted_with_updates_nested_section(self):
        cfg = tiny().with_(**{"scale.sparse": True, "scale.ledger_cap": 9})
        assert cfg.scale == ScaleConfig(sparse=True, ledger_cap=9)

    def test_scale_changes_the_store_hash(self):
        from repro.store.hashing import config_hash

        assert config_hash(tiny()) != config_hash(
            tiny(scale=ScaleConfig(sparse=True))
        )
        assert config_hash(tiny()) != config_hash(
            tiny(scale=ScaleConfig(ledger_cap=32))
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="ledger_cap"):
            ScaleConfig(ledger_cap=0)
        with pytest.raises(ValueError, match="chunk_size"):
            ScaleConfig(chunk_size=0)
        with pytest.raises(ValueError, match="stream_metrics_threshold"):
            ScaleConfig(stream_metrics_threshold=1)
