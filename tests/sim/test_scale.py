"""Scale-path coverage: the capped tft ledger and its chunked kernels.

The contract of the scale path is layered:

* **exactness** — with a cap no row can overflow
  (``tft_ledger_cap = N``), a capped run is bit-identical to its dense
  twin (``None``: same accumulation order, same reputations, same
  trajectories) across every scheme;
* **neutrality** — the ledger kernels' chunk bounds temporaries only:
  any chunk size gives the same ledger, evictions included;
* **boundedness** — in the eviction regime rows never exceed their cap
  and the engine keeps running;
* **batching** — int caps lift per lane like every other knob, dense
  and capped lanes never share a batch, and the planner derives a
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
from repro.sim.config import SimulationConfig
from repro.sim.engine import (
    BatchedSimulation,
    CollaborationSimulation,
    run_simulation,
)
from repro.sim.lanes import estimate_lane_state_bytes, structural_key
from repro.sim._sweep import default_lane_width, plan_lane_batches
from repro.store.hashing import config_hash
from tests.sim.test_golden import CORPUS

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
    """Exact regime: ``tft_ledger_cap = N`` against ``None``, bit for bit."""

    @pytest.mark.parametrize("scheme", ["reputation", "none", "tft", "karma"])
    def test_bit_identical_across_schemes(self, scheme):
        dense = tiny(scheme=scheme)
        sparse = dense.with_(tft_ledger_cap=24)
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
        sparse = dense.with_(tft_ledger_cap=24)
        assert_summaries_identical(run_simulation(dense), run_simulation(sparse))

    def test_sparse_state_matches_dense_matrix(self):
        dense = CollaborationSimulation(tiny(scheme="tft"))
        sparse = CollaborationSimulation(tiny(scheme="tft", tft_ledger_cap=24))
        assert dense.scheme._ledger is None and sparse.scheme._given is None
        for _ in range(30):
            dense.step(float("inf"))
            sparse.step(float("inf"))
        assert np.array_equal(np.asarray(dense.scheme.given),
                              np.asarray(sparse.scheme.given))
        assert np.array_equal(dense.scheme.reputation_s(),
                              sparse.scheme.reputation_s())


class TestChunkNeutrality:
    def test_chunk_size_never_changes_the_ledger(self, monkeypatch):
        """Every ledger_add of the golden eviction-regime run (N = 24,
        cap 4), replayed at each chunk size from 1 to N, leaves the same
        books and evicts the same entries as one unchunked call."""
        cfg = CORPUS["sparse-scale"][0]
        add = KERNELS.ledger_add
        evicting = 0

        def replay(partners, amounts, counts, row_cap, rows, cols, adds, chunk_size):
            nonlocal evicting
            outcomes = []
            for chunk in range(1, cfg.n_agents + 1):
                books = (partners.copy(), amounts.copy(), counts.copy())
                evicted = add(*books, row_cap, rows, cols, adds, chunk)
                outcomes.append([_bits(a) for a in (*books, *evicted)])
            assert all(o == outcomes[0] for o in outcomes[1:])
            got = add(partners, amounts, counts, row_cap, rows, cols, adds, chunk_size)
            assert [_bits(a) for a in (partners, amounts, counts, *got)] == outcomes[0]
            evicting += bool(got[0].size)
            return got

        monkeypatch.setattr(KERNELS, "ledger_add", replay)
        CollaborationSimulation(cfg).run()
        assert evicting > 0  # the eviction regime, where order could matter


class TestEvictionRegime:
    def test_capped_run_completes_and_stays_bounded(self):
        cfg = tiny(scheme="tft", tft_ledger_cap=4)
        sim = CollaborationSimulation(cfg)
        for _ in range(50):
            sim.step(float("inf"))
        led = sim.scheme._ledger
        assert int(led.counts.max()) <= 4
        result = run_simulation(cfg)
        assert 0.0 <= result.summary["shared_bandwidth"] <= 1.0

    def test_capped_run_stays_statistically_close_to_dense(self):
        dense = run_simulation(tiny(scheme="tft"))
        capped = run_simulation(tiny(scheme="tft", tft_ledger_cap=6))
        assert capped.summary["shared_bandwidth"] == pytest.approx(
            dense.summary["shared_bandwidth"], abs=0.15
        )


class TestLaneBatchedScale:
    def test_sparse_lanes_bit_identical_to_sequential(self):
        configs = [
            tiny(seed=70, scheme="tft", tft_ledger_cap=24),
            tiny(seed=71, scheme="tft", tft_ledger_cap=8),
            tiny(seed=72, scheme="tft", tft_history_decay=0.9, tft_ledger_cap=24),
        ]
        batched = BatchedSimulation(configs).run()
        for got, cfg in zip(batched, configs):
            assert_summaries_identical(got, run_simulation(cfg), "lane: ")

    def test_sparse_flag_is_structural(self):
        """Dense (``None``) and capped tft lanes never share a batch."""
        dense = tiny(scheme="tft")
        capped = tiny(seed=2, scheme="tft", tft_ledger_cap=8)
        with pytest.raises(ValueError, match="tft_ledger_cap"):
            BatchedSimulation([dense, capped])
        tasks = plan_lane_batches([(dense, [0]), (capped, [1]), (dense.with_(seed=3), [2])])
        assert [[i for _, (i,) in task] for task in tasks] == [[0, 2], [1]]

    def test_ledger_cap_is_not_structural(self):
        a = tiny(seed=1, scheme="tft", tft_ledger_cap=8)
        b = tiny(seed=2, scheme="tft", tft_ledger_cap=16)
        assert len(BatchedSimulation([a, b]).run()) == 2
        # Schemes without a tft history ignore the field.
        assert structural_key(tiny(tft_ledger_cap=8)) == structural_key(tiny())


class TestSparseLedgerUnit:
    def test_lookup_missing_is_zero(self):
        led = SparseInteractionLedger(8, cap=4)
        assert led.lookup(np.array([3]), np.array([5])).tolist() == [0.0]

    def test_add_accumulates_and_looks_up(self):
        led = SparseInteractionLedger(8, cap=4)
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
    """``ledger_add`` classifying the whole call against all allocated
    columns of its start state, then inserting every miss in one pass."""
    live = add_amounts != 0.0
    r, c, a = rows[live], cols[live], add_amounts[live]
    match = led.partners[r] == c[:, None]
    hit = match.any(axis=1)
    led.amounts[r[hit], match.argmax(axis=1)[hit]] += a[hit]
    miss = ~hit
    if not miss.any():
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    return NumpyKernels._ledger_insert(
        led.partners, led.amounts, led.counts, led.row_cap, r[miss], c[miss], a[miss]
    )


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
    """Chunked live-width scans give what one full-width scan gives."""

    @given(seed=st.integers(0, 2**32 - 1), per_slot_cap=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_random_sequences_match_full_width(self, seed, per_slot_cap):
        rng = np.random.default_rng(seed)
        n_local, n_rep = int(rng.integers(2, 12)), int(rng.integers(1, 3))
        n_slots = n_local * n_rep
        cap = rng.integers(1, 7, n_slots) if per_slot_cap else int(rng.integers(1, 9))
        chunk = int(rng.integers(1, 9))
        led = SparseInteractionLedger(n_local, n_rep, cap=cap)
        ref = SparseInteractionLedger(n_local, n_rep, cap=cap)
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
                got = KERNELS.ledger_add(
                    led.partners, led.amounts, led.counts, led.row_cap,
                    rows, cols, amounts, chunk,
                )
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
        led = SparseInteractionLedger(6, n_replicates=2, cap=4)
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
        sparse = dense.with_(tft_ledger_cap=64)
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
        light = tiny(scheme="tft", n_agents=1000, tft_ledger_cap=8)
        heavy = light.with_(tft_ledger_cap=999)
        assert default_lane_width(heavy) < default_lane_width(light)
        budget = estimate_lane_state_bytes(heavy) * 2
        pending = [(c.with_(seed=s), [s])
                   for s, c in enumerate([light, heavy, light, light, light])]
        tasks = plan_lane_batches(pending, memory_budget=budget)
        # First-config width alone would allow all five in one batch; the
        # heavy lane narrows the batch it joins to 2 — and once that
        # batch closes, the light-only remainder recovers its full width.
        assert [len(t) for t in tasks] == [2, 3]


class TestLedgerCapField:
    def test_cap_changes_the_store_hash(self):
        assert len({
            config_hash(tiny(tft_ledger_cap=cap)) for cap in (None, 32, 64)
        }) == 3

    def test_storage_follows_the_cap(self):
        dense = CollaborationSimulation(tiny(scheme="tft")).scheme
        capped = CollaborationSimulation(tiny(scheme="tft", tft_ledger_cap=5)).scheme
        assert dense._ledger is None and dense._given.shape == (1, 24, 24)
        assert capped._given is None and capped._ledger.cap == 5

    def test_validation(self):
        for cap in (0, -3):
            with pytest.raises(ValueError, match="tft_ledger_cap"):
                tiny(tft_ledger_cap=cap)
