"""Tests for the on-disk run store."""

import json

import pytest

from tests.conftest import assert_summaries_equal

from repro.sim.config import SimulationConfig
from repro.sim.engine import run_simulation
from repro.store.hashing import config_hash
from repro.store._runstore import STORE_SCHEMA_VERSION, RunStore, StoredRun


def tiny(seed=0, **kw):
    return SimulationConfig(
        n_agents=20, n_articles=5, training_steps=40, eval_steps=30, seed=seed, **kw
    )


class TestPutGet:
    def test_roundtrip(self, tmp_path):
        store = RunStore(tmp_path)
        result = run_simulation(tiny(seed=3))
        h = store.put(result)
        assert h == config_hash(tiny(seed=3))
        cached = store.get(tiny(seed=3))
        assert cached is not None
        assert_summaries_equal(cached.summary, result.summary)
        assert_summaries_equal(cached.training_summary, result.training_summary)
        assert cached.extras == result.extras
        assert cached.wall_time_s == result.wall_time_s
        assert cached.events is None
        assert cached.config == tiny(seed=3)

    def test_miss_returns_none(self, tmp_path):
        store = RunStore(tmp_path)
        assert store.get(tiny()) is None
        assert not store.contains(tiny())
        assert tiny() not in store

    def test_contains_and_len(self, tmp_path):
        store = RunStore(tmp_path)
        store.put(run_simulation(tiny(seed=1)))
        assert store.contains(tiny(seed=1))
        assert tiny(seed=1) in store
        assert not store.contains(tiny(seed=2))
        assert len(store) == 1

    def test_hit_miss_counters(self, tmp_path):
        store = RunStore(tmp_path)
        store.put(run_simulation(tiny(seed=1)))
        store.get(tiny(seed=1))
        store.get(tiny(seed=2))
        assert store.stats == {"stored": 1, "hits": 1, "misses": 1}

    def test_reput_last_write_wins_after_reopen(self, tmp_path):
        store = RunStore(tmp_path)
        result = run_simulation(tiny(seed=1))
        store.put(result)
        changed = run_simulation(tiny(seed=1))
        changed.summary = dict(changed.summary)
        changed.summary["shared_files"] = 0.123456
        store.put(changed)
        assert len(store) == 1
        # A reopened store must agree with the latest put (index and
        # payload stay consistent), not serve the stale first line.
        reopened = RunStore(tmp_path)
        cached = reopened.get(tiny(seed=1))
        assert cached is not None
        assert cached.summary["shared_files"] == 0.123456
        assert reopened.records()[0].summary["shared_files"] == 0.123456


class TestPersistence:
    def test_survives_reopen(self, tmp_path):
        RunStore(tmp_path).put(run_simulation(tiny(seed=5)))
        reopened = RunStore(tmp_path)
        assert len(reopened) == 1
        assert reopened.contains(tiny(seed=5))

    def test_index_layout(self, tmp_path):
        store = RunStore(tmp_path)
        h = store.put(run_simulation(tiny(seed=5)))
        line = json.loads((tmp_path / "index.jsonl").read_text())
        assert set(line) == {
            "config_hash",
            "schema_version",
            "summary",
            "training_summary",
            "wall_time_s",
            "extras",
        }
        assert line["config_hash"] == h
        payload = json.loads((tmp_path / "runs" / f"{h}.json").read_text())
        assert payload["config"]["seed"] == 5
        assert payload["created_at"] is not None


def test_bench_store_open_loaded(tmp_path):
    """Opening a store re-reads an index of 50 runs."""
    config = SimulationConfig(
        n_agents=10, n_articles=10, training_steps=20, eval_steps=10, seed=9
    )
    result = run_simulation(config)
    seed_store = RunStore(tmp_path)
    for seed in range(50):
        result.config = config.with_(seed=seed)
        seed_store.put(result)
    assert len(RunStore(tmp_path)) == 50


class TestCorruptionTolerance:
    def test_garbage_index_lines_skipped(self, tmp_path):
        store = RunStore(tmp_path)
        store.put(run_simulation(tiny(seed=1)))
        with (tmp_path / "index.jsonl").open("a") as fh:
            fh.write("{torn json\n")
            fh.write("\n")
            fh.write('"not a dict"\n')
        reopened = RunStore(tmp_path)
        assert len(reopened) == 1

    def test_foreign_schema_version_skipped(self, tmp_path):
        store = RunStore(tmp_path)
        store.put(run_simulation(tiny(seed=1)))
        record = json.loads((tmp_path / "index.jsonl").read_text())
        record["schema_version"] = STORE_SCHEMA_VERSION + 1
        record["config_hash"] = "f" * 64
        with (tmp_path / "index.jsonl").open("a") as fh:
            fh.write(json.dumps(record) + "\n")
        reopened = RunStore(tmp_path)
        assert len(reopened) == 1
        assert "f" * 64 not in set(reopened.iter_hashes())

    def test_orphan_payload_adopted(self, tmp_path):
        # Simulates a crash between payload write and index append.
        store = RunStore(tmp_path)
        h = store.put(run_simulation(tiny(seed=1)))
        (tmp_path / "index.jsonl").unlink()
        reopened = RunStore(tmp_path)
        assert reopened.contains(tiny(seed=1))
        # The adopted record was re-indexed for the next open.
        assert h in (tmp_path / "index.jsonl").read_text()

    def test_invalid_training_summary_skipped(self, tmp_path):
        store = RunStore(tmp_path)
        store.put(run_simulation(tiny(seed=1)))
        record = json.loads((tmp_path / "index.jsonl").read_text())
        record["training_summary"] = None
        record["config_hash"] = "e" * 64
        with (tmp_path / "index.jsonl").open("a") as fh:
            fh.write(json.dumps(record) + "\n")
        reopened = RunStore(tmp_path)
        assert len(reopened) == 1  # corrupt record skipped, not fatal

    def test_collect_events_run_rejected(self, tmp_path):
        store = RunStore(tmp_path)
        result = run_simulation(tiny(seed=1, collect_events=True))
        with pytest.raises(ValueError, match="collect_events"):
            store.put(result)
        assert store.get(tiny(seed=1, collect_events=True)) is None

    def test_corrupt_payload_ignored_for_records(self, tmp_path):
        store = RunStore(tmp_path)
        h = store.put(run_simulation(tiny(seed=1)))
        (tmp_path / "runs" / f"{h}.json").write_text("{nope")
        reopened = RunStore(tmp_path)
        # Index-only record still answers get(); records() falls back too.
        assert reopened.get(tiny(seed=1)) is not None
        assert len(reopened.records()) == 1


class TestQueryRecords:
    def test_query_by_field(self, tmp_path):
        store = RunStore(tmp_path)
        store.put(run_simulation(tiny(seed=1, scheme="karma")))
        store.put(run_simulation(tiny(seed=2, scheme="karma")))
        store.put(run_simulation(tiny(seed=3, scheme="tft")))
        assert len(store.query(scheme="karma")) == 2
        assert len(store.query(scheme="karma", seed=1)) == 1
        assert store.query(scheme="reputation") == []

    def test_query_dotted_path(self, tmp_path):
        store = RunStore(tmp_path)
        store.put(run_simulation(tiny(seed=1)))
        assert len(store.query(**{"mix.rational": 1.0})) == 1
        assert store.query(**{"mix.rational": 0.5}) == []

    def test_query_float_sentinels(self, tmp_path):
        store = RunStore(tmp_path)
        store.put(run_simulation(tiny(seed=1)))
        assert len(store.query(t_train=float("inf"))) == 1

    def test_records_sorted_and_config_backed(self, tmp_path):
        store = RunStore(tmp_path)
        for seed in (3, 1, 2):
            store.put(run_simulation(tiny(seed=seed)))
        records = store.records()
        assert len(records) == 3
        assert [r.config["seed"] for r in records] == [3, 1, 2]  # insertion order
        assert all(isinstance(r, StoredRun) for r in records)


class TestRefresh:
    def test_sees_records_appended_by_another_handle(self, tmp_path):
        writer = RunStore(tmp_path)
        reader = RunStore(tmp_path)
        assert reader.refresh() == 0
        writer.put(run_simulation(tiny(seed=1)))
        assert not reader.contains(tiny(seed=1))  # stale until refreshed
        assert reader.refresh() >= 1
        assert reader.contains(tiny(seed=1))
        assert reader.get(tiny(seed=1)) is not None

    def test_ignores_torn_trailing_line(self, tmp_path):
        writer = RunStore(tmp_path)
        writer.put(run_simulation(tiny(seed=1)))
        reader = RunStore(tmp_path)
        # A writer crashed mid-append: no trailing newline yet.
        with (tmp_path / "index.jsonl").open("a") as fh:
            fh.write('{"config_hash": "deadbeef", "config"')
        assert reader.refresh() == 0  # torn tail deferred, not consumed
        # The write completes; the whole line is now visible.
        with (tmp_path / "index.jsonl").open("a") as fh:
            fh.write(": {}}\n")
        reader.refresh()
        assert len(reader) >= 1

    def test_missing_index_is_not_fatal(self, tmp_path):
        store = RunStore(tmp_path / "fresh")
        assert store.refresh() == 0

    def test_contains_hash(self, tmp_path):
        store = RunStore(tmp_path)
        h = store.put(run_simulation(tiny(seed=1)))
        assert store.contains_hash(h)
        assert not store.contains_hash("0" * 64)


class TestGridManifests:
    def grid(self, n=3):
        return [tiny(seed=s) for s in range(n)]

    def test_put_get_roundtrip(self, tmp_path):
        store = RunStore(tmp_path)
        grid = self.grid()
        key = store.put_grid(grid, lane_width=2)
        manifest = store.get_grid(key)
        assert manifest is not None
        assert manifest.key == key
        assert list(manifest.configs) == grid
        assert list(manifest.config_hashes) == [config_hash(c) for c in grid]
        assert manifest.lane_width == 2
        assert store.grid_keys() == [key]

    def test_key_is_content_derived(self, tmp_path):
        store = RunStore(tmp_path)
        k1 = store.put_grid(self.grid(), lane_width=2)
        k2 = store.put_grid(self.grid(), lane_width=2)
        k3 = store.put_grid(self.grid(), lane_width=4)
        assert k1 == k2
        assert k1 != k3
        assert len(store.grid_keys()) == 2

    def test_refuses_event_configs(self, tmp_path):
        store = RunStore(tmp_path)
        with pytest.raises(ValueError, match="collect_events"):
            store.put_grid([tiny(collect_events=True)], lane_width=1)

    def test_refuses_bad_lane_width(self, tmp_path):
        store = RunStore(tmp_path)
        with pytest.raises(ValueError):
            store.put_grid(self.grid(), lane_width=0)

    def test_missing_and_corrupt_manifests_read_as_none(self, tmp_path):
        store = RunStore(tmp_path)
        assert store.get_grid("0" * 64) is None
        key = store.put_grid(self.grid(), lane_width=1)
        (store.grids_dir / f"{key}.json").write_text("{torn", encoding="utf-8")
        assert store.get_grid(key) is None

    def test_foreign_schema_reads_as_none(self, tmp_path):
        store = RunStore(tmp_path)
        key = store.put_grid(self.grid(), lane_width=1)
        path = store.grids_dir / f"{key}.json"
        doc = json.loads(path.read_text())
        doc["schema_version"] = 999
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert store.get_grid(key) is None

    def test_grid_keys_empty_store(self, tmp_path):
        assert RunStore(tmp_path).grid_keys() == []
