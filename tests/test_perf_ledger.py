"""The performance ledger: committed file schema and the tool's statistics."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("perf_ledger", ROOT / "tools" / "perf_ledger.py")
perf_ledger = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_ledger)

METRICS = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def run(workload, seed, commit, steps, rss=100.0, setup=0.5, failed=0.0, src=None):
    """A saved untraced perfbench run, as ``.perfbench/last-*-t0.json``."""
    return {
        "workload": workload,
        "seed": seed,
        "trace": 0,
        "machine": {
            "nproc": 2,
            "numpy": "2.0",
            "git_commit": commit,
            "src_sha256": src or commit[:4],
        },
        "lines": [f"metric failed_frac = {failed:g} ratio"],
        "absent": [],
        "metrics": {
            "setup_s": {"value": setup, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MiB"},
            "agent_steps_per_s": {"value": steps, "unit": "agent-steps/s"},
        },
    }


def save(tmp_path, side, runs):
    folder = tmp_path / side
    folder.mkdir()
    for r in runs:
        (folder / f"{r['workload']}-s{r['seed']}.json").write_text(json.dumps(r))
    return [str(folder)]


def test_committed_ledger_is_well_formed():
    table = json.loads((ROOT / "BENCH_perfbench.json").read_text())
    assert perf_ledger.validate(table) == []


def test_quartiles_match_linear_percentiles():
    assert perf_ledger.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0
    }
    assert perf_ledger.quartiles([1.0, 2.0, 4.0, 8.0]) == {
        "median": 3.0, "q1": 1.75, "q3": 5.0
    }
    assert perf_ledger.quartiles([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0}


def test_entry_pairs_by_workload_and_seed(tmp_path):
    parent = [run("fig-grid", s, "aaaa1111", 100.0 + s) for s in range(10)]
    # The change wins nine pairs clearly and loses one; seed 99 is unpaired.
    change = [run("fig-grid", s, "bbbb2222", 130.0 + s) for s in range(9)]
    change += [run("fig-grid", 9, "bbbb2222", 90.0), run("fig-grid", 99, "bbbb2222", 1e9)]
    change[0]["metrics"]["peak_rss_mb"]["value"] = 99.0  # lower is better
    entry = perf_ledger.build_entry(
        perf_ledger.load_runs(save(tmp_path, "p", parent)),
        perf_ledger.load_runs(save(tmp_path, "c", change)),
        METRICS,
        "fig-grid agent_steps_per_s +20%",
        "fig-grid:agent_steps_per_s",
    )
    wl = entry["workloads"]["fig-grid"]
    assert wl["seeds"] == list(range(10))
    steps = wl["metrics"]["agent_steps_per_s"]
    assert (steps["pairs"], steps["pairs_won"], steps["pairs_lost"]) == (10, 9, 1)
    assert steps["parent"]["median"] == 104.5
    assert steps["change"]["median"] == pytest.approx(133.5)
    assert steps["median_ratio"] == pytest.approx(133.5 / 104.5)
    rss = wl["metrics"]["peak_rss_mb"]
    assert (rss["pairs_won"], rss["pairs_lost"]) == (1, 0)  # ties count for neither
    assert entry["claim"]["holds"] is True
    assert entry["commits"] == {"parent": "aaaa1111", "change": "bbbb2222"}
    assert entry["machine"] == {"nproc": 2, "numpy": "2.0"}
    assert wl["max_failed_frac"] == {"parent": 0.0, "change": 0.0}


def test_claim_needs_nine_tenths_and_a_gap_beyond_the_parent_spread(tmp_path):
    parent = [run("paper-run", s, "aaaa1111", v) for s, v in enumerate([90, 100, 110, 120])]
    narrow = [run("paper-run", s, "bbbb2222", v + 5) for s, v in enumerate([90, 100, 110, 120])]
    entry = perf_ledger.build_entry(
        perf_ledger.load_runs(save(tmp_path, "p", parent)),
        perf_ledger.load_runs(save(tmp_path, "c", narrow)),
        METRICS, "paper-run faster", "paper-run:agent_steps_per_s",
    )
    # Won every pair, but +5 does not clear the parent's IQR of 15.
    assert entry["workloads"]["paper-run"]["metrics"]["agent_steps_per_s"]["pairs_won"] == 4
    assert entry["claim"]["holds"] is False


def test_append_validates_and_rejects_bad_input(tmp_path):
    ledger = tmp_path / "ledger.json"
    runs = perf_ledger.load_runs(save(tmp_path, "p", [run("scale-50k", 1, "aaaa1111", 5.0)]))
    other = perf_ledger.load_runs(save(tmp_path, "c", [run("scale-50k", 1, "bbbb2222", 6.0)]))
    entry = perf_ledger.build_entry(runs, other, METRICS, "no claim")
    table = perf_ledger.append(ledger, entry)
    perf_ledger.append(ledger, entry)
    assert len(json.loads(ledger.read_text())["entries"]) == 2
    assert perf_ledger.validate(table) == []
    with pytest.raises(ValueError, match="no \\(workload, seed\\)"):
        perf_ledger.build_entry(runs, {}, METRICS, "x")
    traced = run("scale-50k", 2, "aaaa1111", 5.0) | {"trace": 1}
    path = tmp_path / "traced.json"
    path.write_text(json.dumps(traced))
    with pytest.raises(ValueError, match="untraced"):
        perf_ledger.load_runs([str(path)])
    assert perf_ledger.validate({"schema_version": 1, "entries": []})


def test_entry_records_each_sides_source_digest(tmp_path):
    parent = [run("paper-run", s, "aaaa1111", 100.0) for s in range(3)]
    change = [run("paper-run", s, "bbbb2222", 101.0) for s in range(3)]
    entry = perf_ledger.build_entry(
        perf_ledger.load_runs(save(tmp_path, "p", parent)),
        perf_ledger.load_runs(save(tmp_path, "c", change)),
        METRICS, "no claim",
    )
    assert entry["commits"] == {"parent": "aaaa1111", "change": "bbbb2222"}
    assert entry["src_sha256"] == {"parent": "aaaa", "change": "bbbb"}
    assert perf_ledger.validate({"schema_version": 1, "entries": [entry]}) == []


def test_one_side_with_several_source_digests_is_refused(tmp_path):
    parent = [run("scale-50k", s, "aaaa1111", 5.0) for s in range(3)]
    # Same commit on every change run, but one ran from an edited tree.
    change = [run("scale-50k", s, "bbbb2222", 6.0) for s in range(2)]
    change.append(run("scale-50k", 2, "bbbb2222", 6.0, src="dirty"))
    with pytest.raises(ValueError, match="several source trees"):
        perf_ledger.build_entry(
            perf_ledger.load_runs(save(tmp_path, "p", parent)),
            perf_ledger.load_runs(save(tmp_path, "c", change)),
            METRICS, "x",
        )


def test_same_commit_with_different_sources_is_refused(tmp_path):
    # An uncommitted copy of the change, run from a checkout of the
    # parent, stamps the parent's commit beside a different digest.
    parent = [run("fig-grid", s, "aaaa1111", 5.0) for s in range(3)]
    copy = [run("fig-grid", s, "aaaa1111", 6.0, src="cccc") for s in range(3)]
    with pytest.raises(ValueError, match="sources differ"):
        perf_ledger.build_entry(
            perf_ledger.load_runs(save(tmp_path, "p", parent)),
            perf_ledger.load_runs(save(tmp_path, "c", copy)),
            METRICS, "x",
        )
    # One tree on both sides (an A/A control) is still a valid entry.
    same = [run("fig-grid", s, "aaaa1111", 6.0) for s in range(3)]
    entry = perf_ledger.build_entry(
        perf_ledger.load_runs([str(tmp_path / "p")]),
        perf_ledger.load_runs(save(tmp_path, "a", same)),
        METRICS, "A/A",
    )
    assert entry["src_sha256"] == {"parent": "aaaa", "change": "aaaa"}
