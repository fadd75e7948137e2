"""The seed-ensemble gate tool: its file format and its exit status."""

import importlib.util
import json
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "seed_ensemble", ROOT / "tools" / "seed_ensemble.py"
)
seed_ensemble = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(seed_ensemble)


def write(path, seed, shift=0.0, seeds=range(20)):
    """An ensemble file shaped like ``run``'s output: two configs."""
    rng = np.random.default_rng(seed)

    def summaries():
        return [
            {"x": float(rng.normal() + shift), "nan": float("nan"), "zero": 0.0}
            for _ in seeds
        ]

    path.write_text(json.dumps({
        "commit": None, "numpy": np.__version__, "seeds": list(seeds),
        "configs": {
            "a": {"overrides": {}, "summaries": summaries()},
            "b": {"overrides": {}, "summaries": summaries()},
        },
    }))
    return str(path)


def test_compare_passes_equivalent_ensembles(tmp_path, capsys):
    a, b = write(tmp_path / "a.json", 1), write(tmp_path / "b.json", 2)
    assert seed_ensemble.main(["compare", a, b]) == 0
    out = capsys.readouterr().out
    assert "6 pairs over 2 configs x 20 seeds: 4 equal untested, 2 tested, 0 rejected" in out


def test_compare_rejects_a_shifted_ensemble(tmp_path, capsys):
    a, b = write(tmp_path / "a.json", 1), write(tmp_path / "b.json", 2, shift=3.0)
    assert seed_ensemble.main(["compare", a, b]) == 1
    out = capsys.readouterr().out
    assert out.count(" reject\n") == 2
    assert "2 rejected" in out


def test_compare_refuses_different_seeds(tmp_path):
    a = write(tmp_path / "a.json", 1)
    b = write(tmp_path / "b.json", 2, seeds=range(1, 21))
    assert seed_ensemble.main(["compare", a, b]) == 2


def test_gate_configs_build_valid_configs():
    for name in seed_ensemble.GATE:
        configs = seed_ensemble.gate_configs(name, [5, 6])
        assert [c.seed for c in configs] == [5, 6]
    base = seed_ensemble.gate_configs("base/default", [1])[0]
    assert (base.training_steps, base.eval_steps) == (10_000, 3_000)
    mix = seed_ensemble.gate_configs("fig4-mix-0.2-0.6-0.2", [1])[0].mix
    assert (mix.rational, mix.altruistic, mix.irrational) == (0.2, 0.6, 0.2)


def test_the_committed_ensembles_ran_the_gate_seeds_and_configs():
    paths = sorted((ROOT / "docs" / "rebaseline").glob("*.json"))
    assert len(paths) == 2
    for path in paths:
        ensemble = json.loads(path.read_text())
        assert ensemble["seeds"] == list(seed_ensemble.SEEDS)
        assert sorted(ensemble["configs"]) == sorted(seed_ensemble.GATE)
