"""The stable public facade (``repro.api``): every name in
``repro.api.__all__`` works as documented, and the package has one
version string."""

import tomllib
from pathlib import Path

import pytest

import repro
import repro.api as api
from repro.sim.config import SimulationConfig
from tests.conftest import assert_summaries_equal

TINY = dict(
    n_agents=10,
    n_articles=2,
    founders_per_article=2,
    training_steps=5,
    eval_steps=5,
)


class TestFacade:
    def test_all_names_resolve(self):
        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_api_is_exported_from_the_package_root(self):
        import repro

        assert repro.api is api
        assert "api" in repro.__all__

    def test_run(self):
        result = api.run(api.SimulationConfig(**TINY))
        assert 0.0 <= result.summary["shared_bandwidth"] <= 1.0

    def test_sweep_serial_with_store(self, tmp_path):
        store = api.open_store(tmp_path / "rs")
        cfg = SimulationConfig(**TINY)
        results = api.sweep([cfg, cfg.with_(seed=1)], store=store, executor="serial")
        assert len(results) == 2
        assert len(store.records()) == 2
        # Cached on repeat: same configs, no recomputation needed.
        again = api.sweep([cfg, cfg.with_(seed=1)], store=store, executor="serial")
        assert [r.summary for r in again] == [r.summary for r in results]

    @pytest.mark.parametrize("flag", ["lane_batch", "batch_replicates"])
    def test_sweep_accepts_removed_batching_switches(self, flag):
        cfg = SimulationConfig(**TINY)
        grid = [cfg, cfg.with_(seed=1)]
        with pytest.warns(DeprecationWarning, match=flag):
            results = api.sweep(grid, executor="serial", **{flag: True})
        for a, b in zip(results, api.sweep(grid, executor="serial")):
            assert_summaries_equal(a.summary, b.summary)

    def test_compose(self):
        configs = api.compose("base/default", fast=True, n_seeds=1)
        assert configs and all(
            isinstance(c, api.SimulationConfig) for c in configs
        )

    def test_config_classes_are_the_real_ones(self):
        from repro.sim.config import ScaleConfig

        assert api.SimulationConfig is SimulationConfig
        assert api.ScaleConfig is ScaleConfig


def test_pyproject_reads_the_package_version():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    meta = tomllib.loads(pyproject.read_text())
    assert "version" not in meta["project"]
    assert "version" in meta["project"]["dynamic"]
    assert meta["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "repro.__version__"
    }
    assert repro.__version__
