"""The stable public facade (``repro.api``) and the deprecation shims.

Two contracts: every name in ``repro.api.__all__`` works as documented,
and the pre-facade import paths (``repro.sim.sweep``,
``repro.store.runstore``) keep functioning — same module objects, so
monkeypatching through the old path still patches the real
implementation — while warning ``DeprecationWarning`` exactly once per
interpreter.
"""

import importlib
import subprocess
import sys

import pytest

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

    def test_run_backend_override(self):
        result = api.run(SimulationConfig(**TINY), backend="numpy")
        assert result.config.engine.backend == "numpy"

    def test_sweep_serial_with_store(self, tmp_path):
        store = api.open_store(tmp_path / "rs")
        cfg = SimulationConfig(**TINY)
        results = api.sweep([cfg, cfg.with_(seed=1)], store=store, executor="serial")
        assert len(results) == 2
        assert len(store.records()) == 2
        # Cached on repeat: same configs, no recomputation needed.
        again = api.sweep([cfg, cfg.with_(seed=1)], store=store, executor="serial")
        assert [r.summary for r in again] == [r.summary for r in results]

    def test_sweep_kernel_backend_is_hash_neutral(self, tmp_path, monkeypatch):
        from repro.sim.backends import reset_backend_cache

        monkeypatch.setenv("REPRO_COMPILED_PUREPY", "1")
        reset_backend_cache()
        try:
            store = api.open_store(tmp_path / "rs")
            cfg = SimulationConfig(**TINY)
            api.sweep([cfg], store=store, executor="serial", backend="compiled")
            # The default-backend spelling of the same config hits the
            # cache: engine.backend is excluded from the store hash.
            assert store.get(cfg) is not None
        finally:
            reset_backend_cache()

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

    def test_list_backends(self):
        names = {b["name"] for b in api.list_backends()}
        assert {"numpy", "compiled"} <= names

    def test_config_classes_are_the_real_ones(self):
        from repro.sim.config import EngineConfig, ScaleConfig

        assert api.EngineConfig is EngineConfig
        assert api.ScaleConfig is ScaleConfig


class TestDeprecationShims:
    def test_old_sweep_path_is_the_real_module(self):
        import repro.sim._sweep as real

        with pytest.warns(DeprecationWarning, match="repro.sim.sweep"):
            for mod in ("repro.sim.sweep",):
                sys.modules.pop(mod, None)
                old = importlib.import_module(mod)
        assert old is real
        from repro.sim.sweep import run_sweep

        assert run_sweep is real.run_sweep

    def test_old_runstore_path_is_the_real_module(self):
        import repro.store._runstore as real

        with pytest.warns(DeprecationWarning, match="repro.store.runstore"):
            sys.modules.pop("repro.store.runstore", None)
            old = importlib.import_module("repro.store.runstore")
        assert old is real
        from repro.store.runstore import RunStore

        assert RunStore is real.RunStore is api.RunStore

    def test_monkeypatching_old_path_patches_the_implementation(
        self, monkeypatch
    ):
        """The aliasing guarantee the test suite itself relies on."""
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            sys.modules.pop("repro.sim.sweep", None)
            old = importlib.import_module("repro.sim.sweep")
        import repro.sim._sweep as real

        sentinel = object()
        monkeypatch.setattr(old, "run_sweep", sentinel)
        assert real.run_sweep is sentinel

    def test_fresh_interpreter_warns_on_old_import(self):
        """End to end in a clean process: old import warns, works anyway."""
        code = (
            "import warnings\n"
            "with warnings.catch_warnings(record=True) as w:\n"
            "    warnings.simplefilter('always')\n"
            "    from repro.sim.sweep import run_sweep\n"
            "    from repro.store.runstore import RunStore\n"
            "msgs = [str(x.message) for x in w\n"
            "        if issubclass(x.category, DeprecationWarning)]\n"
            "assert any('repro.sim.sweep' in m for m in msgs), msgs\n"
            "assert any('repro.store.runstore' in m for m in msgs), msgs\n"
            "assert callable(run_sweep) and callable(RunStore)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
