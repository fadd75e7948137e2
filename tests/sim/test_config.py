"""Tests for the simulation configuration."""

import pickle
from typing import get_args, get_type_hints

import pytest

from repro.agents.population import PopulationMix
from repro.sim.config import SimulationConfig

#: Every int-annotated field, ``tft_ledger_cap`` (``int | None``) included.
INT_FIELDS = sorted(
    name
    for name, hint in get_type_hints(SimulationConfig).items()
    if hint is int or int in get_args(hint)
)


class TestSimulationConfig:
    def test_paper_defaults(self):
        cfg = SimulationConfig()
        assert cfg.n_agents == 100
        assert cfg.n_states == 10
        assert cfg.training_steps == 10_000
        assert cfg.t_train == float("inf")
        assert cfg.t_eval == 1.0
        assert cfg.incentives_enabled

    def test_with_(self):
        cfg = SimulationConfig()
        cfg2 = cfg.with_(seed=99, incentives_enabled=False)
        assert cfg2.seed == 99
        assert not cfg2.incentives_enabled
        assert cfg.seed == 0  # original untouched

    def test_total_steps(self):
        cfg = SimulationConfig(training_steps=100, eval_steps=50)
        assert cfg.total_steps == 150

    def test_picklable(self):
        cfg = SimulationConfig(mix=PopulationMix(0.5, 0.25, 0.25))
        clone = pickle.loads(pickle.dumps(cfg))
        assert clone == cfg

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_agents": 1},
            {"n_states": 0},
            {"eval_steps": 0},
            {"training_steps": -1},
            {"t_eval": 0.0},
            {"download_probability": 1.5},
            {"edit_attempt_prob": -0.1},
            {"max_voters_per_edit": 0},
            {"measure_window": 0.0},
            {"measure_window": 1.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SimulationConfig(**kwargs)

    def test_describe(self):
        assert "incentive" in SimulationConfig().describe()
        assert "no-incentive" in SimulationConfig(incentives_enabled=False).describe()


class TestFieldTypes:
    """Canonical hashing maps 7.0 to 7 and a dataclass to a dict, so a
    mistyped field must fail at construction, not when run."""

    def test_int_fields_are_found(self):
        assert {"seed", "n_agents", "training_steps", "founders_per_article",
                "n_states", "tft_ledger_cap"} <= set(INT_FIELDS)

    @pytest.mark.parametrize("bad", [7.0, True])
    @pytest.mark.parametrize("name", INT_FIELDS)
    def test_int_fields_reject_floats_and_bools(self, name, bad):
        with pytest.raises(TypeError, match=name):
            SimulationConfig(**{name: bad})

    def test_structured_fields_need_their_classes(self):
        mix = {"rational": 1.0, "altruistic": 0.0, "irrational": 0.0}
        with pytest.raises(TypeError, match="mix"):
            SimulationConfig(mix=mix)
        with pytest.raises(TypeError, match="mix"):
            SimulationConfig().with_(mix=mix)
        with pytest.raises(TypeError, match="constants"):
            SimulationConfig(constants=3)

    @pytest.mark.parametrize(
        "kwargs",
        [{"incentives_enabled": 1}, {"scheme": 3}, {"t_eval": True}, {"t_eval": "1"}],
    )
    def test_other_kinds_checked(self, kwargs):
        with pytest.raises(TypeError, match=next(iter(kwargs))):
            SimulationConfig(**kwargs)

    def test_float_fields_take_ints(self):
        cfg = SimulationConfig(t_eval=2, capacity_sigma=0, download_probability=1)
        assert cfg == SimulationConfig(
            t_eval=2.0, capacity_sigma=0.0, download_probability=1.0
        )
