"""Validation tests for the service submit-body schemas."""

import pytest

from repro.service.schemas import (
    MAX_CONFIGS_PER_JOB,
    SchemaError,
    parse_submit,
)
from repro.sim.config import SimulationConfig
from repro.store.compose import resolve_scenario
from repro.store.hashing import canonical_config_dict, config_hash


class TestParseSubmitShapes:
    def test_rejects_non_object_bodies(self):
        for body in (None, 3, "x", ["scenario"], True):
            with pytest.raises(SchemaError, match="JSON object"):
                parse_submit(body)

    def test_requires_exactly_one_spelling(self):
        with pytest.raises(SchemaError, match="exactly one"):
            parse_submit({})
        with pytest.raises(SchemaError, match="exactly one"):
            parse_submit({"scenario": "base/default", "config": {}})

    def test_scenario_expansion_matches_pack(self):
        spec = parse_submit({"scenario": "base/default", "fast": True, "seeds": 2})
        pack = resolve_scenario("base/default")
        expected = pack.expand(fast=True, n_seeds=2)
        assert [config_hash(c) for c in spec.configs] == [
            config_hash(c) for c in expected
        ]
        assert spec.label == "base/default"

    def test_scenario_algebra_spec_resolves(self):
        spec = parse_submit(
            {"scenario": "base/default+overlay/sparse", "fast": True, "seeds": 1}
        )
        pack = resolve_scenario("base/default+overlay/sparse")
        expected = pack.expand(fast=True, n_seeds=1)
        assert [config_hash(c) for c in spec.configs] == [
            config_hash(c) for c in expected
        ]
        assert spec.label == "base/default+overlay/sparse"

    def test_unknown_scenario_is_schema_error(self):
        with pytest.raises(SchemaError):
            parse_submit({"scenario": "no/such/pack"})

    def test_scenario_knob_types_checked(self):
        with pytest.raises(SchemaError, match="'fast'"):
            parse_submit({"scenario": "base/default", "fast": "yes"})
        with pytest.raises(SchemaError, match="'seeds'"):
            parse_submit({"scenario": "base/default", "seeds": 0})
        with pytest.raises(SchemaError, match="'seeds'"):
            parse_submit({"scenario": "base/default", "seeds": True})
        with pytest.raises(SchemaError, match="'overrides'"):
            parse_submit({"scenario": "base/default", "overrides": [1]})


class TestParseSubmitConfigs:
    def test_single_config_round_trips_hash(self, tiny):
        cfg = tiny(seed=7)
        spec = parse_submit({"config": canonical_config_dict(cfg)})
        assert len(spec.configs) == 1
        assert config_hash(spec.configs[0]) == config_hash(cfg)

    def test_config_list_preserves_order(self, tiny):
        cfgs = [tiny(seed=s) for s in range(3)]
        spec = parse_submit(
            {"configs": [canonical_config_dict(c) for c in cfgs]}
        )
        assert [config_hash(c) for c in spec.configs] == [
            config_hash(c) for c in cfgs
        ]

    def test_invalid_config_reports_index(self):
        with pytest.raises(SchemaError, match="config #1"):
            parse_submit({"configs": [canonical_config_dict(
                SimulationConfig()), {"n_agents": -5}]})

    def test_non_dict_config_entry(self):
        with pytest.raises(SchemaError, match="config #0 must be an object"):
            parse_submit({"configs": [17]})

    def test_configs_must_be_a_list(self):
        with pytest.raises(SchemaError, match="must be a list"):
            parse_submit({"configs": {"n_agents": 8}})

    def test_unknown_field_rejected(self, tiny):
        payload = canonical_config_dict(tiny())
        payload["definitely_not_a_field"] = 1
        with pytest.raises(SchemaError):
            parse_submit({"config": payload})

    def test_unknown_nested_field_rejected(self, tiny):
        payload = canonical_config_dict(tiny())
        payload["constants"]["service"]["edit_threshold_typo"] = 0.5
        with pytest.raises(SchemaError, match="constants.service.edit_threshold_typo"):
            parse_submit({"config": payload})

    @pytest.mark.parametrize(
        "overrides",
        [
            {"mix": {"rational": 1.0, "altruistic": 0.0, "irrational": 0.0}},
            {"constants": 3},
            {"n_agents": 100.0},
            {"seed": 4.0},
            {"tft_ledger_cap": 0},
        ],
    )
    def test_mistyped_scenario_overrides_rejected(self, overrides):
        """The first four hashed as valid configs and failed only when run."""
        with pytest.raises(SchemaError, match=next(iter(overrides))):
            parse_submit(
                {"scenario": "base/default", "fast": True, "overrides": overrides}
            )


class TestParseSubmitPolicy:
    def test_empty_expansion_rejected(self):
        with pytest.raises(SchemaError, match="zero configs"):
            parse_submit({"configs": []})

    def test_per_job_cap_enforced(self, tiny_payload):
        body = {"configs": [tiny_payload()] * (MAX_CONFIGS_PER_JOB + 1)}
        with pytest.raises(SchemaError, match="per-job cap"):
            parse_submit(body)

    def test_collect_events_rejected(self, tiny):
        payload = canonical_config_dict(tiny(collect_events=True))
        with pytest.raises(SchemaError, match="collect_events"):
            parse_submit({"config": payload})
