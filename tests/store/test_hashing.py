"""Tests for canonical config hashing."""

import json
import re

import pytest

from repro.agents.population import PopulationMix
from repro.core.params import PaperConstants, ReputationParams
from repro.sim.config import SimulationConfig
from repro.store.hashing import (
    canonical_config_dict,
    config_from_dict,
    canonical_json,
    config_hash,
    revive_floats,
    short_hash,
)


def cfg(**kw):
    base = dict(n_agents=20, n_articles=5, training_steps=40, eval_steps=30)
    base.update(kw)
    return SimulationConfig(**base)


class TestConfigHash:
    def test_is_sha256_hex(self):
        h = config_hash(cfg())
        assert len(h) == 64
        assert int(h, 16) >= 0

    def test_equal_configs_equal_hashes(self):
        assert config_hash(cfg(seed=7)) == config_hash(cfg(seed=7))

    def test_reconstructed_config_same_hash(self):
        # A config rebuilt field-by-field (as a subprocess would) must key
        # to the same stored run.
        a = cfg(scheme="karma", capacity_sigma=0.5)
        b = SimulationConfig(
            n_agents=20,
            n_articles=5,
            training_steps=40,
            eval_steps=30,
            scheme="karma",
            capacity_sigma=0.5,
        )
        assert config_hash(a) == config_hash(b)

    @pytest.mark.parametrize(
        "change",
        [
            {"seed": 1},
            {"n_agents": 21},
            {"scheme": "tft"},
            {"t_eval": 2.0},
            {"incentives_enabled": False},
            {"mix": PopulationMix(0.5, 0.25, 0.25)},
            {"constants": PaperConstants(reputation_s=ReputationParams(beta=0.3))},
        ],
    )
    def test_any_field_change_changes_hash(self, change):
        assert config_hash(cfg()) != config_hash(cfg(**change))

    def test_int_float_equivalence(self):
        # 0 == 0.0 makes these configs dataclass-equal, so they must share
        # a cache key (a CLI-parsed int vs a builder's float).
        assert cfg(capacity_sigma=0) == cfg(capacity_sigma=0.0)
        assert config_hash(cfg(capacity_sigma=0)) == config_hash(
            cfg(capacity_sigma=0.0)
        )
        assert config_hash(cfg(t_eval=2)) == config_hash(cfg(t_eval=2.0))

    def test_infinity_fields_hash(self):
        # t_train defaults to inf; both inf and finite values must key.
        assert config_hash(cfg()) != config_hash(cfg(t_train=5.0))

    def test_short_hash_prefix(self):
        c = cfg()
        assert config_hash(c).startswith(short_hash(c))
        assert short_hash("abcdef" * 12, n=4) == "abcd"


class TestCanonicalSerialization:
    def test_dict_covers_nested_dataclasses(self):
        d = canonical_config_dict(cfg())
        assert d["mix"] == {"rational": 1.0, "altruistic": 0.0, "irrational": 0.0}
        assert d["constants"]["reputation_s"]["g"] == 19.0

    def test_strict_json(self):
        # inf is sentinel-encoded, so the payload parses as strict JSON.
        text = canonical_json(canonical_config_dict(cfg()))
        parsed = json.loads(text)
        assert parsed["t_train"] == "__inf__"

    def test_revive_floats_roundtrip(self):
        d = revive_floats(canonical_config_dict(cfg()))
        assert d["t_train"] == float("inf")
        assert d["t_eval"] == 1.0

    def test_key_order_irrelevant(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_unserializable_rejected(self):
        with pytest.raises(TypeError):
            canonical_json(canonical_config_dict(object()))  # type: ignore[arg-type]


class TestConfigFromDict:
    def test_roundtrip_preserves_hash(self):
        original = cfg(
            seed=7,
            scheme="karma",
            mix=PopulationMix(rational=0.5, altruistic=0.3, irrational=0.2),
        )
        revived = config_from_dict(canonical_config_dict(original))
        assert revived == original
        assert config_hash(revived) == config_hash(original)

    def test_roundtrip_with_float_sentinels(self):
        original = cfg(t_train=float("inf"))
        revived = config_from_dict(canonical_config_dict(original))
        assert revived.t_train == float("inf")
        assert config_hash(revived) == config_hash(original)

    def test_nested_dataclasses_revive_as_real_objects(self):
        revived = config_from_dict(canonical_config_dict(cfg()))
        assert isinstance(revived.mix, PopulationMix)
        assert isinstance(revived.constants, PaperConstants)
        assert isinstance(revived.constants.reputation_s, ReputationParams)

    def test_missing_keys_fall_back_to_defaults(self):
        d = canonical_config_dict(cfg(seed=9))
        d.pop("scheme")
        revived = config_from_dict(d)
        assert revived.scheme == cfg().scheme
        assert revived.seed == 9

    def test_unknown_keys_rejected(self):
        d = canonical_config_dict(cfg())
        d["not_a_field"] = 1
        with pytest.raises(ValueError, match="unknown config fields"):
            config_from_dict(d)

    @pytest.mark.parametrize(
        "path", ["mix.bogus", "constants.service.edit_threshold_typo", "scale"]
    )
    def test_unknown_keys_rejected_at_every_depth(self, path):
        d = canonical_config_dict(cfg())
        *parents, leaf = path.split(".")
        node = d
        for key in parents:
            node = node[key]
        node[leaf] = {"spars": True} if leaf == "scale" else 1
        with pytest.raises(ValueError, match=re.escape(path)):
            config_from_dict(d)

    def test_mistyped_values_rejected(self):
        d = canonical_config_dict(cfg())
        d["n_agents"] = 20.0  # hashes as 20, but cannot run
        with pytest.raises(TypeError, match="n_agents"):
            config_from_dict(d)

    def test_non_dict_rejected(self):
        with pytest.raises(TypeError):
            config_from_dict([1, 2, 3])  # type: ignore[arg-type]
