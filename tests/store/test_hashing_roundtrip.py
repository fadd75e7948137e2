"""Property-based round-trip tests for the config hashing layer.

The service's dedup story — duplicate HTTP submissions, in-flight
joining, store cache hits — rests on one invariant::

    config_hash(config_from_dict(canonical_config_dict(cfg))) == config_hash(cfg)

for *every* expressible config, including the awkward corners: nested
dataclasses (constants, mix), float sentinels (inf/-inf/nan), integral
floats that canonicalize to JSON ints, and the optional
``tft_ledger_cap``.  The seeded generator lives in ``tests/sim/testing.py``
(shared with the backend-equivalence suite) and draws hundreds of valid
random configs; each goes through the full wire cycle (canonical dict ->
JSON text -> parsed dict -> revived config), exactly what a config
travels through the HTTP submit path.
"""

import dataclasses
import json
import random

from repro.sim.config import SimulationConfig
from tests.sim.testing import random_config
from repro.store.hashing import (
    canonical_config_dict,
    canonical_json,
    config_from_dict,
    config_hash,
)

N_CONFIGS = 300

_SCHEMES = ("auto", "reputation", "none", "tft", "karma")


def _wire_cycle(cfg: SimulationConfig) -> SimulationConfig:
    """canonical dict -> JSON text -> parsed dict -> revived config."""
    return config_from_dict(json.loads(json.dumps(canonical_config_dict(cfg))))


class TestRoundTripProperty:
    def test_hash_survives_wire_cycle_for_hundreds_of_configs(self):
        rng = random.Random(0xC0FFEE)
        for i in range(N_CONFIGS):
            cfg = random_config(rng)
            revived = _wire_cycle(cfg)
            assert config_hash(revived) == config_hash(cfg), (
                f"config #{i} changed hash across the wire cycle:\n"
                f"{canonical_json(canonical_config_dict(cfg))}\nvs\n"
                f"{canonical_json(canonical_config_dict(revived))}"
            )

    def test_double_cycle_is_stable(self):
        rng = random.Random(1234)
        for _ in range(50):
            cfg = random_config(rng)
            once = _wire_cycle(cfg)
            twice = _wire_cycle(once)
            assert (canonical_json(canonical_config_dict(once))
                    == canonical_json(canonical_config_dict(twice)))

    def test_generator_is_deterministic(self):
        a = [config_hash(random_config(random.Random(7))) for _ in range(3)]
        b = [config_hash(random_config(random.Random(7))) for _ in range(3)]
        assert a == b

    def test_generator_covers_the_awkward_corners(self):
        """The generator must actually hit the cases this file is about."""
        import math

        rng = random.Random(0xC0FFEE)
        configs = [random_config(rng) for _ in range(N_CONFIGS)]
        assert any(math.isinf(c.t_train) for c in configs)
        assert any(math.isnan(c.t_train) for c in configs)
        assert any(
            math.isinf(c.t_train) and c.t_train < 0 for c in configs
        )
        assert any(c.t_eval == int(c.t_eval) for c in configs
                   if not math.isinf(c.t_eval))
        assert any(c.tft_ledger_cap is None for c in configs)
        assert any(c.tft_ledger_cap is not None for c in configs)
        assert len({c.scheme for c in configs}) == len(_SCHEMES)
        assert any(c.mix.irrational > 0 for c in configs)

    def test_every_field_is_exercised_by_the_generator(self):
        """No silently-skipped fields: across the corpus every top-level
        field takes at least two distinct values (booleans included)."""
        rng = random.Random(99)
        corpus = [random_config(rng) for _ in range(100)]
        constant = ("collect_events",)  # storable configs only, by design
        for f in dataclasses.fields(SimulationConfig):
            values = {repr(getattr(c, f.name)) for c in corpus}
            if f.name in constant:
                assert values == {"False"}
            else:
                assert len(values) >= 2, f"generator never varies {f.name}"
