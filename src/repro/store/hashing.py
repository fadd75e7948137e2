"""Canonical config hashing: a :class:`SimulationConfig` is its own cache key.

The store never trusts object identity — two configs built in different
processes (or different releases) must map to the same key iff they
describe the same run.  The recipe:

1. recursively convert the config (and its nested frozen dataclasses:
   :class:`PopulationMix`, :class:`PaperConstants` and friends) into plain
   dicts of JSON scalars;
2. replace the non-JSON floats (``inf``/``-inf``/``nan``) with sentinel
   strings so the serialization stays strict JSON;
3. dump with sorted keys and fixed separators — byte-stable across Python
   versions because ``repr``-based float formatting round-trips;
4. sha256 the bytes together with a schema version, so a future change to
   the serialization rules invalidates old keys instead of aliasing them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from typing import Any, get_type_hints

from ..sim.config import SimulationConfig

__all__ = [
    "CONFIG_SCHEMA_VERSION",
    "canonical_config_dict",
    "canonical_json",
    "config_from_dict",
    "config_hash",
    "revive_floats",
    "short_hash",
]

#: Bump when the canonicalization rules (or config semantics) change in a
#: way that must invalidate previously stored keys.  v2: the ``scale``
#: section joined :class:`~repro.sim.config.SimulationConfig` — every
#: config now canonicalizes with its scale leaves, so pre-scale keys must
#: not alias the (behaviourally identical) defaults.  v3: counter-based
#: draws, sorted voter rows and one per-type metrics path — the same
#: config now gives a different run, so v2 records must not alias it.
#: v4: the ``scale`` section is gone (one ``tft_ledger_cap`` field), so
#: v3 manifests are skipped by the version check, never revived into an
#: unknown-field error.
CONFIG_SCHEMA_VERSION = 4

_INF = "__inf__"
_NEG_INF = "__-inf__"
_NAN = "__nan__"


def _canonical(value: Any) -> Any:
    """Recursively reduce ``value`` to JSON-safe plain data."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        if math.isnan(value):
            return _NAN
        if math.isinf(value):
            return _INF if value > 0 else _NEG_INF
        if value.is_integer():
            # Python compares 0 == 0.0, so dataclass-equal configs can mix
            # int and float in the same field (e.g. a CLI-parsed 0 vs a
            # builder's 0.0).  Serialize integral floats as ints so equal
            # configs always share one key.
            return int(value)
        return value
    raise TypeError(f"cannot canonicalize {type(value).__name__}: {value!r}")


def canonical_config_dict(config: SimulationConfig) -> dict:
    """The config as a nested dict of JSON scalars (floats sentinel-encoded)."""
    return _canonical(config)


def revive_floats(obj: Any) -> Any:
    """Inverse of the float sentinel encoding (for display / round-trips)."""
    if isinstance(obj, dict):
        return {k: revive_floats(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [revive_floats(v) for v in obj]
    if obj == _INF:
        return float("inf")
    if obj == _NEG_INF:
        return float("-inf")
    if obj == _NAN:
        return float("nan")
    return obj


def _revive_dataclass(cls: type, data: dict, path: str = "") -> Any:
    """Rebuild a (possibly nested) config dataclass from plain dicts.

    Unknown keys are rejected at every depth, named by dotted path.
    """
    hints = get_type_hints(cls)
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - names)
    if unknown:
        raise ValueError(
            "unknown config fields: " + ", ".join(path + k for k in unknown)
        )
    kwargs: dict[str, Any] = {}
    for name, value in data.items():
        hint = hints[name]
        if dataclasses.is_dataclass(hint) and isinstance(value, dict):
            value = _revive_dataclass(hint, value, f"{path}{name}.")
        kwargs[name] = value
    return cls(**kwargs)


def config_from_dict(data: dict) -> SimulationConfig:
    """Inverse of :func:`canonical_config_dict`: revive a real config.

    Round-trip stable under the hash: a revived config canonicalizes to
    the same bytes (integral floats come back as ints, which the
    canonicalizer re-normalizes identically), so grid manifests and
    payload config dicts rebuild configs that hash to their stored keys.
    Unknown keys at any depth are rejected (they would silently change
    the run), and missing keys fall back to field defaults.
    """
    if not isinstance(data, dict):
        raise TypeError(f"config dict expected, got {type(data).__name__}")
    return _revive_dataclass(SimulationConfig, revive_floats(data))


def canonical_json(obj: Any) -> str:
    """Deterministic strict-JSON serialization (sorted keys, no whitespace)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def config_hash(config: SimulationConfig) -> str:
    """sha256 hex digest of the config's canonical serialization."""
    envelope = {
        "schema_version": CONFIG_SCHEMA_VERSION,
        "config": canonical_config_dict(config),
    }
    return hashlib.sha256(canonical_json(envelope).encode("utf-8")).hexdigest()


def short_hash(config_or_hash: SimulationConfig | str, n: int = 12) -> str:
    """Abbreviated key for human-facing output (CLI tables, error messages)."""
    if isinstance(config_or_hash, str):
        return config_or_hash[:n]
    return config_hash(config_or_hash)[:n]
