"""Deterministic fault injection for the compute substrate.

The paper argues decentralized collaboration must survive unreliable
participants; this module holds our own infrastructure to the same
standard.  A :class:`FaultPlan` is a seeded, replayable schedule of
failures at **named failure points** threaded through the store, the
lease-based dispatcher and sweep workers (a service compute unit fails
through its sweep's ``sweep/compute``).  The same plan against the same
workload fires the same faults in the same order — chaos tests are
ordinary deterministic tests.

Failure-point registry (the ``site`` names call sites use):

========================  ====================================================
site                      where it fires
========================  ====================================================
``store/put``             before a run payload is written
``store/index-append``    before a line is appended to ``index.jsonl``
                          (supports ``torn-write``)
``store/refresh``         at the top of ``RunStore.refresh()``
``snapshot/save``         before a mid-run resume snapshot is persisted
                          (supports ``torn-write``)
``snapshot/load``         before a resume snapshot is read back
``lease/claim``           before a lease claim attempt
``lease/renew``           before a lease renewal (supports ``lease-loss``)
``lease/release``         before a lease release
``sweep/compute``         per config, before a sweep worker executes it
                          (``key`` = the config hash — use ``match`` to
                          poison one config)
``sweep/step``            per protocol step inside a resumable task
========================  ====================================================

Actions:

* ``error``      — raise :class:`InjectedFault` (an ``OSError``, so retry
  policies treat it like real store IO trouble);
* ``crash``      — ``os._exit(137)``: the process dies as abruptly as a
  SIGKILL, no cleanup, no ``atexit``, leases left dangling;
* ``torn-write`` — the call site writes only ``fraction`` of the payload
  bytes and then raises :class:`InjectedFault` (cooperative: sites that
  do not support partial writes treat it as ``error``);
* ``delay``      — sleep ``delay_s`` seconds, then continue;
* ``lease-loss`` — cooperative: the lease call site raises its own
  ``LeaseLost`` as if another worker had reclaimed the lease.

Activation is ambient: either the :func:`inject_faults` context manager
(tests, the ``repro chaos`` CLI) or the ``REPRO_FAULT_PLAN`` environment
variable naming a plan JSON file — the latter is how subprocess sweep
workers and CI chaos smokes inherit a schedule.  Occurrence counters are
per-process; a plan file shared by several workers gives each worker its
own deterministic view of the schedule.
"""

from __future__ import annotations

import fnmatch
import json
import os
import random
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator

from ..obs import get_tracer

__all__ = [
    "FAULT_PLAN_ENV",
    "FAULT_PLAN_VERSION",
    "ACTIONS",
    "InjectedFault",
    "FaultSpec",
    "FaultPlan",
    "active_plan",
    "install_plan",
    "clear_plan",
    "inject_faults",
    "fault_point",
    "torn_bytes",
]

FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"
FAULT_PLAN_VERSION = 1

#: Exit status used by the ``crash`` action — the conventional code for a
#: SIGKILL'd process, so supervisors cannot tell injected crashes apart
#: from real ones.
CRASH_EXIT_CODE = 137

ACTIONS = ("error", "crash", "torn-write", "delay", "lease-loss")


class InjectedFault(OSError):
    """A failure manufactured by an active :class:`FaultPlan`.

    Subclasses ``OSError`` deliberately: retry policies and store error
    handling must treat injected IO failures exactly like real ones.
    """

    def __init__(self, site: str, spec_index: int = -1, message: str = ""):
        super().__init__(
            message or f"injected fault at {site!r} (plan spec #{spec_index})"
        )
        self.site = site
        self.spec_index = spec_index

    def __reduce__(self):
        # OSError.__reduce__ rebuilds from self.args, which do not match
        # this signature; spell out the real constructor arguments so the
        # exception survives the process-pool pickle round trip.
        return (type(self), (self.site, self.spec_index, str(self)))


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled failure: *where*, *what*, and *which occurrences*.

    ``site`` is an exact failure-point name or an ``fnmatch`` pattern
    (``"lease/*"``).  ``at`` lists 1-based eligible-hit numbers (``None``
    = every hit).  ``match`` further restricts firing to hits whose
    ``key`` contains the substring — e.g. one config hash, to poison a
    single config.  ``p`` gates each firing through the plan's seeded
    RNG (still deterministic for a fixed call order).
    """

    site: str
    action: str = "error"
    at: tuple[int, ...] | None = None
    match: str | None = None
    p: float | None = None
    delay_s: float = 0.0
    fraction: float = 0.5
    max_fires: int | None = None

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; expected one of {ACTIONS}"
            )
        if self.at is not None:
            object.__setattr__(self, "at", tuple(int(n) for n in self.at))
            if any(n < 1 for n in self.at):
                raise ValueError("'at' entries are 1-based hit numbers (>= 1)")
        if self.p is not None and not 0.0 <= self.p <= 1.0:
            raise ValueError("p must be in [0, 1]")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        if self.delay_s < 0.0:
            raise ValueError("delay_s must be >= 0")

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"site": self.site, "action": self.action}
        if self.at is not None:
            out["at"] = list(self.at)
        if self.match is not None:
            out["match"] = self.match
        if self.p is not None:
            out["p"] = self.p
        if self.action == "delay":
            out["delay_s"] = self.delay_s
        if self.action == "torn-write":
            out["fraction"] = self.fraction
        if self.max_fires is not None:
            out["max_fires"] = self.max_fires
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultSpec":
        known = {
            "site", "action", "at", "match", "p",
            "delay_s", "fraction", "max_fires",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown FaultSpec fields: {sorted(unknown)}")
        kwargs = dict(data)
        if "at" in kwargs and kwargs["at"] is not None:
            at = kwargs["at"]
            if isinstance(at, int):  # hand-written plans: "at": 3
                at = (at,)
            kwargs["at"] = tuple(at)
        return cls(**kwargs)


class FaultPlan:
    """A seeded, replayable schedule of :class:`FaultSpec` firings.

    Thread-safe; per-spec hit/fire counters make occurrence selection
    (``at=[3]`` = "the third time this site is hit") deterministic for a
    fixed sequence of :func:`fault_point` calls.  ``fired`` records every
    firing (site, key, action, spec index, hit number) — quarantine
    artifacts embed it as fault context.
    """

    def __init__(self, specs: Iterable[FaultSpec] = (), seed: int = 0):
        self.specs: tuple[FaultSpec, ...] = tuple(specs)
        self.seed = int(seed)
        self._rng = random.Random(self.seed)
        self._hits = [0] * len(self.specs)
        self._fires = [0] * len(self.specs)
        self.fired: list[dict[str, Any]] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": FAULT_PLAN_VERSION,
            "seed": self.seed,
            "faults": [s.to_dict() for s in self.specs],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultPlan":
        version = data.get("schema_version", FAULT_PLAN_VERSION)
        if version != FAULT_PLAN_VERSION:
            raise ValueError(f"unsupported fault-plan schema_version {version!r}")
        specs = [FaultSpec.from_dict(d) for d in data.get("faults", [])]
        return cls(specs, seed=data.get("seed", 0))

    @classmethod
    def from_json(cls, path: str | os.PathLike) -> "FaultPlan":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def save(self, path: str | os.PathLike) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8"
        )

    @classmethod
    def parse(cls, text_or_path: str) -> "FaultPlan":
        """CLI convenience: inline JSON (starts with ``{``) or a file path."""
        text = text_or_path.strip()
        if text.startswith("{"):
            return cls.from_dict(json.loads(text))
        return cls.from_json(text_or_path)

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def check(self, site: str, key: str = "") -> FaultSpec | None:
        """Count this hit against every matching spec; return the first
        spec that fires (or ``None``).  Specs later in the plan still see
        the hit even when an earlier spec fires, so schedules compose
        predictably."""
        fired_spec: FaultSpec | None = None
        fired_index = -1
        fired_hit = 0
        with self._lock:
            for i, spec in enumerate(self.specs):
                if not fnmatch.fnmatchcase(site, spec.site):
                    continue
                if spec.match is not None and spec.match not in key:
                    continue
                self._hits[i] += 1
                if fired_spec is not None:
                    continue
                hit = self._hits[i]
                if spec.at is not None and hit not in spec.at:
                    continue
                if spec.max_fires is not None and self._fires[i] >= spec.max_fires:
                    continue
                if spec.p is not None and self._rng.random() >= spec.p:
                    continue
                self._fires[i] += 1
                fired_spec, fired_index, fired_hit = spec, i, hit
            if fired_spec is not None:
                self.fired.append(
                    {
                        "site": site,
                        "key": key,
                        "action": fired_spec.action,
                        "spec": fired_index,
                        "hit": fired_hit,
                    }
                )
        return fired_spec

    def fire_counts(self) -> dict[int, int]:
        """Spec index -> number of times it fired (diagnostics)."""
        with self._lock:
            return {i: n for i, n in enumerate(self._fires) if n}


# ----------------------------------------------------------------------
# Ambient activation
# ----------------------------------------------------------------------
_active: FaultPlan | None = None
# (path, plan) loaded from REPRO_FAULT_PLAN — cached so occurrence
# counters persist across fault_point calls within one process.
_env_cache: tuple[str, FaultPlan] | None = None


def install_plan(plan: FaultPlan | None) -> None:
    """Install ``plan`` as the process-ambient fault plan (``None`` clears)."""
    global _active
    _active = plan


def clear_plan() -> None:
    """Deactivate any ambient plan (including a cached env-var plan)."""
    global _active, _env_cache
    _active = None
    _env_cache = None


def active_plan() -> FaultPlan | None:
    """The ambient plan: an installed one, else ``REPRO_FAULT_PLAN``.

    The env var — a plan file path or inline JSON — is how subprocess
    workers inherit a schedule; the plan is loaded once per process and
    its counters persist.  A set-but-unloadable plan raises: a chaos
    run silently executing without its faults would report vacuous
    success.
    """
    if _active is not None:
        return _active
    value = os.environ.get(FAULT_PLAN_ENV)
    if not value:
        return None
    global _env_cache
    if _env_cache is None or _env_cache[0] != value:
        _env_cache = (value, FaultPlan.parse(value))
    return _env_cache[1]


@contextmanager
def inject_faults(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Activate ``plan`` for the dynamic extent of the block (re-entrant:
    the previous ambient plan is restored on exit)."""
    global _active
    previous = _active
    _active = plan
    try:
        yield plan
    finally:
        _active = previous


# ----------------------------------------------------------------------
# The failure point
# ----------------------------------------------------------------------
def fault_point(site: str, key: str = "") -> FaultSpec | None:
    """Declare a named failure point; the ambient plan decides its fate.

    With no active plan this is one global read and a ``None`` check —
    cheap enough for store IO paths.  Actions ``error``/``crash``/
    ``delay`` are handled here (raise / die / sleep); ``torn-write`` and
    ``lease-loss`` are returned to the call site, which cooperates (or
    treats an unexpected spec as ``error`` via :func:`raise_for_spec`).
    """
    plan = active_plan()
    if plan is None:
        return None
    spec = plan.check(site, key)
    if spec is None:
        return None
    _count_fault(site, spec.action)
    if spec.action == "delay":
        time.sleep(spec.delay_s)
        return None
    if spec.action == "crash":
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(CRASH_EXIT_CODE)
    if spec.action == "error":
        raise InjectedFault(site, plan.specs.index(spec))
    return spec


def raise_for_spec(site: str, spec: FaultSpec | None) -> None:
    """For call sites without torn-write/lease-loss support: escalate any
    cooperative spec that reached them to a plain injected error."""
    if spec is not None:
        raise InjectedFault(site, -1, f"injected {spec.action} at {site!r}")


def torn_bytes(spec: FaultSpec, data: bytes) -> bytes:
    """The prefix of ``data`` a torn write leaves on disk."""
    return data[: int(len(data) * spec.fraction)]


def _count_fault(site: str, action: str) -> None:
    tracer = get_tracer()
    if tracer.enabled:
        tracer.metrics.counter(
            "resilience_faults_injected_total",
            "Faults fired by the active FaultPlan",
            site=site,
            action=action,
        ).inc()
