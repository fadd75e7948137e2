"""Resilience layer: fault injection, checkpoint/resume, retry/quarantine.

The paper's thesis — decentralized collaboration must survive unreliable
participants — applied to our own compute substrate (docs/RESILIENCE.md):

* :mod:`repro.resilience.faults` — seeded, replayable :class:`FaultPlan`
  schedules fired at named failure points threaded through the store,
  the lease dispatcher, sweep workers and service compute units;
* :mod:`repro.resilience.retry` — one deterministic
  :class:`RetryPolicy` shape wrapping store IO, lease operations and
  compute units;
* :mod:`repro.resilience.snapshot` / :mod:`~repro.resilience.runner` —
  mid-run full-state snapshots and the :class:`ResumableTask` that
  resumes a crashed task bit-identically from its latest snapshot;
* :mod:`repro.resilience.quarantine` — the ``errors/<hash>.json``
  artifact schema for configs that exhaust their retry budget.
"""

from .faults import (
    ACTIONS,
    FAULT_PLAN_ENV,
    FAULT_PLAN_VERSION,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    active_plan,
    clear_plan,
    fault_point,
    inject_faults,
    install_plan,
    torn_bytes,
)
from .quarantine import QUARANTINE_SCHEMA_VERSION, build_error_payload
from .retry import DEFAULT_COMPUTE_RETRY, DEFAULT_STORE_RETRY, RetryPolicy
from .runner import ResumableTask
from .snapshot import (
    SNAPSHOT_VERSION,
    SnapshotStore,
    decode_snapshot,
    encode_snapshot,
    snapshot_key,
)

__all__ = [
    "ACTIONS",
    "FAULT_PLAN_ENV",
    "FAULT_PLAN_VERSION",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "active_plan",
    "clear_plan",
    "fault_point",
    "inject_faults",
    "install_plan",
    "torn_bytes",
    "RetryPolicy",
    "DEFAULT_STORE_RETRY",
    "DEFAULT_COMPUTE_RETRY",
    "SNAPSHOT_VERSION",
    "SnapshotStore",
    "snapshot_key",
    "encode_snapshot",
    "decode_snapshot",
    "ResumableTask",
    "QUARANTINE_SCHEMA_VERSION",
    "build_error_payload",
]
