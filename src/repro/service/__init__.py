"""Simulation-as-a-service: an async HTTP job API over the RunStore.

The always-on front-end of the reproduction stack (docs/SERVICE.md).
Clients POST scenario-algebra specs or raw config grids; the service
reduces every submission to config hashes, dedupes against the
content-addressed :class:`~repro.store.RunStore` *and* against work
currently in flight, schedules what remains on a bounded worker pool
through :func:`repro.api.sweep`, and streams per-config
progress over SSE.  Stdlib-only, like the obs layer it reports through.

Modules:

* :mod:`repro.service.schemas` — request validation (scenario specs,
  raw config dicts) into :class:`SubmitSpec`;
* :mod:`repro.service.hub` — per-job SSE event streams with bounded
  replay history;
* :mod:`repro.service.jobs` — the job/compute-unit split, in-flight
  dedup, bounded admission and the worker pool;
* :mod:`repro.service.app` — the asyncio HTTP server and the
  ``repro serve`` entry point.
"""

from .app import ServiceSettings, SimulationService, serve
from .hub import EventHub, JobEvent, sse_encode
from .jobs import Job, JobManager, QueueFull, ServiceClosing
from .schemas import SchemaError, SubmitSpec, parse_submit

__all__ = [
    "ServiceSettings",
    "SimulationService",
    "serve",
    "EventHub",
    "JobEvent",
    "sse_encode",
    "Job",
    "JobManager",
    "QueueFull",
    "ServiceClosing",
    "SchemaError",
    "SubmitSpec",
    "parse_submit",
]
