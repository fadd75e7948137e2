"""Composable per-step phase kernels over an explicit :class:`SimState`.

The old monolithic ``CollaborationSimulation.step()`` is split into
kernels, each a function of ``(SimState, SimulationConfig)``:

``churn``      joins / leaves / whitewash identity resets
``sybil``      sybil attackers discard identities and rejoin fresh
``act``        observe reputations, pick sharing + edit/vote actions,
               apply the pinned actions (fixed types, online ring members)
``download``   sample requests, settle bandwidth, sharing utilities
``edit_vote``  edit proposals, weighted voting rounds, punishment
``learn``      temporal-difference backups of the rational learners
``record``     per-step metric capture

:func:`step_state` composes them in protocol order (the sybil kernel and
the ring pins are no-ops unless their config knobs are set).

Reputations are computed once per state of the books.  The ledger-backed
schemes return a read-only reputation view memoized under the write
count of the book it reads, and the learn phase's discretized next
states are memoized under the reputation array they came from, where
the next step's act phase finds them again
(:func:`~repro.sim.phases.act.observe_states`).  In a step without
resets, edit eligibility (``edit_vote``) evaluates ``R_S`` after the
sharing booking, ``learn`` evaluates ``R_E`` after the editing booking
and discretizes both, and ``act`` and ``download`` reuse what the
previous step computed.  A churn whitewash, a sybil reset, an edit
punishment or the phase-boundary reset writes the books and so forces
the next reader to recompute.  The memos are derived data: the state
fingerprint never sees them and they pickle empty.

Every kernel is
batched over the lane axis: elementwise work runs once on the flat
``(R * N,)`` slot arrays, and so do the draws — each is a counter-based
hash of the lane's key, the step, the draw site and a lane-local index
(:mod:`repro.sim.rng`), one call per site for every lane.  A lane
therefore draws the same values batched and solo, which is what makes
batched lanes bit-identical to their sequential twins.
"""

from __future__ import annotations

from time import perf_counter

from ...obs import get_tracer
from ..state import SimState
from .act import act_phase
from .adversary import sybil_phase
from .churn import churn_phase
from .download import download_phase
from .edit_vote import edit_vote_phase
from .learn import learn_phase
from .record import record_phase

__all__ = [
    "churn_phase",
    "sybil_phase",
    "act_phase",
    "download_phase",
    "edit_vote_phase",
    "learn_phase",
    "record_phase",
    "step_state",
]


def step_state(state: SimState, temperature, learn: bool = True) -> None:
    """Advance every lane of ``state`` by one simultaneous step.

    ``temperature`` is a scalar (all lanes) or a per-lane ``(R,)`` array
    (mixed-config batches where lanes train/evaluate at different ``T``).

    Telemetry: when the ambient :class:`repro.obs.Tracer` is enabled,
    every kernel is wrapped in a ``phase/<name>`` span (wall time, call
    count, lane/agent dimensions, optional tracemalloc delta).  With the
    default disabled tracer the cost is one attribute check — the plain
    kernel sequence runs untouched (overhead budget enforced by
    ``benchmarks/test_bench_obs.py``).  Tracing never draws, so traced
    and untraced runs are bit-identical.
    """
    tracer = get_tracer()
    if tracer.enabled:
        _step_state_traced(state, temperature, learn, tracer)
    else:
        _step_state_plain(state, temperature, learn)


def _step_state_plain(state: SimState, temperature, learn: bool) -> None:
    """The uninstrumented kernel sequence (the disabled-tracer hot path)."""
    cfg = state.config
    churn_phase(state, cfg)
    sybil_phase(state, cfg)
    act_phase(state, cfg, temperature)
    download_phase(state, cfg)
    edit_vote_phase(state, cfg)
    learn_phase(state, cfg, learn)
    record_phase(state, cfg)
    state.step_count += 1


def _step_state_traced(state: SimState, temperature, learn: bool, tracer) -> None:
    """The same kernel sequence with a per-phase span around each kernel.

    Durations are measured with raw ``perf_counter`` pairs and handed to
    :meth:`Tracer.record` directly — no context-manager machinery in the
    per-step loop.  Memory deltas use the tracer's ``tracemalloc`` hook
    only when memory tracking is on (it costs a tracemalloc query per
    phase, which the enabled-mode overhead budget accounts for).
    """
    cfg = state.config
    dims = {"lanes": state.n_replicates, "agents": state.n_agents}
    record = tracer.record
    mem = tracer._mem_now if tracer.track_memory else None
    m0 = mem() if mem else 0
    t0 = perf_counter()
    for name, kernel, args in (
        ("phase/churn", churn_phase, (state, cfg)),
        ("phase/sybil", sybil_phase, (state, cfg)),
        ("phase/act", act_phase, (state, cfg, temperature)),
        ("phase/download", download_phase, (state, cfg)),
        ("phase/edit_vote", edit_vote_phase, (state, cfg)),
        ("phase/learn", learn_phase, (state, cfg, learn)),
        ("phase/record", record_phase, (state, cfg)),
    ):
        kernel(*args)
        t1 = perf_counter()
        m1 = mem() if mem else 0
        record(name, t1 - t0, attrs=dims, mem_delta=m1 - m0)
        t0, m0 = t1, m1
    state.step_count += 1
