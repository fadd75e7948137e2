"""Resumable execution of one sweep/dispatch task.

:class:`ResumableTask` runs a batch of configs through the engine's one
protocol loop, :func:`repro.sim.engine._run_protocol`, from the step
count of its latest snapshot, and hooks that loop to (a) persist a
full-state snapshot every ``checkpoint_every`` steps and (b) fire the
``sweep/step`` fault point before every step.  The step sequence, reset
timing and RNG consumption are the engine's own, so results are
bit-identical whether a task ran straight through, was never
checkpointed, or died and resumed three times
(``tests/resilience/test_snapshot.py`` pins all three).  The snapshot
is the whole state, so an event-collecting lane resumes with the events
it had logged.

The boundary-reset invariant that makes resume unambiguous: a snapshot
at ``steps_done == training_steps`` is always taken *after* the
reputation reset due at that count, so restored state never replays or
skips the boundary.
"""

from __future__ import annotations

from ..obs import get_tracer
from ..sim.engine import SimulationResult, _lane_results, _run_protocol
from ..sim.state import build_sim_state
from .faults import fault_point
from .snapshot import SnapshotStore, decode_snapshot, encode_snapshot, snapshot_key

__all__ = ["ResumableTask"]


class ResumableTask:
    """One batch of configs executed with snapshot/resume support.

    ``store_root`` is the run-store root directory (snapshots live in
    its ``checkpoints/`` subdir); subprocess workers receive the path,
    not a RunStore.  With ``store_root=None`` or ``checkpoint_every=0``
    this degenerates to a plain batched run (no snapshot IO at all,
    though an existing snapshot is still honored when a root is given).

    :meth:`run` drives the engine's protocol loop from the restored step
    count, saving a snapshot before every step ``i > start`` with
    ``i % checkpoint_every == 0`` — after the boundary reset, never at
    the resume point itself and never after the last step — and firing
    ``sweep/step`` once per step.  Under an enabled tracer it records
    the engine's ``engine/train``/``engine/eval`` and ``phase/*`` spans
    for the steps it runs.  After :meth:`run`,
    ``resumed``/``resumed_at_step`` report whether a snapshot was used —
    the dispatcher surfaces that in its stats.
    """

    def __init__(
        self,
        configs,
        *,
        checkpoint_every: int = 0,
        store_root: str | None = None,
        key: str | None = None,
    ):
        if not configs:
            raise ValueError("need at least one config")
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        self.configs = list(configs)
        self.checkpoint_every = int(checkpoint_every)
        self.snapshots = (
            SnapshotStore(store_root) if store_root is not None else None
        )
        self.key = key
        self._hashes: list[str] | None = None
        self.resumed = False
        self.resumed_at_step = 0

    def _ensure_key(self) -> None:
        from ..store.hashing import config_hash  # lazy: avoids store<->resilience cycle

        if self._hashes is None:
            self._hashes = [config_hash(c) for c in self.configs]
        if self.key is None:
            self.key = snapshot_key(self._hashes)

    # ------------------------------------------------------------------
    def run(self) -> list[SimulationResult]:
        """Run from the latest snapshot (or step 0); one result per lane."""
        state = None
        start = 0
        if self.snapshots is not None:
            self._ensure_key()
            blob = self.snapshots.load(self.key)
            if blob is not None:
                decoded = decode_snapshot(blob, self._hashes)
                if decoded is not None:
                    state, start = decoded
                    self.resumed = True
                    self.resumed_at_step = start
                    _count_snapshot("resumed")
        if state is None:
            state = build_sim_state(self.configs)
        every = self.checkpoint_every
        snapshots = self.snapshots if every > 0 else None
        fault_key = self.key or ""

        def before_step(i: int) -> None:
            if snapshots is not None and i > start and i % every == 0:
                snapshots.save(self.key, encode_snapshot(state, i, self._hashes))
                _count_snapshot("saved")
            fault_point("sweep/step", key=fault_key)

        results = _lane_results(state, _run_protocol(state, start, before_step))
        if self.snapshots is not None:
            self.snapshots.delete(self.key)
            _count_snapshot("deleted")
        return results


def _count_snapshot(event: str) -> None:
    tracer = get_tracer()
    if tracer.enabled:
        tracer.metrics.counter(
            "resilience_snapshots_total",
            "Resume-snapshot lifecycle events",
            event=event,
        ).inc()
