"""Mid-run snapshots: crash a worker, resume bit-identically.

A *snapshot* is the full pickled :class:`repro.sim.state.SimState` of an
in-flight task plus its protocol position, persisted under the store
root at ``checkpoints/<key>.ckpt``.  It carries no random-number state:
every step-path draw is a counter-based hash of the lane key, the
step count and the draw site (:mod:`repro.sim.rng`), and the draw
block cache pickles empty, so a resumed task draws from its
``step_count`` exactly what an uninterrupted run draws — final metrics
are **bit-identical**, which is what lets resumed results share the
content-addressed store with ordinary ones.

It is the only saved form of a run in flight.  It pickles any state —
one lane or many, event logs included — so it restores only into the
exact task it was taken from: written every ``checkpoint_every`` steps,
validated against the task's config set, deleted the moment the task's
results land, and silently discarded if it does not decode.  A state
evaluated under a config it was not trained with would not be that
config's result, so no snapshot restores across configs.

Snapshot keys and dispatch task keys are one recipe,
:func:`snapshot_key` (sha256 over the sorted config hashes;
:mod:`repro.store.dispatch` imports it as ``task_key``), so a worker
that reclaims a dead peer's lease derives the same key from the same
missing-config set and finds the corpse's latest snapshot without any
extra coordination.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import zlib
from pathlib import Path
from typing import Any

from .faults import InjectedFault, fault_point, raise_for_spec, torn_bytes

__all__ = [
    "SNAPSHOT_VERSION",
    "SNAPSHOT_DIR",
    "snapshot_key",
    "encode_snapshot",
    "decode_snapshot",
    "SnapshotStore",
]

#: Bumped whenever the pickled state's layout changes, so an older
#: snapshot decodes to ``None`` (start over) instead of a state the
#: phases cannot step.  2: the state carries ``collusion_active`` and
#: ``events_active``.  3: the behaviour engine is gone; the state
#: carries the pinned actions (``pin_share``, ``pin_edit``) and the
#: per-lane ``rational_counts`` instead.  4: no RNG state (counter-based
#: draws resume from ``step_count``; no ``rational_counts``), sorted voter
#: rows, one per-type metrics array.  5: the tft scheme and its ledger
#: lost their ``sparse`` and ``chunk_size`` attributes.
SNAPSHOT_VERSION = 5
SNAPSHOT_DIR = "checkpoints"
_MAGIC = b"RSNP"


def snapshot_key(config_hashes) -> str:
    """Deterministic key of one task: sha256 over its config hashes.

    Sorted before hashing so the key depends on the task's config *set*,
    not on lane order inside the batch.  Resume snapshots and dispatch
    tasks (as :func:`repro.store.dispatch.task_key`) share it.
    """
    digest = hashlib.sha256()
    for h in sorted(config_hashes):
        digest.update(h.encode("ascii"))
        digest.update(b"\n")
    return digest.hexdigest()


def encode_snapshot(state: Any, steps_done: int, config_hashes: list[str]) -> bytes:
    """Pickle + compress one in-flight task.

    ``steps_done`` counts completed protocol steps, with the invariant
    that the phase-boundary reputation reset due *at* that count has
    already been applied to ``state`` before encoding.
    """
    payload = {
        "version": SNAPSHOT_VERSION,
        "steps_done": int(steps_done),
        "config_hashes": list(config_hashes),
        "state": state,
    }
    return _MAGIC + zlib.compress(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))


def decode_snapshot(blob: bytes, expect_hashes: list[str]) -> tuple[Any, int] | None:
    """``(state, steps_done)`` — or ``None`` for anything unusable.

    Torn, truncated, version-skewed or wrong-config blobs all decode to
    ``None``: a resume snapshot is an optimization, never a correctness
    dependency, so the safe answer to every anomaly is "start from step
    0".  The config-hash list must match **in order** — a permuted
    state holds its lanes in another order, so it is a different
    execution even though it shares the (sorted) snapshot key.
    """
    try:
        if not blob.startswith(_MAGIC):
            return None
        payload = pickle.loads(zlib.decompress(blob[len(_MAGIC):]))
        if payload.get("version") != SNAPSHOT_VERSION:
            return None
        if list(payload.get("config_hashes", [])) != list(expect_hashes):
            return None
        return payload["state"], int(payload["steps_done"])
    except Exception:
        return None


class SnapshotStore:
    """Atomic file persistence for resume snapshots.

    Standalone on purpose: subprocess sweep workers get only the store
    *root path* (a :class:`~repro.store._runstore.RunStore` is too heavy
    to ship across the pool boundary), and :class:`RunStore` exposes
    one of these as its ``snapshots`` property — both sides read and
    write the same ``checkpoints/`` directory.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.dir = self.root / SNAPSHOT_DIR
        self.dir.mkdir(parents=True, exist_ok=True)

    def path(self, key: str) -> Path:
        return self.dir / f"{key}.ckpt"

    def save(self, key: str, blob: bytes) -> None:
        """Crash-safe write: temp file, flush, fsync, atomic rename — a
        fault mid-save can never corrupt the previous good snapshot."""
        spec = fault_point("snapshot/save", key=key)
        if spec is not None and spec.action != "torn-write":
            raise_for_spec("snapshot/save", spec)
        target = self.path(key)
        fd, tmp = tempfile.mkstemp(
            dir=self.dir, prefix=f".{key[:16]}.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                if spec is not None:  # torn write: partial bytes, then die
                    fh.write(torn_bytes(spec, blob))
                    fh.flush()
                    os.fsync(fh.fileno())
                    raise InjectedFault("snapshot/save", -1, "torn snapshot write")
                fh.write(blob)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, target)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)

    def load(self, key: str) -> bytes | None:
        fault_point("snapshot/load", key=key)
        try:
            return self.path(key).read_bytes()
        except FileNotFoundError:
            return None

    def delete(self, key: str) -> None:
        try:
            self.path(key).unlink()
        except FileNotFoundError:
            pass

    def keys(self) -> list[str]:
        return sorted(p.stem for p in self.dir.glob("*.ckpt"))
