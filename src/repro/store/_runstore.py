"""On-disk, content-addressed store of finished simulation runs.

Layout under the store root::

    index.jsonl             one slim record per stored run (append-only)
    runs/<hash>.json        full payload: record + canonical config dict
    telemetry/<hash>.json   optional per-run telemetry artifact (traced
                            runs only; see :mod:`repro.obs.artifact`)
    grids/<key>.json        published sweep-grid manifests (distributed
                            dispatch; see :mod:`repro.store.dispatch`)
    claims/<key>.lease      live task leases of cooperating sweep
                            workers (managed by the dispatch layer)
    checkpoints/<key>.ckpt  mid-run resume snapshots of in-flight tasks
                            (ephemeral; see :mod:`repro.resilience`)
    errors/<hash>.json      quarantine artifacts of configs that kept
                            failing (traceback + fault context; see
                            docs/RESILIENCE.md)

The index is the fast path — it is loaded once at open and answers
``contains``/``get`` without touching payload files.  Payloads carry the
canonical config dict so ``repro ls`` / ``repro report`` can render runs
without re-hydrating a :class:`SimulationConfig`.

Durability model (pure stdlib, no locking daemon):

* ``put`` writes the payload to a temp file and ``os.replace``s it into
  place, then appends one index line — a crash between the two leaves an
  *orphan* payload which the next open adopts back into the index;
* loading tolerates corruption: malformed JSON lines, records with a
  foreign schema version and index entries whose payload vanished are
  skipped, never fatal.  A sweep interrupted by SIGKILL therefore resumes
  from exactly the set of runs whose payloads hit the disk;
* the store is safe to share between concurrent writer processes: the
  index is append-only (one flushed+fsynced line per ``put``), payload
  temp files carry the writer's pid so two processes putting the same
  hash cannot tear each other's writes, and :meth:`RunStore.refresh`
  folds in index lines appended by other processes since open — the
  substrate the distributed sweep dispatch coordinates over.

Only summary statistics are persisted; per-step event logs
(``SimulationResult.events``) are diagnostics and are dropped on ``put``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from ..resilience.faults import InjectedFault, fault_point, torn_bytes
from ..resilience.quarantine import QUARANTINE_SCHEMA_VERSION
from ..resilience.retry import DEFAULT_STORE_RETRY, RetryPolicy
from ..resilience.snapshot import SnapshotStore
from ..sim.config import SimulationConfig
from ..sim.engine import SimulationResult
from .hashing import CONFIG_SCHEMA_VERSION, canonical_config_dict, config_hash

__all__ = [
    "STORE_SCHEMA_VERSION",
    "GRID_SCHEMA_VERSION",
    "QUARANTINE_SCHEMA_VERSION",
    "StoredRun",
    "GridManifest",
    "RunStore",
]

#: Version of the on-disk record layout (independent of the config-hash
#: schema version; both are embedded in every record).
STORE_SCHEMA_VERSION = 1

#: Version of the sweep-grid manifest layout (``grids/<key>.json``).
GRID_SCHEMA_VERSION = 1

_INDEX_NAME = "index.jsonl"
_RUNS_DIR = "runs"
_TELEMETRY_DIR = "telemetry"
_GRIDS_DIR = "grids"
_ERRORS_DIR = "errors"
_INDEX_FIELDS = (
    "config_hash",
    "schema_version",
    "summary",
    "training_summary",
    "wall_time_s",
    "extras",
)


@dataclass
class StoredRun:
    """One persisted run: everything needed to skip re-executing it."""

    config_hash: str
    summary: dict[str, float]
    training_summary: dict[str, float]
    wall_time_s: float
    extras: dict[str, float] = field(default_factory=dict)
    schema_version: int = STORE_SCHEMA_VERSION
    #: Canonical config dict (present on payload-backed records only).
    config: dict[str, Any] | None = None
    created_at: float | None = None

    @classmethod
    def from_result(cls, result: SimulationResult) -> "StoredRun":
        """Snapshot a finished :class:`SimulationResult` for persistence."""
        return cls(
            config_hash=config_hash(result.config),
            summary=dict(result.summary),
            training_summary=dict(result.training_summary),
            wall_time_s=float(result.wall_time_s),
            extras=dict(result.extras),
            config=canonical_config_dict(result.config),
            created_at=time.time(),
        )

    @classmethod
    def from_record(cls, record: Any) -> "StoredRun | None":
        """Validate a parsed JSON record; ``None`` if it is unusable."""
        if not isinstance(record, dict):
            return None
        if record.get("schema_version") != STORE_SCHEMA_VERSION:
            return None
        if not isinstance(record.get("config_hash"), str):
            return None
        if not all(k in record for k in _INDEX_FIELDS):
            return None
        if not isinstance(record["summary"], dict):
            return None
        if not isinstance(record["training_summary"], dict):
            return None
        if not isinstance(record.get("extras") or {}, dict):
            return None
        try:
            return cls(
                config_hash=record["config_hash"],
                summary=record["summary"],
                training_summary=record["training_summary"],
                wall_time_s=float(record["wall_time_s"]),
                extras=record.get("extras") or {},
                schema_version=int(record["schema_version"]),
                config=record.get("config"),
                created_at=record.get("created_at"),
            )
        except (TypeError, ValueError):
            return None

    def index_record(self) -> dict[str, Any]:
        """The slim dict serialized as this run's ``index.jsonl`` line."""
        return {k: getattr(self, k) for k in _INDEX_FIELDS}

    def payload_record(self) -> dict[str, Any]:
        """The full dict serialized as this run's payload file."""
        rec = self.index_record()
        rec["config"] = self.config
        rec["created_at"] = self.created_at
        return rec

    def to_result(self, config: SimulationConfig) -> SimulationResult:
        """Re-materialize a :class:`SimulationResult` for ``config``.

        Events are never persisted, so they come back as ``None``.
        """
        return SimulationResult(
            config=config,
            summary=dict(self.summary),
            training_summary=dict(self.training_summary),
            wall_time_s=self.wall_time_s,
            events=None,
            extras=dict(self.extras),
        )


@dataclass(frozen=True)
class GridManifest:
    """One published sweep grid: the shared planning input of a drain.

    Cooperating invocations must partition the grid identically for
    their dispatch task keys to line up, so the manifest pins everything
    the partition depends on: the config list (in first-appearance
    order) and the lane width.  See :mod:`repro.store.dispatch`.
    """

    key: str
    configs: tuple[SimulationConfig, ...]
    config_hashes: tuple[str, ...]
    lane_width: int
    created_at: float | None = None


class RunStore:
    """Content-addressed store of :class:`SimulationResult` summaries.

    ``hits``/``misses`` count ``get`` outcomes since the store was opened;
    the experiment runner prints them per experiment.  Example::

        >>> import tempfile
        >>> from repro.sim.config import SimulationConfig
        >>> from repro.sim.engine import run_simulation
        >>> from repro.store import RunStore
        >>> cfg = SimulationConfig(n_agents=8, n_articles=2,
        ...                        founders_per_article=2,
        ...                        training_steps=5, eval_steps=5)
        >>> store = RunStore(tempfile.mkdtemp())
        >>> hash_ = store.put(run_simulation(cfg))
        >>> store.get(cfg) is not None  # served from cache from now on
        True
        >>> store.stats["stored"], store.hits, store.misses
        (1, 1, 0)
    """

    def __init__(
        self,
        root: str | Path,
        recover_orphans: bool = True,
        retry: RetryPolicy | None = DEFAULT_STORE_RETRY,
    ):
        self.root = Path(root)
        self.runs_dir = self.root / _RUNS_DIR
        self.telemetry_dir = self.root / _TELEMETRY_DIR
        self.grids_dir = self.root / _GRIDS_DIR
        self.errors_dir = self.root / _ERRORS_DIR
        self.index_path = self.root / _INDEX_NAME
        self.runs_dir.mkdir(parents=True, exist_ok=True)
        #: Bounded retry wrapping ``put``'s filesystem sequence (payload
        #: write + index append are idempotent, so re-running the whole
        #: sequence after a transient ``OSError`` is always safe).
        #: ``None`` disables retrying.
        self.retry = retry
        self._snapshots: SnapshotStore | None = None
        self._records: dict[str, StoredRun] = {}
        #: Byte offset of the last *complete* index line consumed; the
        #: tail past it (lines appended by other processes, or a torn
        #: final line) is picked up by :meth:`refresh`.
        self._index_pos = 0
        self.hits = 0
        self.misses = 0
        self._load_index()
        if recover_orphans:
            self._recover_orphans()

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def _consume_index_lines(self, data: bytes) -> int:
        """Fold complete ``data`` lines into the records; returns count."""
        n = 0
        for raw in data.splitlines():
            line = raw.strip()
            if not line:
                continue
            try:
                parsed = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn write / corruption: skip, never fatal
            rec = StoredRun.from_record(parsed)
            if rec is not None:
                self._records[rec.config_hash] = rec  # last write wins
                n += 1
        return n

    def _load_index(self) -> None:
        try:
            data = self.index_path.read_bytes()
        except OSError:
            return
        end = data.rfind(b"\n") + 1  # a torn final line stays unconsumed
        self._index_pos = end
        self._consume_index_lines(data[:end])

    def refresh(self) -> int:
        """Fold in index lines appended since open (or the last refresh).

        Failure point ``store/refresh`` fires at the top (an active
        chaos plan can starve readers); real ``OSError`` from the stat
        or read still degrades to "nothing new".

        The cross-process fast path of the distributed sweep dispatch:
        cooperating workers appending to the shared index become visible
        without re-reading the whole file — only the tail past the last
        consumed complete line is parsed, and a torn trailing line is
        left for the next refresh.  Returns the number of records read
        (re-reads of this process's own appends included; last write
        wins, so folding them again is harmless).

        An index *shorter* than the last consumed offset means the file
        was rotated or rewritten out from under us (a compaction, a
        restore from backup); the byte-offset tail would then skip — or
        tear through the middle of — records written after the rewrite,
        so the refresh falls back to a full rescan from byte zero.
        Records already in memory are kept (they were valid when read;
        last write wins on the re-read).
        """
        fault_point("store/refresh")
        try:
            size = self.index_path.stat().st_size
        except OSError:
            return 0
        if size < self._index_pos:
            self._index_pos = 0  # index shrank: rescan from the start
        if size <= self._index_pos:
            return 0
        with self.index_path.open("rb") as fh:
            fh.seek(self._index_pos)
            data = fh.read()
        end = data.rfind(b"\n") + 1
        if end <= 0:
            return 0
        self._index_pos += end
        return self._consume_index_lines(data[:end])

    def _recover_orphans(self) -> None:
        """Adopt payload files whose index line never made it to disk."""
        for path in sorted(self.runs_dir.glob("*.json")):
            h = path.stem
            if h in self._records:
                continue
            rec = self._read_payload(h)
            if rec is not None:
                self._records[h] = rec
                self._append_index(rec)

    def _read_payload(self, config_hash_: str) -> StoredRun | None:
        path = self.runs_dir / f"{config_hash_}.json"
        try:
            parsed = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        rec = StoredRun.from_record(parsed)
        if rec is None or rec.config_hash != config_hash_:
            return None
        return rec

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def _tail_is_torn(self) -> bool:
        """Whether the index ends mid-line (a writer died mid-append)."""
        try:
            with self.index_path.open("rb") as fh:
                fh.seek(0, os.SEEK_END)
                size = fh.tell()
                if size == 0:
                    return False
                fh.seek(size - 1)
                return fh.read(1) != b"\n"
        except OSError:
            return False

    def _append_index(self, rec: StoredRun) -> None:
        """Append one index line (flushed + fsynced).

        Self-healing: a torn tail left by a writer that died mid-append
        is terminated with a newline first, so this record starts on its
        own line instead of fusing with the corpse's fragment (which
        would lose *both* records to the JSON-decode skip).  Failure
        point ``store/index-append`` supports ``torn-write`` — partial
        line bytes hit the disk, then the append raises — which is
        exactly the corruption the healing path and the loader's
        complete-line discipline are tested against.
        """
        spec = fault_point("store/index-append", key=rec.config_hash)
        line = json.dumps(rec.index_record()) + "\n"
        with self.index_path.open("a", encoding="utf-8") as fh:
            if self._tail_is_torn():
                fh.write("\n")
            if spec is not None and spec.action == "torn-write":
                torn = torn_bytes(spec, line.encode("utf-8"))
                fh.write(torn.decode("utf-8", errors="ignore").rstrip("\n"))
                fh.flush()
                os.fsync(fh.fileno())
                raise InjectedFault(
                    "store/index-append", -1, "torn index append"
                )
            fh.write(line)
            fh.flush()
            os.fsync(fh.fileno())

    def put(self, result: SimulationResult) -> str:
        """Persist one finished run; returns its config hash.

        Re-putting an already stored hash overwrites the payload and
        appends a superseding index line (loading keeps the last record
        per hash).  Event-collecting runs are not
        stored (see :meth:`get`); putting one raises to keep cache
        contents and cache keys consistent.
        """
        if result.config.collect_events:
            raise ValueError(
                "refusing to store a collect_events run: event logs are "
                "not persisted, so serving it from cache would change "
                "results"
            )
        rec = StoredRun.from_result(result)
        payload = json.dumps(rec.payload_record())
        final = self.runs_dir / f"{rec.config_hash}.json"
        # The pid keeps concurrent writers of the *same* hash (possible
        # under distributed dispatch after a lease reclaim) from tearing
        # each other's temp file; both replaces land identical bytes.
        tmp = self.runs_dir / f".{rec.config_hash}.{os.getpid()}.tmp"

        def write_once() -> None:
            """One attempt of the idempotent persist sequence; the
            store's retry policy re-runs it whole on ``OSError``."""
            fault_point("store/put", key=rec.config_hash)
            tmp.write_text(payload, encoding="utf-8")
            os.replace(tmp, final)
            # Always append, even for an overwrite: the index is an
            # append-only log and loading takes the last record per hash,
            # so a reopened store agrees with the payload instead of
            # serving the stale line.
            self._append_index(rec)

        if self.retry is not None:
            self.retry.call(write_once, site="store/put")
        else:
            write_once()
        self._records[rec.config_hash] = rec
        return rec.config_hash

    # ------------------------------------------------------------------
    # Telemetry artifacts
    # ------------------------------------------------------------------
    def put_telemetry(
        self, payload: dict[str, Any], config_hash_: str | None = None
    ) -> str:
        """Persist one per-run telemetry artifact; returns its key.

        ``payload`` is a :func:`repro.obs.build_telemetry` document; the
        key is ``config_hash_`` or, when omitted, the payload's own
        ``config_hash`` — the same content hash the run record uses, so
        results and telemetry of a traced run are retrievable together.
        Telemetry lives beside the index (``telemetry/<hash>.json``,
        atomic replace, last write wins) but is *diagnostic*: it never
        affects ``get``/``contains`` cache decisions, and re-tracing a
        cached config simply refreshes its artifact.
        """
        from ..obs.artifact import validate_telemetry

        key = config_hash_ or payload.get("config_hash")
        if not isinstance(key, str) or not key:
            raise ValueError("telemetry payload carries no config hash key")
        if validate_telemetry(payload) is None:
            raise ValueError("not a valid telemetry artifact payload")
        self.telemetry_dir.mkdir(parents=True, exist_ok=True)
        final = self.telemetry_dir / f"{key}.json"
        tmp = self.telemetry_dir / f".{key}.{os.getpid()}.tmp"
        tmp.write_text(json.dumps(payload), encoding="utf-8")
        os.replace(tmp, final)
        return key

    # ------------------------------------------------------------------
    # Quarantine artifacts (resilience layer)
    # ------------------------------------------------------------------
    def put_error(self, payload: dict[str, Any]) -> str:
        """Persist one quarantine artifact; returns its config hash.

        ``payload`` comes from
        :func:`repro.resilience.quarantine.build_error_payload` —
        traceback, attempt count and the fault context active when the
        config kept failing.  Artifacts live at ``errors/<hash>.json``
        (atomic replace, last write wins) and are *advisory*: they never
        affect ``get``/``contains``, but the dispatch drain treats a
        quarantined config as settled so cooperating workers stop
        waiting for a result that will never land.
        """
        key = payload.get("config_hash")
        if not isinstance(key, str) or not key:
            raise ValueError("quarantine payload carries no config hash")
        if payload.get("schema_version") != QUARANTINE_SCHEMA_VERSION:
            raise ValueError("not a valid quarantine artifact payload")
        self.errors_dir.mkdir(parents=True, exist_ok=True)
        final = self.errors_dir / f"{key}.json"
        tmp = self.errors_dir / f".{key}.{os.getpid()}.tmp"
        tmp.write_text(json.dumps(payload), encoding="utf-8")
        os.replace(tmp, final)
        return key

    def get_error(self, config: SimulationConfig | str) -> dict[str, Any] | None:
        """Quarantine artifact for a config (or hash), or ``None``.

        Corruption-tolerant like every other artifact read: unreadable
        or foreign-version files read as missing, never fatal.
        """
        key = config if isinstance(config, str) else config_hash(config)
        path = self.errors_dir / f"{key}.json"
        try:
            parsed = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(parsed, dict):
            return None
        if parsed.get("schema_version") != QUARANTINE_SCHEMA_VERSION:
            return None
        return parsed

    def has_error(self, config_hash_: str) -> bool:
        """Whether a quarantine artifact exists for this hash (cheap
        existence check — the dispatch drain polls it per missing
        config, so no JSON parse here)."""
        return (self.errors_dir / f"{config_hash_}.json").is_file()

    def error_hashes(self) -> list[str]:
        """Config hashes with a quarantine artifact (sorted)."""
        if not self.errors_dir.is_dir():
            return []
        return sorted(
            p.stem for p in self.errors_dir.glob("*.json")
            if not p.stem.startswith(".")
        )

    def clear_error(self, config_hash_: str) -> bool:
        """Drop one quarantine artifact (a re-run may now land normally);
        returns whether one existed."""
        try:
            (self.errors_dir / f"{config_hash_}.json").unlink()
            return True
        except FileNotFoundError:
            return False

    # ------------------------------------------------------------------
    # Mid-run resume snapshots (resilience layer)
    # ------------------------------------------------------------------
    @property
    def snapshots(self) -> SnapshotStore:
        """The store's ``checkpoints/`` snapshot family (created lazily)."""
        if self._snapshots is None:
            self._snapshots = SnapshotStore(self.root)
        return self._snapshots

    def put_snapshot(self, key: str, blob: bytes) -> None:
        """Persist a mid-run resume snapshot under ``checkpoints/<key>.ckpt``."""
        self.snapshots.save(key, blob)

    def get_snapshot(self, key: str) -> bytes | None:
        return self.snapshots.load(key)

    def delete_snapshot(self, key: str) -> None:
        self.snapshots.delete(key)

    def snapshot_keys(self) -> list[str]:
        return self.snapshots.keys()

    # ------------------------------------------------------------------
    # Sweep-grid manifests (distributed dispatch)
    # ------------------------------------------------------------------
    def put_grid(
        self, configs: list[SimulationConfig], lane_width: int
    ) -> str:
        """Publish a sweep-grid manifest; returns its key.

        The key is content-derived (config hashes in grid order plus the
        lane width), so republishing the same grid — every cooperating
        ``repro sweep --dispatch=store`` invocation does — overwrites
        one manifest idempotently instead of accumulating copies.
        Event-collecting configs are refused for the same reason ``put``
        refuses their results.
        """
        from .hashing import canonical_config_dict, canonical_json, config_hash

        if lane_width < 1:
            raise ValueError("lane_width must be >= 1")
        for cfg in configs:
            if cfg.collect_events:
                raise ValueError(
                    "refusing to publish a collect_events config in a grid "
                    "manifest: its results cannot be shared through the store"
                )
        hashes = [config_hash(c) for c in configs]
        key_doc = {
            "schema_version": GRID_SCHEMA_VERSION,
            "config_hashes": hashes,
            "lane_width": int(lane_width),
        }
        key = hashlib.sha256(canonical_json(key_doc).encode("utf-8")).hexdigest()
        payload = {
            "schema_version": GRID_SCHEMA_VERSION,
            "config_schema_version": CONFIG_SCHEMA_VERSION,
            "key": key,
            "lane_width": int(lane_width),
            "created_at": time.time(),
            "config_hashes": hashes,
            "configs": [canonical_config_dict(c) for c in configs],
        }
        self.grids_dir.mkdir(parents=True, exist_ok=True)
        final = self.grids_dir / f"{key}.json"
        tmp = self.grids_dir / f".{key}.{os.getpid()}.tmp"
        tmp.write_text(json.dumps(payload), encoding="utf-8")
        os.replace(tmp, final)
        return key

    def get_grid(self, key: str) -> GridManifest | None:
        """A published grid manifest with revived configs, or ``None``.

        Follows the store's tolerance rules: unreadable files, foreign
        schema versions (manifest *or* config canonicalization) and
        configs that no longer revive read as missing, never fatal.
        """
        from .hashing import config_from_dict

        path = self.grids_dir / f"{key}.json"
        try:
            parsed = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(parsed, dict):
            return None
        if parsed.get("schema_version") != GRID_SCHEMA_VERSION:
            return None
        if parsed.get("config_schema_version") != CONFIG_SCHEMA_VERSION:
            return None
        raw_configs = parsed.get("configs")
        raw_hashes = parsed.get("config_hashes")
        if not isinstance(raw_configs, list) or not isinstance(raw_hashes, list):
            return None
        if len(raw_configs) != len(raw_hashes):
            return None
        try:
            configs = tuple(config_from_dict(c) for c in raw_configs)
            lane_width = int(parsed["lane_width"])
        except (TypeError, ValueError, KeyError):
            return None
        return GridManifest(
            key=key,
            configs=configs,
            config_hashes=tuple(str(h) for h in raw_hashes),
            lane_width=lane_width,
            created_at=parsed.get("created_at"),
        )

    def grid_keys(self) -> list[str]:
        """Keys of every published grid manifest (sorted)."""
        if not self.grids_dir.is_dir():
            return []
        return sorted(
            p.stem for p in self.grids_dir.glob("*.json")
            if not p.stem.startswith(".")
        )

    def get_telemetry(
        self, config: SimulationConfig | str
    ) -> dict[str, Any] | None:
        """Stored telemetry artifact for a config (or hash), or ``None``.

        Follows the store's corruption-tolerance rules: unreadable files
        and foreign schema versions read as missing, never fatal.
        """
        from ..obs.artifact import validate_telemetry

        key = config if isinstance(config, str) else config_hash(config)
        path = self.telemetry_dir / f"{key}.json"
        try:
            parsed = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        return validate_telemetry(parsed)

    def telemetry_hashes(self) -> list[str]:
        """Config hashes with a stored telemetry artifact (sorted)."""
        if not self.telemetry_dir.is_dir():
            return []
        return sorted(
            p.stem for p in self.telemetry_dir.glob("*.json")
            if not p.stem.startswith(".")
        )

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def contains(self, config: SimulationConfig) -> bool:
        """Whether a result for ``config`` is stored (also ``in``)."""
        return config_hash(config) in self._records

    __contains__ = contains

    def contains_hash(self, config_hash_: str) -> bool:
        """Whether a record with this content hash is loaded.

        Pure membership — no hit/miss accounting — because the dispatch
        layer polls it while waiting on other workers and would skew the
        cache counters otherwise.  Pair with :meth:`refresh` to observe
        records other processes append.
        """
        return config_hash_ in self._records

    def __len__(self) -> int:
        return len(self._records)

    def get(self, config: SimulationConfig) -> SimulationResult | None:
        """Cached result for ``config``, or ``None`` (counted as a miss).

        Configs with ``collect_events=True`` are never served from cache:
        the store persists summaries only, so a cached answer would drop
        the event log the caller explicitly asked for.
        """
        if config.collect_events:
            self.misses += 1
            return None
        rec = self._records.get(config_hash(config))
        if rec is None:
            self.misses += 1
            return None
        self.hits += 1
        return rec.to_result(config)

    def get_record(self, config_hash_: str) -> StoredRun | None:
        """Payload-backed record (with config dict) for one hash."""
        rec = self._records.get(config_hash_)
        if rec is None:
            return None
        if rec.config is not None:
            return rec
        full = self._read_payload(config_hash_)
        if full is not None:
            self._records[config_hash_] = full
            return full
        return rec  # index-only record: payload lost, summary still usable

    def records(self) -> list[StoredRun]:
        """All stored runs, payload-backed where possible, oldest first."""
        out = [self.get_record(h) for h in self._records]
        recs = [r for r in out if r is not None]
        recs.sort(key=lambda r: (r.created_at or 0.0, r.config_hash))
        return recs

    def query(self, **filters: Any) -> list[StoredRun]:
        """Stored runs whose config matches every filter.

        Keys are config field names; dotted paths reach nested dataclass
        fields (``mix.rational``).  Records without a config payload never
        match.
        """
        canon_filters = {k: _canon_scalar(v) for k, v in filters.items()}

        def matches(rec: StoredRun) -> bool:
            """Whether one record's config satisfies every filter."""
            if rec.config is None:
                return False
            for dotted, want in canon_filters.items():
                node: Any = rec.config
                for part in dotted.split("."):
                    if not isinstance(node, dict) or part not in node:
                        return False
                    node = node[part]
                if node != want:
                    return False
            return True

        return [r for r in self.records() if matches(r)]

    def iter_hashes(self) -> Iterator[str]:
        """Iterate over the stored config hashes (insertion order)."""
        return iter(self._records)

    @property
    def stats(self) -> dict[str, int]:
        """Summary counters: stored records, session hits and misses."""
        return {"stored": len(self._records), "hits": self.hits, "misses": self.misses}


def _canon_scalar(value: Any) -> Any:
    """Apply the float sentinel encoding to a query scalar."""
    from .hashing import _canonical  # same rules as config canonicalization

    return _canonical(value)
