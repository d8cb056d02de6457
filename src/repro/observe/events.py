"""Flight recorder: a correlated, structured event log for the pipeline.

Metrics answer "how much", spans answer "how long" — this module answers
"*what happened, in what order*".  An observed run keeps the event
stream twice:

* in memory (:class:`FlightRecorder`): every event of the run, the
  source of the manifest's ``events`` summary and of the payload a pool
  worker ships home to its parent;
* in a **JSONL sink**, the event log the CLI writes beside
  the manifest (``run.json`` -> ``run.events.jsonl``): one JSON object
  per line, written and flushed at emit time so a crashed or
  interrupted run loses at most the line being written.

Every event carries the same stable schema (:data:`SCHEMA_FIELDS`): a
per-log monotonic ``seq``, wall/monotonic timestamps, a ``severity``,
a dotted ``category``, the run-wide ``run_id``, the ``worker`` label,
and a free-form key/value ``data`` payload.  One ``run_id`` correlates
the whole run across processes: pool workers record into their own
in-memory recorder (configured with the parent's ``run_id``) and ship
their entries home inside the observation snapshot
(:mod:`repro.observe.snapshot`), where the parent re-sequences them and
rebases their monotonic clock exactly like worker spans.

Recording is **off by default** with the same O(1)-disabled-path
discipline as :mod:`repro.observe.metrics`: :func:`emit` checks one
module global and returns, so instrumented call sites stay in the
production paths permanently (guarded by
``benchmarks/test_observe_overhead.py``).  The hot per-event loops (CPU
dispatch, the simulation engines) are deliberately *not* instrumented —
events mark monitor-relevant transitions (cache traffic, retries,
faults, stage boundaries), never per-trace-event work.

The JSONL schema is normative in ``docs/OBSERVABILITY.md`` ("Event
log"); ``tools/lint_event_log.py`` validates logs against
:func:`validate_event_dict` and keeps the doc's schema table generated
from :data:`SCHEMA_FIELDS`, so the writer and the spec cannot drift.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Union

from repro.observe import metrics as _metrics

#: Bump when an event field is added/renamed; validators check it.
EVENT_SCHEMA_VERSION = 1

#: Valid severities, least to most severe.
SEVERITIES = ("DEBUG", "INFO", "WARNING", "ERROR")

_SEVERITY_RANK = {name: rank for rank, name in enumerate(SEVERITIES)}

#: The normative event schema: (json key, json type, meaning).  The
#: docs table in ``docs/OBSERVABILITY.md`` is generated from this tuple
#: by ``tools/lint_event_log.py --write-docs``.
SCHEMA_FIELDS = (
    ("v", "int", f"event schema version; always {EVENT_SCHEMA_VERSION}"),
    ("seq", "int",
     "per-log monotonic sequence number (0-based, strictly increasing); "
     "worker events are re-sequenced by the parent at merge time"),
    ("t_wall", "float", "`time.time()` at emit (epoch seconds)"),
    ("t_mono", "float",
     "`time.perf_counter()` at emit; worker values are rebased onto the "
     "parent's clock on merge, like span `start_s`"),
    ("severity", "string", "one of `DEBUG`, `INFO`, `WARNING`, `ERROR`"),
    ("category", "string",
     "dotted lowercase event name, e.g. `cache.hit`, `program.retry`, "
     "`fault.triggered`"),
    ("run_id", "string",
     "12-hex-char id shared by every event of one run, across the parent "
     "and all workers"),
    ("worker", "string",
     'worker label (the program the worker ran); `""` for parent-process '
     "events"),
    ("data", "object",
     "free-form key/value payload; keys are strings, values JSON scalars"),
)

_REQUIRED_EVENT_KEYS = tuple(name for name, _, _ in SCHEMA_FIELDS)


def rank_severity(severity: str) -> int:
    """Numeric rank of ``severity`` (DEBUG=0 .. ERROR=3)."""
    try:
        return _SEVERITY_RANK[severity]
    except KeyError:
        raise ValueError(
            f"unknown severity {severity!r}; expected one of {SEVERITIES}"
        ) from None


@dataclass
class EventRecord:
    """One structured event (see :data:`SCHEMA_FIELDS`)."""

    seq: int
    t_wall: float
    t_mono: float
    severity: str
    category: str
    run_id: str
    worker: str = ""
    data: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """The plain dict that serializes to one JSONL line."""
        return {
            "v": EVENT_SCHEMA_VERSION,
            "seq": self.seq,
            "t_wall": self.t_wall,
            "t_mono": self.t_mono,
            "severity": self.severity,
            "category": self.category,
            "run_id": self.run_id,
            "worker": self.worker,
            "data": dict(self.data),
        }


def _jsonable(value: object) -> object:
    """Coerce a payload value to a JSON scalar (events must serialize)."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


class FlightRecorder:
    """One run's events in memory, with an optional JSONL sink.

    Thread-safe: emits from the trace writer thread and the scheduler
    interleave under one lock.  Every event is kept (a full run emits a
    few dozen); :attr:`dropped` counts only malformed entries a worker
    shipped.  The sink, when attached, receives every event at emit
    time, flushed per line.
    """

    def __init__(self) -> None:
        self.run_id: str = ""
        self.worker: str = ""
        self.emitted = 0
        self.dropped = 0
        self._entries: List[EventRecord] = []
        self._seq = 0
        self._lock = threading.Lock()
        self._sink = None
        self.sink_path: Optional[str] = None

    # -- configuration ---------------------------------------------------

    def configure(
        self,
        run_id: Optional[str] = None,
        worker: str = "",
        sink_path: Optional[Union[str, Path]] = None,
    ) -> str:
        """(Re)arm the recorder for one run; returns the run id.

        Clears the entries and counters, closes any previous sink, and
        opens ``sink_path`` (line-buffered, truncated, so the log holds
        this run alone) when given.  A fresh ``run_id`` is generated
        when none is passed — workers pass the parent's so the whole
        run correlates.
        """
        with self._lock:
            self._close_sink_locked()
            self.run_id = run_id or uuid.uuid4().hex[:12]
            self.worker = worker
            self.emitted = 0
            self.dropped = 0
            self._seq = 0
            self._entries.clear()
            if sink_path is not None:
                path = Path(sink_path)
                if path.parent != Path(""):
                    path.parent.mkdir(parents=True, exist_ok=True)
                self._sink = open(path, "w", encoding="utf-8", buffering=1)
                self.sink_path = str(path)
            return self.run_id

    def close(self) -> None:
        """Close the sink (the entries stay readable)."""
        with self._lock:
            self._close_sink_locked()

    def _close_sink_locked(self) -> None:
        if self._sink is not None:
            try:
                self._sink.close()
            except OSError:
                pass
        self._sink = None
        self.sink_path = None

    # -- recording -------------------------------------------------------

    def record(
        self,
        category: str,
        severity: str = "INFO",
        data: Optional[Dict[str, object]] = None,
    ) -> EventRecord:
        """Record one event (and write it to the sink, if attached)."""
        rank_severity(severity)  # validate eagerly, not at read time
        record = EventRecord(
            seq=0,  # assigned under the lock below
            t_wall=time.time(),
            t_mono=time.perf_counter(),
            severity=severity,
            category=category,
            run_id=self.run_id,
            worker=self.worker,
            data={key: _jsonable(value) for key, value in (data or {}).items()},
        )
        self._append(record)
        return record

    def record_imported(
        self,
        entry: Dict[str, object],
        clock_offset: float = 0.0,
        worker: str = "",
    ) -> Optional[EventRecord]:
        """Re-record a worker's shipped event dict into this recorder.

        The event is re-sequenced (the parent's ``seq`` stream stays
        strictly monotonic), its ``t_mono`` is rebased by
        ``clock_offset`` (like span starts), and it is stamped with the
        ``worker`` label unless the entry already carries one.  A
        malformed entry — a worker that died mid-serialization can ship
        a partial snapshot — is counted in :attr:`dropped` and skipped
        rather than poisoning the merge.
        """
        if not isinstance(entry, dict):
            with self._lock:
                self.dropped += 1
            return None
        try:
            record = EventRecord(
                seq=0,
                t_wall=float(entry["t_wall"]),
                t_mono=float(entry["t_mono"]) + clock_offset,
                severity=str(entry["severity"]),
                category=str(entry["category"]),
                run_id=self.run_id,
                worker=str(entry.get("worker") or worker),
                data=dict(entry.get("data") or {}),
            )
            rank_severity(record.severity)
        except (KeyError, TypeError, ValueError):
            with self._lock:
                self.dropped += 1
            return None
        self._append(record)
        return record

    def _append(self, record: EventRecord) -> None:
        with self._lock:
            record.seq = self._seq
            self._seq += 1
            self.emitted += 1
            self._entries.append(record)
            if self._sink is not None:
                try:
                    self._sink.write(
                        json.dumps(record.to_dict(), sort_keys=True,
                                   separators=(",", ":")) + "\n"
                    )
                except OSError:
                    # A full disk must not take the run down with it;
                    # the entries still feed the manifest's summary.
                    self._close_sink_locked()

    # -- reading ---------------------------------------------------------

    def entries(self) -> List[EventRecord]:
        """The recorded events, oldest first."""
        with self._lock:
            return list(self._entries)

    def summary(self) -> Dict[str, object]:
        """The manifest's ``events`` block: counts, never the entries."""
        with self._lock:
            by_severity: Dict[str, int] = {}
            by_category: Dict[str, int] = {}
            for record in self._entries:
                by_severity[record.severity] = by_severity.get(record.severity, 0) + 1
                by_category[record.category] = by_category.get(record.category, 0) + 1
            return {
                "run_id": self.run_id,
                "emitted": self.emitted,
                "dropped": self.dropped,
                "by_severity": dict(sorted(by_severity.items())),
                "by_category": dict(sorted(by_category.items())),
                "log": self.sink_path,
            }

    # -- cross-process transport (snapshot payloads) ---------------------

    def dump_state(self) -> Dict[str, object]:
        """Picklable payload for :func:`repro.observe.snapshot.dump_snapshot`."""
        with self._lock:
            return {
                "run_id": self.run_id,
                "worker": self.worker,
                "emitted": self.emitted,
                "dropped": self.dropped,
                "entries": [record.to_dict() for record in self._entries],
            }

    def merge_state(
        self,
        state: Dict[str, object],
        clock_offset: float = 0.0,
        worker: str = "",
    ) -> int:
        """Fold a :meth:`dump_state` payload in; returns entries merged.

        Tolerates partial payloads (missing keys, malformed entries):
        whatever survives is merged, the rest is counted as dropped —
        a worker that died mid-task must not lose the parent its log.
        """
        if not isinstance(state, dict):
            return 0
        merged = 0
        worker = str(state.get("worker") or worker)
        for entry in state.get("entries") or []:
            if self.record_imported(entry, clock_offset, worker) is not None:
                merged += 1
        dropped = state.get("dropped")
        if isinstance(dropped, int) and dropped > 0:
            with self._lock:
                self.dropped += dropped
        return merged

    def reset(self) -> None:
        """Clear entries and counters; keep run id, worker, and sink."""
        with self._lock:
            self.emitted = 0
            self.dropped = 0
            self._seq = 0
            self._entries.clear()


# ---------------------------------------------------------------------------
# Module-level switch + singleton (mirrors observe.metrics)
# ---------------------------------------------------------------------------

_ENABLED = False
_RECORDER = FlightRecorder()


def events_enabled() -> bool:
    """Whether event recording is on (see :func:`enable_events`)."""
    return _ENABLED


def enable_events(
    run_id: Optional[str] = None,
    worker: str = "",
    sink_path: Optional[Union[str, Path]] = None,
) -> str:
    """Turn event recording on for this process; returns the run id.

    ``run_id=None`` generates a fresh one (the parent); workers pass the
    parent's.  ``sink_path`` attaches the JSONL log, truncated first.
    """
    global _ENABLED
    run_id = _RECORDER.configure(run_id=run_id, worker=worker,
                                 sink_path=sink_path)
    _ENABLED = True
    return run_id


def disable_events() -> None:
    """Turn event recording off; closes the sink."""
    global _ENABLED
    _ENABLED = False
    _RECORDER.close()


def get_recorder() -> FlightRecorder:
    """The process-wide flight recorder."""
    return _RECORDER


def current_run_id() -> str:
    """The active run id (``""`` while disabled and never enabled)."""
    return _RECORDER.run_id


def emit(category: str, severity: str = "INFO", **data: object) -> None:
    """Record one event; no-op (one global check) while disabled."""
    if _ENABLED:
        _RECORDER.record(category, severity, data)


#: The name instrumented layers use via the package: ``observe.emit_event``.
emit_event = emit


def events_summary() -> Optional[Dict[str, object]]:
    """The manifest ``events`` block, or ``None`` while disabled."""
    if not _ENABLED:
        return None
    return _RECORDER.summary()


def dump_events_state() -> Optional[Dict[str, object]]:
    """Snapshot transport payload, or ``None`` while disabled."""
    if not _ENABLED:
        return None
    return _RECORDER.dump_state()


def merge_events_state(
    state: Optional[Dict[str, object]],
    clock_offset: float = 0.0,
    worker: str = "",
) -> int:
    """Fold a worker's shipped event state into this process's recorder."""
    if state is None or not _ENABLED:
        return 0
    return _RECORDER.merge_state(state, clock_offset=clock_offset,
                                 worker=worker)


def _reset_recorder() -> None:
    _RECORDER.reset()


# observe.reset() clears the entries alongside the registry; enablement,
# run id, and the sink are unchanged (like metrics enablement).
_metrics.register_reset_hook(_reset_recorder)


# ---------------------------------------------------------------------------
# Schema validation (shared by the writer's tests and tools/lint_event_log.py)
# ---------------------------------------------------------------------------


def validate_event_dict(data: object, where: str = "event") -> Dict[str, object]:
    """Raise ``ValueError`` unless ``data`` is one schema-valid event.

    Returns the dict on success so callers can chain.  ``where`` names
    the offending line in error messages.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{where}: must be a JSON object, got "
                         f"{type(data).__name__}")
    missing = [key for key in _REQUIRED_EVENT_KEYS if key not in data]
    if missing:
        raise ValueError(f"{where}: missing keys {missing}")
    if data["v"] != EVENT_SCHEMA_VERSION:
        raise ValueError(
            f"{where}: unsupported schema version {data['v']!r} "
            f"(expected {EVENT_SCHEMA_VERSION})"
        )
    if not isinstance(data["seq"], int) or isinstance(data["seq"], bool) \
            or data["seq"] < 0:
        raise ValueError(f"{where}: 'seq' must be an int >= 0")
    for key in ("t_wall", "t_mono"):
        if not isinstance(data[key], (int, float)) or isinstance(data[key], bool):
            raise ValueError(f"{where}: {key!r} must be a number")
    if data["severity"] not in SEVERITIES:
        raise ValueError(
            f"{where}: severity {data['severity']!r} not in {SEVERITIES}"
        )
    if not isinstance(data["category"], str) or not data["category"]:
        raise ValueError(f"{where}: 'category' must be a non-empty string")
    if not isinstance(data["run_id"], str) or not data["run_id"]:
        raise ValueError(f"{where}: 'run_id' must be a non-empty string")
    if not isinstance(data["worker"], str):
        raise ValueError(f"{where}: 'worker' must be a string")
    if not isinstance(data["data"], dict):
        raise ValueError(f"{where}: 'data' must be an object")
    for key in data["data"]:
        if not isinstance(key, str):
            raise ValueError(f"{where}: 'data' keys must be strings")
    return data


def validate_event_log_lines(
    lines: Iterable[str], name: str = "event log",
    allow_multiple_runs: bool = False,
    on_warning: Optional[Callable[[str], None]] = None,
) -> List[Dict[str, object]]:
    """Validate a whole JSONL log; returns the parsed events.

    Enforces per-line schema validity, strictly increasing ``seq``, and
    (unless ``allow_multiple_runs``) a single ``run_id`` across the file.
    A torn final line — the expected artifact of a writer killed
    mid-append — is skipped; pass
    ``on_warning`` to be told about it (the lint tool and the ``events``
    subcommand surface it to the user).
    """
    lines = list(lines)
    events: List[Dict[str, object]] = []
    last_seq = -1
    run_ids = set()
    for index, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        where = f"{name}: line {index + 1}"
        try:
            data = json.loads(line)
        except json.JSONDecodeError:
            if index == len(lines) - 1:
                # Torn final line from an interrupted writer.
                if on_warning is not None:
                    on_warning(
                        f"{where}: skipping torn final line "
                        f"(writer was interrupted mid-append)"
                    )
                continue
            raise ValueError(f"{where}: not valid JSON")
        validate_event_dict(data, where)
        if data["seq"] <= last_seq:
            raise ValueError(
                f"{where}: seq {data['seq']} is not strictly increasing "
                f"(previous {last_seq})"
            )
        last_seq = data["seq"]
        run_ids.add(data["run_id"])
        events.append(data)
    if len(run_ids) > 1 and not allow_multiple_runs:
        raise ValueError(
            f"{name}: {len(run_ids)} distinct run_ids in one log "
            f"({sorted(run_ids)}); expected exactly one"
        )
    return events


def load_event_log(
    path: Union[str, Path], allow_multiple_runs: bool = True,
    on_warning: Optional[Callable[[str], None]] = None,
) -> List[Dict[str, object]]:
    """Read and validate a JSONL event log from disk."""
    path = Path(path)
    return validate_event_log_lines(
        path.read_text(encoding="utf-8").splitlines(),
        name=str(path),
        allow_multiple_runs=allow_multiple_runs,
        on_warning=on_warning,
    )
