"""Write-ahead run journal: crash-safe intent/completion log per run.

Every journaled run appends newline-delimited JSON records to
``<cache_dir>/runs/<run>.journal.jsonl`` — append-only, flushed per
append, each record carrying a CRC-32 checksum of its own canonical
encoding.  The journal is *write-ahead*:
a ``task.intent`` record is durable before the task's work starts, and
``task.done`` is appended only after the task's results were atomically
published to the store — so after a crash at any instant the journal's
replay partitions tasks into *done* (results verifiably on disk),
*failed*, and *in-flight* (intent without completion; must re-run).

Tasks are keyed by a **task digest** over everything that determines a
task's output: the program's generated source (via the workload cache
key, which embeds a hash of it), the resolved scale, the instrumentation
parameters (page sizes) and the simulation engine.  Two runs with the
same digest for a task would produce bit-identical results, which is
what makes skip-on-resume sound.

Durability policy (``REPRO_JOURNAL_FSYNC``): ``task`` (default) fsyncs
``run.begin`` and ``run.seal``; per-task records are written+flushed
and ride the page cache.  That is durable against any process crash
(the kernel owns the bytes once ``write`` returns) — the regime the
chaos suite certifies.  Against whole-machine power loss a per-task
record may be lost, in which case resume simply re-executes that task —
the store's atomic publishes make re-execution idempotent, and a lost
``task.done`` can never claim work the store did not finish.
``always`` fsyncs every record for power-failure durability;
``never`` fsyncs nothing (tests).

A torn final line — the expected artifact of dying mid-append — is not
an error: replay stops there.  The normative record schema lives in
``docs/RESILIENCE.md`` ("Crash recovery & resume").
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import threading
import zlib
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro import observe
from repro.errors import JournalError, PipelineError
from repro.experiments.pipeline import (
    ExperimentConfig,
    sim_cache_path,
    trace_cache_path,
    _workload_key,
)
from repro.faults import faultpoint
from repro.workloads import WORKLOADS

JOURNAL_VERSION = 1

#: Valid fsync policies; see module docstring.
FSYNC_POLICIES = ("task", "always", "never")

#: Terminal run statuses a seal record may carry.
SEAL_STATUSES = ("complete", "partial", "failed", "interrupted")


def runs_dir(config: ExperimentConfig) -> Path:
    """Where a config's run journals live by default."""
    return config.cache_dir / "runs"


def journal_path(run_id: str, config: ExperimentConfig,
                 override_dir: Optional[Path] = None) -> Path:
    base = Path(override_dir) if override_dir is not None else runs_dir(config)
    return base / f"{run_id}.journal.jsonl"


def _canonical(record: Dict[str, object]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _checksum(record: Dict[str, object]) -> str:
    return format(zlib.crc32(_canonical(record).encode("utf-8")), "08x")


def config_digest(config: ExperimentConfig) -> str:
    """Digest of the run-shaping config fields (for drift warnings)."""
    doc = {
        "programs": list(config.programs),
        "scale": config.scale,
        "page_sizes": list(config.page_sizes),
        "engine": config.engine,
    }
    return hashlib.sha256(_canonical(doc).encode("utf-8")).hexdigest()[:16]


def task_digest(program: str, config: ExperimentConfig) -> str:
    """Digest of everything that determines one program-task's output.

    Covers the generated workload source (via the cache key's embedded
    source hash), resolved scale, page sizes and engine.
    The engine *is* included even though both backends are bit-identical:
    a resumed run that switched engines must say so in its journal, and
    re-verification (not the digest) is what authorizes a skip.
    """
    workload = WORKLOADS.get(program)
    if workload is None:
        raise PipelineError(
            f"unknown program {program!r}; known: {sorted(WORKLOADS)}"
        )
    return _task_digest_cached(
        program, config.scale_of(workload), tuple(config.page_sizes),
        config.engine,
    )


@lru_cache(maxsize=256)
def _task_digest_cached(program: str, scale: int, page_sizes: tuple,
                        engine: str) -> str:
    # Memoized on the resolved scalars: deriving the workload cache key
    # regenerates the program source (~ms), and the journal needs the
    # digest on every intent/done append.  WORKLOADS is static per
    # process, so equal scalars always mean an equal digest.
    workload = WORKLOADS[program]
    doc = {
        "workload": _workload_key(workload, scale),
        "page_sizes": list(page_sizes),
        "engine": engine,
    }
    return hashlib.sha256(_canonical(doc).encode("utf-8")).hexdigest()[:16]


def task_entries(program: str, config: ExperimentConfig) -> List[str]:
    """The store entries a completed task is expected to have published.

    The simulation payload is what the tables consume, so it is the one
    entry resume verification requires; the trace entry is listed for
    forensics but may legitimately be absent (a sim-cache hit never
    reads it).  With caching off a task publishes nothing and can
    never be skipped on resume.
    """
    if not config.use_cache:
        return []
    workload = WORKLOADS.get(program)
    if workload is None:
        raise PipelineError(
            f"unknown program {program!r}; known: {sorted(WORKLOADS)}"
        )
    scale = config.scale_of(workload)
    return [sim_cache_path(workload, scale, config).name]


def optional_entries(program: str, config: ExperimentConfig) -> List[str]:
    """Entries a task may also have published (not required for skip)."""
    if not config.use_cache:
        return []
    workload = WORKLOADS[program]
    scale = config.scale_of(workload)
    return [trace_cache_path(workload, scale, config).name]


class RunJournal:
    """Append-only, checksummed, write-ahead journal for one run."""

    def __init__(self, path: Path, run_id: str,
                 fsync: Optional[str] = None) -> None:
        if fsync is None:
            fsync = os.environ.get("REPRO_JOURNAL_FSYNC", "task")
        if fsync not in FSYNC_POLICIES:
            raise JournalError(
                f"bad fsync policy {fsync!r}; choose from {FSYNC_POLICIES}"
            )
        self.path = Path(path)
        self.run_id = run_id
        self._fsync = fsync
        self._lock = threading.Lock()
        self._sealed = False
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
        except OSError as exc:
            raise JournalError(
                f"cannot open journal {self.path}: {exc}"
            ) from exc

    @property
    def sealed(self) -> bool:
        return self._sealed

    def _append(self, kind: str, durable: bool,
                **fields: object) -> None:
        record: Dict[str, object] = {
            "v": JOURNAL_VERSION,
            "kind": kind,
            "run": self.run_id,
            "t": round(time.time(), 6),
        }
        record.update(fields)
        record["sum"] = _checksum(record)
        with self._lock:
            if self._fh.closed:
                return
            # The faultpoint sits inside the lock, before the write:
            # a crash here loses the record (write-ahead: the work it
            # would have described either re-runs or was already
            # published atomically).
            faultpoint("journal.append", kind=kind,
                       program=fields.get("program"))
            self._fh.write(_canonical(record) + "\n")
            self._fh.flush()
            if self._fsync == "always" or (durable and self._fsync == "task"):
                os.fsync(self._fh.fileno())
        observe.inc("journal.records")
        observe.emit_event("journal.record", "DEBUG", kind=kind,
                           program=fields.get("program"))

    # -- record constructors ---------------------------------------------

    def begin(self, config: ExperimentConfig,
              resumed_from: Optional[str] = None) -> None:
        self._append(
            "run.begin", durable=True,
            config=config_digest(config),
            programs=list(config.programs),
            engine=config.engine,
            resumed=bool(resumed_from),
            pid=os.getpid(),
        )
        observe.emit_event("journal.open", run=self.run_id,
                           path=self.path.name, resumed=bool(resumed_from))

    def task_intent(self, program: str, digest: str,
                    attempt: int = 1) -> None:
        """Durable *before* the attempt's work starts (write-ahead)."""
        self._append("task.intent", durable=False, program=program,
                     task=digest, attempt=attempt)

    def task_done(self, program: str, digest: str,
                  entries: Sequence[str] = (),
                  cached: bool = False) -> None:
        """Appended only after the task's entries were published."""
        self._append("task.done", durable=False, program=program,
                     task=digest, entries=list(entries), cached=cached)

    def task_failed(self, program: str, digest: str, error: str,
                    attempts: int = 1) -> None:
        self._append("task.failed", durable=False, program=program,
                     task=digest, error=error, attempts=attempts)

    # Config-aware wrappers: the pipeline holds a journal but must not
    # import this module (it would cycle through pipeline), so it calls
    # these duck-typed helpers which derive digests/entries themselves.

    def intent_for(self, program: str, config: ExperimentConfig,
                   attempt: int = 1) -> None:
        self.task_intent(program, task_digest(program, config), attempt)

    def done_for(self, program: str, config: ExperimentConfig,
                 cached: bool = False) -> None:
        self.task_done(program, task_digest(program, config),
                       entries=task_entries(program, config), cached=cached)

    def failed_for(self, program: str, config: ExperimentConfig,
                   error: str, attempts: int = 1) -> None:
        self.task_failed(program, task_digest(program, config), error,
                         attempts=attempts)

    def seal(self, status: str, exit_code: Optional[int] = None) -> None:
        """Terminal record; idempotent (the first seal wins)."""
        if self._sealed:
            return
        if status not in SEAL_STATUSES:
            raise JournalError(
                f"bad seal status {status!r}; choose from {SEAL_STATUSES}"
            )
        self._append("run.seal", durable=True, status=status,
                     exit_code=exit_code)
        self._sealed = True
        observe.emit_event("journal.seal", run=self.run_id, status=status)

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


@dataclass
class JournalReplay:
    """The reconstructed state of a prior run's journal."""

    path: Path
    run_id: str = ""
    config: str = ""                  #: config digest from run.begin
    programs: List[str] = field(default_factory=list)
    status: Optional[str] = None      #: seal status, None if unsealed
    exit_code: Optional[int] = None
    torn: bool = False                #: replay stopped at a bad record
    records: int = 0                  #: valid records replayed
    done: Dict[str, Dict[str, object]] = field(default_factory=dict)
    failed: Dict[str, Dict[str, object]] = field(default_factory=dict)
    intents: Dict[str, Dict[str, object]] = field(default_factory=dict)

    @property
    def sealed(self) -> bool:
        return self.status is not None

    def state_of(self, digest: str) -> str:
        """``done`` / ``failed`` / ``in-flight`` / ``unknown``."""
        if digest in self.done:
            return "done"
        if digest in self.failed:
            return "failed"
        if digest in self.intents:
            return "in-flight"
        return "unknown"


def replay_journal(path: Path) -> JournalReplay:
    """Replay a journal into a :class:`JournalReplay`.

    Stops (without error) at the first record that fails to parse or
    checksum — a torn tail from a crash mid-append, or trailing
    corruption; everything after it is conservatively treated as
    never-happened, which only ever causes extra re-execution.  Raises
    :class:`JournalError` if the journal is missing or yields no valid
    records at all.
    """
    path = Path(path)
    replay = JournalReplay(path=path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise JournalError(f"cannot read journal {path}: {exc}") from exc
    for line in lines:
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            replay.torn = True
            break
        if not isinstance(record, dict) or "sum" not in record:
            replay.torn = True
            break
        recorded_sum = record.pop("sum")
        if _checksum(record) != recorded_sum:
            replay.torn = True
            break
        replay.records += 1
        kind = record.get("kind")
        if kind == "run.begin":
            replay.run_id = str(record.get("run", ""))
            replay.config = str(record.get("config", ""))
            replay.programs = list(record.get("programs", []))
        elif kind == "task.intent":
            replay.intents[str(record.get("task"))] = record
        elif kind == "task.done":
            digest = str(record.get("task"))
            replay.done[digest] = record
            replay.failed.pop(digest, None)
        elif kind == "task.failed":
            digest = str(record.get("task"))
            replay.failed[digest] = record
            replay.done.pop(digest, None)
        elif kind == "run.seal":
            replay.status = str(record.get("status"))
            replay.exit_code = record.get("exit_code")  # type: ignore[assignment]
    if replay.records == 0:
        raise JournalError(f"journal {path} contains no valid records")
    return replay


@dataclass
class ResumePlan:
    """Which tasks a resumed run may skip, and which it must re-run."""

    skipped: List[str] = field(default_factory=list)
    replayed: List[str] = field(default_factory=list)
    config_changed: bool = False

    @property
    def skipped_digests(self) -> int:
        return len(self.skipped)


def plan_resume(replay: JournalReplay, config: ExperimentConfig,
                store) -> ResumePlan:
    """Partition the configured programs into skip vs re-execute.

    A program is skippable only if the journal recorded ``task.done``
    for its *current* task digest **and** every store entry that record
    references still passes its integrity check — the journal claims,
    the store proves.  Everything else (in-flight, failed, unknown,
    entry missing or corrupt) is re-executed; with atomic publishes that
    is always safe, at worst wasteful.
    """
    plan = ResumePlan(config_changed=(
        bool(replay.config) and replay.config != config_digest(config)
    ))
    for program in config.programs:
        digest = task_digest(program, config)
        record = replay.done.get(digest)
        entries = list(record.get("entries", [])) if record else []
        verified = bool(entries) and all(
            store.entry_ok(name) for name in entries
        )
        if record is not None and verified:
            plan.skipped.append(program)
            observe.emit_event("journal.skip", program=program,
                               task=digest)
        else:
            plan.replayed.append(program)
            observe.emit_event(
                "journal.replay", program=program, task=digest,
                state=replay.state_of(digest),
                verified=verified,
            )
    return plan
