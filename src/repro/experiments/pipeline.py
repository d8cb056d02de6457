"""Experiment pipeline: run phase 1 + phase 2 per program, with caching.

Phase 1 (trace generation) is done once per program, phase 2 (the
one-pass simulation) once per page-size set — both are cached under
``.repro_cache/`` keyed by a hash of the workload source and inputs, so
re-rendering tables is cheap.

The cache is crash- and concurrency-safe: every entry (the ``.npz``
trace via :func:`repro.trace.save_trace`, the ``-sim-*.zip`` simulation
via :class:`~repro.experiments.store.ResultStore`) is written to a
temporary file in the cache directory and
``os.replace``d into place, so racing writers — parallel workers
(:mod:`repro.experiments.parallel`) or two CLI invocations sharing
``.repro_cache/`` — publish whole files or nothing, and a Ctrl-C mid-
write cannot tear an entry.  A corrupt or truncated entry found on read
(torn by an older writer, a full disk, a crashed container) is treated
as a cache miss: it is logged, noted under ``cache.<kind>.corrupt``,
deleted, and recomputed.

On a trace-cache miss the pipeline writes the ``.npz`` on a writer
thread while the program simulates, and joins it before the sim entry
is published; the ``trace.save_wait_s`` histogram records how long the
join blocked.

When observation is on (:mod:`repro.observe`) every program runs inside
a ``program:<name>`` span with nested ``trace``/``simulate`` stage spans
(``compile`` comes from the workload runner), cache loads run inside
``cache_load`` spans (so warm runs still draw a timeline in trace
exports), and cache traffic is accounted under the ``cache.trace.*`` /
``cache.sim.*`` counters plus note lists naming exactly which
``.repro_cache/`` entries the run read and wrote — the raw material of
the run manifest.

This module provides the per-program task, :func:`load_program_data`.
:func:`load_experiment_data` hands every run, whatever ``jobs``, to
the one scheduler in :mod:`repro.experiments.parallel`, which owns the
retry and watchdog policy.  A program's result is a pure function of
(program, config), so the store is also the resume record: re-running
the same command over the same cache skips every program whose sim
entry was published and recomputes the rest.

When event recording is on (``--events``; :mod:`repro.observe.events`)
the same sites also emit structured flight-recorder events —
``program.start``/``done``/``retry``/``failed`` and ``cache.hit``/
``miss``/``corrupt``/``readonly`` — all correlated by the run's
``run_id``.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro import observe
from repro.errors import PipelineError
from repro.experiments.store import SIM_SUFFIX, ResultStore, SimEntry
from repro.faults import faultpoint
from repro.sessions import discover_sessions
from repro.simulate import (
    ENGINE_CHOICES,
    SimulationResult,
    simulate_sessions,
    validate_page_sizes,
)
from repro.trace import load_trace, save_trace
from repro.trace.events import TraceMeta
from repro.trace.objects import ObjectRegistry
from repro.workloads import WORKLOADS, Workload, run_workload

Progress = Optional[Callable[[str], None]]

#: Cache format version; bump to invalidate stale caches.
_CACHE_VERSION = 4

#: Retry policy of the scheduler (:mod:`repro.experiments.parallel`).
DEFAULT_RETRIES = 2
RETRY_BASE_S = 0.1
RETRY_CAP_S = 2.0


def retry_backoff_s(
    attempts: int, base_s: float = RETRY_BASE_S, cap_s: float = RETRY_CAP_S
) -> float:
    """Capped exponential backoff before retry number ``attempts + 1``."""
    return min(cap_s, base_s * (2 ** max(0, attempts - 1)))


@dataclass
class FailureRecord:
    """One program the pipeline could not produce data for.

    Collected under ``--keep-going`` and recorded in the run manifest's
    ``failures`` section, so a partial run documents exactly what went
    wrong, how hard recovery tried, and what it cost.
    """

    program: str
    error: str          #: exception class name, e.g. "PipelineError"
    message: str
    attempts: int
    elapsed_s: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "program": self.program,
            "error": self.error,
            "message": self.message,
            "attempts": self.attempts,
            "elapsed_s": self.elapsed_s,
        }


@dataclass(frozen=True)
class ExperimentConfig:
    """What to run and at which scale.

    ``scale`` is ``"full"`` (the default-scale runs behind the tables),
    ``"smoke"`` (small runs for tests and examples), or an explicit int
    applied to every workload.  ``jobs`` is the number of worker
    processes the pipeline may fan per-program work out to (1 = run in
    this process; see :mod:`repro.experiments.parallel`).  ``engine``
    selects the phase-2 backend (:data:`repro.simulate.ENGINE_CHOICES`); both
    backends produce bit-identical results, so the simulation cache is
    deliberately keyed without it — a cache entry written by one backend
    is valid for the other.
    """

    programs: Tuple[str, ...] = ("gcc", "ctex", "spice", "qcd", "bps")
    scale: Union[str, int] = "full"
    page_sizes: Tuple[int, ...] = (4096, 8192)
    cache_dir: Path = Path(".repro_cache")
    use_cache: bool = True
    jobs: int = 1
    engine: str = "auto"

    def __post_init__(self) -> None:
        # Fail at configuration time, not deep inside the engine: a
        # non-power-of-two page size would silently produce wrong page
        # numbers (the engine uses shift-based page math).
        validate_page_sizes(self.page_sizes)
        if not isinstance(self.jobs, int) or isinstance(self.jobs, bool) \
                or self.jobs < 1:
            raise PipelineError(f"jobs must be an int >= 1, got {self.jobs!r}")
        if self.engine not in ENGINE_CHOICES:
            raise PipelineError(
                f"unknown engine {self.engine!r}; choose from {ENGINE_CHOICES}"
            )

    def scale_of(self, workload: Workload) -> int:
        """Resolve the configured scale to a concrete int for ``workload``."""
        if self.scale == "full":
            return workload.default_scale
        if self.scale == "smoke":
            return workload.smoke_scale
        if isinstance(self.scale, int):
            return self.scale
        raise PipelineError(f"bad scale {self.scale!r}")


@dataclass
class ProgramData:
    """Everything the table modules need for one program."""

    name: str
    scale: int
    meta: TraceMeta
    registry: ObjectRegistry
    result: SimulationResult

    @property
    def base_time_us(self) -> float:
        """Uninstrumented execution time in modeled microseconds."""
        return self.meta.base_time_us

    @property
    def base_time_ms(self) -> float:
        """Uninstrumented execution time in modeled milliseconds."""
        return self.meta.base_time_ms


_WORKLOAD_KEY_CACHE: Dict[Tuple[str, int], str] = {}


def _workload_key(workload: Workload, scale: int) -> str:
    # Memoized: generating a workload's source costs tens of ms, and
    # the key is needed on every cache probe.
    # Source generation is deterministic per (workload, scale) and the
    # registry is static, so the key never changes within a process.
    cache_key = (workload.name, scale)
    key = _WORKLOAD_KEY_CACHE.get(cache_key)
    if key is None:
        digest = hashlib.sha256(
            workload.source(scale).encode("utf-8")
        ).hexdigest()[:12]
        key = f"{workload.name}-s{scale}-v{_CACHE_VERSION}-{digest}"
        _WORKLOAD_KEY_CACHE[cache_key] = key
    return key


def trace_cache_path(workload: Workload, scale: int,
                     config: ExperimentConfig) -> Path:
    """Where this (workload, scale) pair's trace cache entry lives."""
    return config.cache_dir / f"{_workload_key(workload, scale)}.npz"


def sim_cache_path(workload: Workload, scale: int,
                   config: ExperimentConfig) -> Path:
    """Where this pair's simulation cache entry lives (per page sizes)."""
    sizes = "-".join(str(size) for size in config.page_sizes)
    return (config.cache_dir
            / f"{_workload_key(workload, scale)}-sim-{sizes}{SIM_SUFFIX}")


def _discard_corrupt(
    kind: str, path: Path, exc: BaseException, name: str, progress: Progress
) -> None:
    """Log, account, and delete a cache entry that failed to load."""
    if progress:
        progress(
            f"[{name}] corrupt {kind} cache entry {path.name} "
            f"({type(exc).__name__}: {exc}); recomputing"
        )
    observe.inc(f"cache.{kind}.corrupt")
    observe.note(f"cache.{kind}.corrupt", path.name)
    observe.emit_event(
        "cache.corrupt", "WARNING", kind=kind, program=name,
        entry=path.name, error=type(exc).__name__,
    )
    try:
        path.unlink()
    except OSError:
        pass


def _note_readonly(
    kind: str, path: Path, exc: OSError, name: str, progress: Progress
) -> None:
    """Account a cache write that failed at the OS level.

    An unwritable or read-only ``.repro_cache`` (permissions, full or
    read-only filesystem) must not abort the run — the cache is an
    optimization, so the pipeline degrades to cache-less operation and
    leaves an audit trail instead of crashing.
    """
    if progress:
        progress(
            f"[{name}] cache unwritable ({type(exc).__name__}: {exc}); "
            f"continuing without caching {path.name}"
        )
    observe.inc("cache.readonly")
    observe.note("cache.readonly", path.name)
    observe.emit_event(
        "cache.readonly", "WARNING", kind=kind, program=name,
        entry=path.name, error=type(exc).__name__,
    )


class _TraceSave:
    """A :func:`save_trace` of one program's cache entry, running on a
    writer thread.

    The write is almost all GIL-free C (deflate, CRC-32, file writes),
    so it runs on the host's other core while the task thread discovers
    sessions and simulates.  :meth:`finish` waits for it to publish or
    abandon the entry.
    """

    def __init__(self, trace, registry: ObjectRegistry, path: Path,
                 name: str) -> None:
        self.path = path
        self.name = name
        self.error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run, args=(trace, registry, path),
            name=f"save-{name}",
        )
        self._thread.start()

    def _run(self, trace, registry: ObjectRegistry, path: Path) -> None:
        try:
            # Looked up when called, so a wrapper installed on
            # ``pipeline.save_trace`` (perfbench's ledger) times it.
            save_trace(trace, registry, path)
        except BaseException as exc:
            self.error = exc

    def _join(self) -> None:
        """Wait for the write.  An interrupt that arrives meanwhile is
        raised once the write has ended, so no temporary file outlives
        the task."""
        interrupt = None
        while True:
            try:
                self._thread.join()
                break
            except BaseException as exc:
                interrupt = interrupt or exc
        if interrupt is not None:
            raise interrupt

    def finish(self, progress: Progress) -> Optional[BaseException]:
        """Wait for the write and account its outcome.

        An ``OSError`` is a read-only cache, as for any cache write; any
        other error is returned for the task thread to raise.
        """
        start = time.perf_counter()
        self._join()
        observe.observe_value("trace.save_wait_s",
                              time.perf_counter() - start)
        if self.error is None:
            observe.note("cache.trace.written", self.path.name)
        elif isinstance(self.error, OSError):
            _note_readonly("trace", self.path, self.error, self.name,
                           progress)
        else:
            return self.error
        return None


def _trace_for(
    workload: Workload,
    scale: int,
    config: ExperimentConfig,
    progress: Progress,
) -> Tuple[object, ObjectRegistry, Optional[_TraceSave]]:
    """The program's trace, registry and, on a cache miss, the
    still-running write of the new cache entry (the caller joins it)."""
    trace_path = trace_cache_path(workload, scale, config)
    if config.use_cache and trace_path.exists():
        if progress:
            progress(f"[{workload.name}] loading cached trace {trace_path.name}")
        # Cache loads get their own span so warm runs (whose compile/
        # trace/simulate stages vanish) still produce a useful timeline
        # in ``--trace-out`` exports.
        with observe.span("cache_load", program=workload.name, kind="trace"):
            try:
                faultpoint("cache.read", program=workload.name, kind="trace")
                loaded = load_trace(trace_path)
            except Exception as exc:
                # Torn .npz (full disk), an earlier format version, or
                # any format drift load_trace rejects: recover as a miss.
                _discard_corrupt(
                    "trace", trace_path, exc, workload.name, progress
                )
                loaded = None
        if loaded is not None:
            observe.inc("cache.trace.hits")
            observe.note("cache.trace.used", trace_path.name)
            observe.emit_event("cache.hit", kind="trace",
                               program=workload.name, entry=trace_path.name)
            return (*loaded, None)
    observe.inc("cache.trace.misses")
    observe.emit_event("cache.miss", kind="trace", program=workload.name)
    run = run_workload(workload, scale, on_progress=progress)
    saving = None
    if config.use_cache:
        try:
            faultpoint("cache.write", program=workload.name, kind="trace")
        except OSError as exc:
            _note_readonly("trace", trace_path, exc, workload.name, progress)
        else:
            saving = _TraceSave(run.trace, run.registry, trace_path,
                                workload.name)
    return run.trace, run.registry, saving


def _load_sim_payload(
    sim_path: Path, name: str, progress: Progress
) -> Optional[Dict[str, object]]:
    """Load a cached simulation payload, or ``None`` if absent/corrupt."""
    if not sim_path.exists():
        return None
    if progress:
        progress(f"[{name}] loading cached simulation {sim_path.name}")
    with observe.span("cache_load", program=name, kind="sim"):
        try:
            faultpoint("cache.read", program=name, kind="sim")
            entry = ResultStore(sim_path.parent).load_payload(
                sim_path, program=name
            )
            # Looked up when called, so a wrapper installed on
            # ``pipeline.discover_sessions`` (perfbench's ledger) times it.
            result = entry.result(discover_sessions(entry.registry))
        except Exception as exc:
            # A failed member CRC, a torn or foreign file, a malformed
            # footer or counts that do not fit the registry's sessions
            # (TraceFormatError), or an I/O error: all recover as a
            # cache miss instead of aborting the whole run.
            _discard_corrupt("sim", sim_path, exc, name, progress)
            return None
    return {"meta": entry.meta, "registry": entry.registry, "result": result}


def load_program_data(
    name: str,
    config: ExperimentConfig = ExperimentConfig(),
    progress: Progress = None,
) -> ProgramData:
    """Phase 1 + phase 2 for one program (cached)."""
    workload = WORKLOADS.get(name)
    if workload is None:
        raise PipelineError(f"unknown program {name!r}; known: {sorted(WORKLOADS)}")
    scale = config.scale_of(workload)
    sim_path = sim_cache_path(workload, scale, config)
    observe.emit_event("program.start", program=name, scale=scale)
    with observe.span(f"program:{name}"):
        if config.use_cache:
            payload = _load_sim_payload(sim_path, name, progress)
            if payload is not None:
                observe.inc("cache.sim.hits")
                observe.note("cache.sim.used", sim_path.name)
                observe.emit_event("cache.hit", kind="sim", program=name,
                                   entry=sim_path.name)
                observe.emit_event("program.done", program=name, cached=True)
                return ProgramData(name=name, scale=scale, **payload)
        observe.inc("cache.sim.misses")
        observe.emit_event("cache.miss", kind="sim", program=name)

        saving = save_error = None
        try:
            trace, registry, saving = _trace_for(
                workload, scale, config, progress
            )
            sessions = discover_sessions(registry)
            if progress:
                progress(f"[{name}] simulating {len(sessions)} sessions over {len(trace)} events")
            with observe.span("simulate", program=name):
                result = simulate_sessions(
                    trace, registry, sessions, config.page_sizes,
                    engine=config.engine,
                )
            payload = {"meta": trace.meta, "registry": registry,
                       "result": result}
        finally:
            # The trace entry is published or abandoned before the
            # sim payload; if the task failed, its own error wins.
            if saving is not None:
                save_error = saving.finish(progress)
        if save_error is not None:
            raise save_error
        if config.use_cache:
            try:
                faultpoint("cache.write", program=name, kind="sim")
                # Racing writers each publish a complete entry and the
                # last rename wins: both computed the same result.
                ResultStore(sim_path.parent).publish_payload(
                    sim_path, SimEntry.of(registry, result), program=name)
            except OSError as exc:
                _note_readonly("sim", sim_path, exc, name, progress)
            else:
                observe.note("cache.sim.written", sim_path.name)
    observe.emit_event("program.done", program=name, cached=False)
    return ProgramData(name=name, scale=scale, **payload)


def load_experiment_data(
    config: ExperimentConfig = ExperimentConfig(),
    progress: Progress = None,
    *,
    retries: int = DEFAULT_RETRIES,
    worker_timeout: Optional[float] = None,
    keep_going: bool = False,
    failures: Optional[List[FailureRecord]] = None,
) -> Dict[str, ProgramData]:
    """Phase 1 + phase 2 for every configured program.

    The one entry point, for every ``config.jobs``: the scheduler in
    :mod:`repro.experiments.parallel` runs the programs on a process
    pool when ``jobs > 1`` and in this process otherwise.  Results are
    identical either way; when observation is on, a pooled run's
    metrics and spans are a serial run's plus the ``worker:<name>``
    spans.

    Transient errors retry up to ``retries`` times with capped
    exponential backoff; fatal ones abort, or under ``keep_going`` are
    recorded into ``failures``.  ``worker_timeout`` bounds each pool
    worker's wall clock from dispatch.
    """
    from repro.experiments.parallel import schedule_programs

    return schedule_programs(
        config, progress, retries=retries, worker_timeout=worker_timeout,
        keep_going=keep_going, failures=failures,
    )
