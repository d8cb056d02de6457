"""Phase-2 simulator.

Replays a phase-1 program event trace against monitor-session definitions
and produces the per-session *counting variables* the analytical models
consume (paper sections 4 and 7): monitor hits, misses, installs,
removes, and — per page size — page protect/unprotect transitions and
active-page misses.  They come back as one *count table*
(:attr:`SimulationResult.counts`): an int64 column per variable, one
row per studied session, named by :func:`count_columns` plus
``misses``.

:func:`simulate_sessions` makes a **single pass** over the trace and
computes exact counting variables for *every* session at once.  It is
one shell around two kernels that implement the same pass and return
the same :class:`~repro.simulate.engine.RawCounts`:

* ``"python"`` — the scalar reference,
  :func:`~repro.simulate.engine.scalar_pass`: a per-event loop with
  dict-based word ownership and lazy (page, session) bookkeeping;
* ``"native"`` — :func:`~repro.simulate.native_engine.native_pass`: the
  scalar loop ported to C (``simulate/_native/engine.c``), built on
  demand with the system C compiler and driven through ctypes.

The shell does everything else once for both: the input checks, the
object → sessions membership, the count table,
the ``engine.*`` counters (``engine.backend.<python|native>`` counts the
runs of each backend), and the profiler's 1-in-N event-kind sample.

The default ``engine="auto"`` runs native when the kernel loads and
``python`` otherwise (no C compiler, or ``REPRO_NATIVE_DISABLE`` set).
Pass ``engine="python"`` or ``"native"`` to force a backend; an explicit
demand for the native backend on a host without the kernel raises
:class:`~repro.errors.PipelineError` instead of degrading.  Equivalence
is enforced by the differential suites in ``tests/simulate/`` and the
CI ``equivalence`` job.

When observation is on (:mod:`repro.observe`) a run reports, *after* the
pass, the ``engine.runs`` / ``engine.events`` / ``engine.writes`` /
``engine.session_updates`` / ``engine.page_transitions`` /
``engine.sessions_studied`` / ``engine.sessions_discarded`` counters and
an ``engine.events_per_sec`` histogram sample.  Nothing is recorded per
event, so with observation disabled a run does O(1) extra work (guarded
by ``benchmarks/test_observe_overhead.py``).  The sampling profiler
(:mod:`repro.observe.profile`) follows the same rule: when enabled the
shell samples the packed event-kind column 1-in-N after the pass; when
disabled it costs one function call per run.
"""

import time
from collections import Counter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import observe
from repro.errors import PipelineError
from repro.observe import profile as observe_profile
from repro.sessions.types import SessionDef
from repro.simulate.engine import RawCounts, SimulationResult, scalar_pass
from repro.trace.events import EventTrace
from repro.trace.objects import ObjectRegistry

#: Recognized values for the ``engine`` argument / ``--engine`` flag.
ENGINE_CHOICES = ("auto", "python", "native")

#: A session's count columns, then those kept once per page size
#: (``protects_4096``, ...): ``VMProtect_s``, ``VMUnprotect_s`` and
#: ``VMActivePageMiss_s`` of paper Figure 4.  ``max_concurrent`` is the
#: peak number of simultaneously active monitors (the NativeHardware
#: register pressure).
SESSION_COLUMNS = ("installs", "removes", "hits", "max_concurrent")
PAGE_COLUMNS = ("protects", "unprotects", "active_page_misses")


def count_columns(page_sizes: Sequence[int]) -> List[str]:
    """The stored count columns over ``page_sizes``, in order."""
    return [*SESSION_COLUMNS, *(f"{name}_{size}" for size in page_sizes
                                for name in PAGE_COLUMNS)]


def count_table(columns: Mapping[str, np.ndarray], page_sizes: Sequence[int],
                total_writes: int) -> Dict[str, np.ndarray]:
    """The count table of the stored ``columns``: those columns plus
    ``misses``, which is ``total_writes - hits`` for every session."""
    table = {name: columns[name] for name in count_columns(page_sizes)}
    table["misses"] = total_writes - table["hits"]
    return table


def _native_available() -> bool:
    from repro.simulate._native import native_available

    return native_available()


def resolve_engine(engine: str = "auto", n_events: Optional[int] = None) -> str:
    """Map an ``engine`` request to the backend that will run.

    Returns ``"python"`` or ``"native"``.  ``"auto"`` is native when the
    kernel loads, else ``"python"``; an explicit ``"native"`` request is
    a demand and raises :class:`PipelineError` when the kernel is
    unavailable.  ``n_events`` is accepted for compatibility and
    ignored: trace size no longer affects the choice.
    """
    if engine not in ENGINE_CHOICES:
        raise PipelineError(
            f"unknown engine {engine!r}; choose from {ENGINE_CHOICES}"
        )
    if engine == "native" and not _native_available():
        from repro.simulate._native import native_unavailable_reason

        reason = native_unavailable_reason()
        raise PipelineError(
            "engine='native' requested but the compiled kernel is "
            f"unavailable: {reason or 'not loaded'}"
        )
    if engine == "auto":
        return "native" if _native_available() else "python"
    return engine


def validate_page_sizes(page_sizes: Sequence[int]) -> None:
    """Reject page sizes the shift-based page math cannot represent.

    Page numbers are computed as ``address >> (size.bit_length() - 1)``,
    which is only ``address // size`` when ``size`` is a power of two; a
    size like 3000 would silently fold unrelated addresses onto the same
    page and corrupt every VM counting variable downstream.
    """
    if not page_sizes:
        raise PipelineError("page_sizes must not be empty")
    for size in page_sizes:
        if not isinstance(size, int) or isinstance(size, bool):
            raise PipelineError(f"page size {size!r} must be an int")
        if size <= 0 or size & (size - 1):
            raise PipelineError(
                f"page size {size} is not a power of two; the engine's "
                "shift-based page math would compute wrong page numbers"
            )


def simulate_sessions(
    trace: EventTrace,
    registry: ObjectRegistry,
    sessions: Sequence[SessionDef],
    page_sizes: Sequence[int] = (4096, 8192),
    engine: str = "auto",
) -> SimulationResult:
    """Run the one-pass simulation on the selected backend.

    Returns a :class:`SimulationResult` holding only the sessions with
    at least one hit.  Both backends return bit-identical results; see
    the module docstring for how ``engine`` is resolved.
    """
    backend = resolve_engine(engine)
    if not sessions:
        raise PipelineError("no sessions to simulate")
    validate_page_sizes(page_sizes)
    columns = (trace.kinds, trace.col_a, trace.col_b, trace.col_c)
    lengths = tuple(len(column) for column in columns)
    if len(set(lengths)) != 1:
        raise PipelineError(
            "ragged trace: column lengths (kinds, col_a, col_b, col_c) "
            f"= {lengths} disagree"
        )
    # One flag read per run; neither kernel's event loop is instrumented.
    observing = observe.is_enabled()
    start_time = time.perf_counter() if observing else 0.0

    obj_sessions = _membership(registry, sessions)
    if backend == "native":
        from repro.simulate.native_engine import native_pass as kernel
    else:
        kernel = scalar_pass
    counts = kernel(obj_sessions, len(sessions), page_sizes, *columns)
    result = _assemble(trace, sessions, tuple(page_sizes), counts)

    if observing:
        _record(counts, result, backend, lengths[0],
                time.perf_counter() - start_time)
    # Sampling profiler: a 1-in-N systematic sample of the event-kind
    # mix, taken from the packed ``kinds`` column after the pass.
    stride = observe_profile.engine_sample_stride()
    if stride:
        sampled = trace.kinds[::stride]
        samples = Counter(
            sampled.tolist() if hasattr(sampled, "tolist") else sampled
        )
        if samples:
            observe_profile.get_profiler().record_engine(samples)
    return result


def _membership(registry, sessions) -> List[Tuple[int, ...]]:
    """object id -> indexes of the sessions containing it, in session
    order and with multiplicity (a duplicated member counts twice)."""
    member_lists: List[List[int]] = [[] for _ in registry.objects]
    for session in sessions:
        for object_id in session.member_ids:
            member_lists[object_id].append(session.index)
    return [tuple(members) for members in member_lists]


def _assemble(trace, sessions, page_sizes, counts: RawCounts):
    """The :class:`SimulationResult` of one pass's counts: the rows of
    the sessions with at least one hit."""
    hits = np.asarray(counts.hits, dtype=np.int64)
    index = np.array([session.index for session in sessions], np.int64)
    studied = hits[index] > 0
    rows = index[studied]
    columns = {"installs": counts.installs, "removes": counts.removes,
               "hits": hits, "max_concurrent": counts.max_active}
    for size, prot, unprot, raw in zip(page_sizes, counts.protects,
                                       counts.unprotects, counts.raw_active):
        columns[f"protects_{size}"] = prot
        columns[f"unprotects_{size}"] = unprot
        columns[f"active_page_misses_{size}"] = np.maximum(
            np.asarray(raw, dtype=np.int64) - hits, 0)
    return SimulationResult(
        program=trace.meta.program,
        meta=trace.meta,
        page_sizes=page_sizes,
        sessions=[s for s, keep in zip(sessions, studied.tolist()) if keep],
        counts=count_table({name: np.asarray(column, dtype=np.int64)[rows]
                            for name, column in columns.items()},
                           page_sizes, counts.total_writes),
        total_writes=counts.total_writes,
        n_discarded=len(sessions) - len(rows),
        overlap_anomalies=counts.overlap_anomalies,
    )


def _record(counts: RawCounts, result, backend, n_events, elapsed) -> None:
    """Report one run's ``engine.*`` counters (observation is on)."""
    observe.inc("engine.runs")
    observe.inc("engine.events", n_events)
    observe.inc("engine.writes", counts.total_writes)
    observe.inc(
        "engine.session_updates",
        sum(counts.installs) + sum(counts.removes) + sum(counts.hits),
    )
    observe.inc(
        "engine.page_transitions",
        sum(map(sum, counts.protects)) + sum(map(sum, counts.unprotects)),
    )
    observe.inc("engine.sessions_studied", len(result.sessions))
    observe.inc("engine.sessions_discarded", result.n_discarded)
    observe.inc(f"engine.backend.{backend}")
    if elapsed > 0:
        observe.observe_value("engine.events_per_sec", n_events / elapsed)


__all__ = [
    "ENGINE_CHOICES",
    "SimulationResult",
    "count_columns",
    "count_table",
    "resolve_engine",
    "simulate_sessions",
    "validate_page_sizes",
]
