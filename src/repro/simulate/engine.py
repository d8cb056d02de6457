"""One-pass trace simulator.

The paper runs phase 2 once per monitor session; with thousands of
sessions over multi-million-event traces that is infeasible here, so this
engine computes exact counting variables for *all* sessions in a single
pass over the trace.  Three ideas make that work:

1. **Word ownership.** Live monitored objects never overlap (stack frames,
   heap blocks, and globals are disjoint regions), so a dict mapping each
   monitored word to its owning object resolves any write to the object —
   and hence to every session containing it — in O(1).

2. **Session membership is static.** ``object id -> (session indexes)``
   is precomputed, so a hit updates each affected session with one list
   increment.

3. **Lazy page accounting.** ``VMActivePageMiss`` needs "writes to page p
   while session s had an active monitor on p".  The engine keeps one
   cumulative write counter per page and, per (page, session) pair, an
   active-monitor count plus the counter value captured when the count
   rose from zero; when it falls back to zero the difference is added to
   the session's raw active-page-write total.  Work happens only at
   install/remove transitions, never per write.  Then::

       VMActivePageMiss = raw_active_writes - hits

   because every hit lands on a page where the session is active (and is
   therefore contained in the raw total).

Invariants (property-tested in the test suite)::

    hits + misses == total writes        (for every session)
    0 <= active_page_misses <= misses    (for every session, page size)
    protects == unprotects               (trace closes all windows)

When observation is on (:mod:`repro.observe`) the engine reports, *after*
the pass, the ``engine.runs`` / ``engine.events`` / ``engine.writes`` /
``engine.session_updates`` / ``engine.page_transitions`` /
``engine.sessions_studied`` / ``engine.sessions_discarded`` counters and
an ``engine.events_per_sec`` histogram sample.  Nothing is recorded per
event — the single pass above stays untouched — so these counters obey
their own invariant: with observation disabled the engine does O(1)
extra work per call (guarded by ``benchmarks/test_observe_overhead.py``).
The sampling profiler (:mod:`repro.observe.profile`) follows the same
rule: when enabled it samples the packed event-kind column 1-in-N
*after* the pass; when disabled it costs one function call per run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro import observe
from repro.observe import profile as observe_profile
from repro.errors import PipelineError
from repro.sessions.types import SessionDef
from repro.simulate.counting import CountingVariables, VmPageCounts
from repro.trace.events import EventKind, EventTrace, TraceMeta
from repro.trace.objects import ObjectRegistry


@dataclass
class SimulationResult:
    """All counting variables for one program's trace.

    ``sessions`` holds only the *studied* sessions — those with at least
    one monitor hit (zero-hit sessions are discarded, paper section 8).
    ``counts`` is parallel to ``sessions``.
    """

    program: str
    meta: TraceMeta
    page_sizes: Tuple[int, ...]
    sessions: List[SessionDef] = field(default_factory=list)
    counts: List[CountingVariables] = field(default_factory=list)
    total_writes: int = 0
    n_discarded: int = 0
    overlap_anomalies: int = 0

    def by_session(self) -> Dict[SessionDef, CountingVariables]:
        """Session -> counting variables mapping."""
        return dict(zip(self.sessions, self.counts))

    def of_kind(self, kind: str) -> List[Tuple[SessionDef, CountingVariables]]:
        """Studied sessions of one type, with their counts."""
        return [
            (session, counts)
            for session, counts in zip(self.sessions, self.counts)
            if session.kind == kind
        ]


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


class SimulationStream:
    """The one-pass simulation as an incremental ``feed``/``finish`` pair.

    The whole-trace entry point :func:`simulate_sessions` is literally
    this class driven with a single :meth:`feed` call.

    All carried state is bounded by the *live* working set — the word
    ownership map, per-page write counters, and lazy (page, session)
    pairs — never by trace length.  ``feed`` may split the event stream
    anywhere, and results depend only on total event order (the
    differential suite in ``tests/simulate/test_vector_equivalence.py``
    checks it).
    """

    def __init__(
        self,
        registry: ObjectRegistry,
        sessions: Sequence[SessionDef],
        page_sizes: Sequence[int] = (4096, 8192),
    ) -> None:
        n_sessions = len(sessions)
        if n_sessions == 0:
            raise PipelineError("no sessions to simulate")
        validate_page_sizes(page_sizes)
        # One flag read per *stream*; the event loop is never instrumented.
        observing = observe.is_enabled()
        start_time = time.perf_counter() if observing else 0.0

        # object id -> tuple of session indexes containing it.
        member_lists: List[List[int]] = [
            [] for _ in range(len(registry.objects))
        ]
        for session in sessions:
            for object_id in session.member_ids:
                member_lists[object_id].append(session.index)
        self._obj_sessions: List[Tuple[int, ...]] = [
            tuple(lst) for lst in member_lists
        ]

        self._sessions = list(sessions)
        self._page_sizes = tuple(page_sizes)
        self._n_sessions = n_sessions

        self._installs = [0] * n_sessions
        self._removes = [0] * n_sessions
        self._hits = [0] * n_sessions
        self._active_now = [0] * n_sessions
        self._max_active = [0] * n_sessions

        shifts = [size.bit_length() - 1 for size in page_sizes]
        page_writes: List[Dict[int, int]] = [dict() for _ in page_sizes]
        # (page * n_sessions + session) -> [active_count, start_write_count]
        pair_state: List[Dict[int, list]] = [dict() for _ in page_sizes]
        self._page_range = range(len(page_sizes))
        self._page_writes = page_writes
        self._pair_state = pair_state
        self._protects = [[0] * n_sessions for _ in page_sizes]
        self._unprotects = [[0] * n_sessions for _ in page_sizes]
        self._raw_active = [[0] * n_sessions for _ in page_sizes]

        self._total_writes = 0
        self._overlap_anomalies = 0
        word_owner: Dict[int, int] = {}
        self._word_owner = word_owner

        # Hoisted per-event state: one tuple per page size so the write
        # path touches no list indexing, and bound dict methods so the
        # loop does no attribute lookups.
        self._write_states = [
            (shifts[i], page_writes[i], page_writes[i].get)
            for i in self._page_range
        ]
        self._install_states = [
            (shifts[i], page_writes[i].get, pair_state[i],
             pair_state[i].get, self._protects[i])
            for i in self._page_range
        ]
        self._remove_states = [
            (shifts[i], page_writes[i].get, pair_state[i].get,
             self._unprotects[i], self._raw_active[i])
            for i in self._page_range
        ]
        self._owner_get = word_owner.get
        self._owner_pop = word_owner.pop

        self._n_events = 0
        self._finished = False
        self._sample_counts: Dict[int, int] = {}
        self._observing = observing
        self._elapsed = (
            time.perf_counter() - start_time if observing else 0.0
        )

    def feed(self, kinds, col_a, col_b, col_c) -> None:
        """Consume the next batch of events (any split point is legal)."""
        if self._finished:
            raise PipelineError("feed() on a finished simulation stream")
        observing = self._observing
        chunk_start = time.perf_counter() if observing else 0.0

        # Local bindings of the carried state: the loop body below is
        # byte-for-byte the whole-trace engine's.  ndarray columns are
        # normalized to plain lists first — iterating numpy scalars
        # through this loop costs ~3x in boxing overhead.
        obj_sessions = self._obj_sessions
        installs = self._installs
        removes = self._removes
        hits = self._hits
        active_now = self._active_now
        max_active = self._max_active
        write_states = self._write_states
        install_states = self._install_states
        remove_states = self._remove_states
        owner_get = self._owner_get
        owner_pop = self._owner_pop
        word_owner = self._word_owner
        n_sessions = self._n_sessions
        total_writes = self._total_writes
        overlap_anomalies = self._overlap_anomalies
        WRITE = int(EventKind.WRITE)
        INSTALL = int(EventKind.INSTALL)
        columns = tuple(
            column.tolist() if hasattr(column, "dtype") else column
            for column in (kinds, col_a, col_b, col_c)
        )
        if len({len(column) for column in columns}) != 1:
            raise PipelineError(
                "ragged feed: column lengths (kinds, col_a, col_b, col_c) "
                f"= {tuple(len(column) for column in columns)} disagree"
            )

        for kind, a, b, c in zip(*columns):
            if kind == WRITE:
                total_writes += 1
                for shift, pw, pw_get in write_states:
                    page = a >> shift
                    pw[page] = pw_get(page, 0) + 1
                if b - a <= 4:
                    obj = owner_get(a)
                    if obj is not None:
                        for s in obj_sessions[obj]:
                            hits[s] += 1
                else:
                    # Multi-word write: one hit per session, however many
                    # member words it touches.
                    touched = set()
                    for word in range(a, b, 4):
                        obj = owner_get(word)
                        if obj is not None:
                            touched.update(obj_sessions[obj])
                    for s in touched:
                        hits[s] += 1
            elif kind == INSTALL:
                owners = obj_sessions[a]
                for s in owners:
                    installs[s] += 1
                    active_now[s] += 1
                    if active_now[s] > max_active[s]:
                        max_active[s] = active_now[s]
                for word in range(b, c, 4):
                    if word in word_owner:
                        overlap_anomalies += 1
                    word_owner[word] = a
                for shift, pw_get, pairs, pairs_get, prot in install_states:
                    for page in range(b >> shift, ((c - 1) >> shift) + 1):
                        base = page * n_sessions
                        for s in owners:
                            state = pairs_get(base + s)
                            if state is None or state[0] == 0:
                                pairs[base + s] = [1, pw_get(page, 0)]
                                prot[s] += 1
                            else:
                                state[0] += 1
            else:  # REMOVE
                owners = obj_sessions[a]
                for s in owners:
                    removes[s] += 1
                    active_now[s] -= 1
                for word in range(b, c, 4):
                    if owner_pop(word, None) is None:
                        overlap_anomalies += 1
                for shift, pw_get, pairs_get, unprot, raw in remove_states:
                    for page in range(b >> shift, ((c - 1) >> shift) + 1):
                        base = page * n_sessions
                        for s in owners:
                            state = pairs_get(base + s)
                            if state is None or state[0] == 0:
                                overlap_anomalies += 1
                                continue
                            state[0] -= 1
                            if state[0] == 0:
                                unprot[s] += 1
                                raw[s] += pw_get(page, 0) - state[1]

        self._total_writes = total_writes
        self._overlap_anomalies = overlap_anomalies

        # Sampling profiler: a 1-in-N systematic sample of the event-kind
        # mix, taken from the packed ``kinds`` column *after* the pass
        # (per feed, never per event), with the phase carried across
        # chunks so the sampled positions match the whole-trace run's.
        # Disabled cost: one call per feed.
        profile_stride = observe_profile.engine_sample_stride()
        if profile_stride:
            offset = (-self._n_events) % profile_stride
            samples = self._sample_counts
            for kind in columns[0][offset::profile_stride]:
                samples[kind] = samples.get(kind, 0) + 1
        self._n_events += len(columns[0])
        if observing:
            self._elapsed += time.perf_counter() - chunk_start

    def finish(
        self, meta: TraceMeta, expected_events: "int | None" = None
    ) -> SimulationResult:
        """Flush open windows and assemble the :class:`SimulationResult`.

        ``expected_events`` (when known — e.g. from a trace file's
        footer or a completed tracer's meta) guards against a silently
        truncated stream.
        """
        if self._finished:
            raise PipelineError("finish() on a finished simulation stream")
        self._finished = True
        observing = self._observing
        finish_start = time.perf_counter() if observing else 0.0
        if expected_events is not None and self._n_events != expected_events:
            raise PipelineError(
                f"truncated chunk stream: fed {self._n_events} events, "
                f"expected {expected_events}"
            )

        n_sessions = self._n_sessions
        hits = self._hits
        total_writes = self._total_writes
        # Defensive flush: close any windows the trace left open.
        for i in self._page_range:
            pw = self._page_writes[i]
            for key, state in self._pair_state[i].items():
                if state[0] > 0:
                    page, s = divmod(key, n_sessions)
                    self._unprotects[i][s] += 1
                    self._raw_active[i][s] += pw.get(page, 0) - state[1]

        result = SimulationResult(
            program=meta.program,
            meta=meta,
            page_sizes=self._page_sizes,
            total_writes=total_writes,
            overlap_anomalies=self._overlap_anomalies,
        )
        for session in self._sessions:
            s = session.index
            if hits[s] == 0:
                result.n_discarded += 1
                continue
            counting = CountingVariables(
                installs=self._installs[s],
                removes=self._removes[s],
                hits=hits[s],
                misses=total_writes - hits[s],
                max_concurrent=self._max_active[s],
            )
            for i, size in enumerate(self._page_sizes):
                counting.vm[size] = VmPageCounts(
                    protects=self._protects[i][s],
                    unprotects=self._unprotects[i][s],
                    active_page_misses=max(
                        self._raw_active[i][s] - hits[s], 0
                    ),
                )
            result.sessions.append(session)
            result.counts.append(counting)

        if observing:
            elapsed = self._elapsed + (time.perf_counter() - finish_start)
            n_events = self._n_events
            observe.inc("engine.runs")
            observe.inc("engine.events", n_events)
            observe.inc("engine.writes", total_writes)
            observe.inc(
                "engine.session_updates",
                sum(self._installs) + sum(self._removes) + sum(hits),
            )
            observe.inc(
                "engine.page_transitions",
                sum(
                    sum(self._protects[i]) + sum(self._unprotects[i])
                    for i in self._page_range
                ),
            )
            observe.inc("engine.sessions_studied", len(result.sessions))
            observe.inc("engine.sessions_discarded", result.n_discarded)
            observe.note("engine.backend", "python")
            if elapsed > 0:
                observe.observe_value(
                    "engine.events_per_sec", n_events / elapsed
                )
        if self._sample_counts:
            observe_profile.get_profiler().record_engine(self._sample_counts)
        return result


def simulate_sessions(
    trace: EventTrace,
    registry: ObjectRegistry,
    sessions: Sequence[SessionDef],
    page_sizes: Sequence[int] = (4096, 8192),
) -> SimulationResult:
    """Run the one-pass simulation; see module docstring.

    Returns a :class:`SimulationResult` containing only sessions with at
    least one hit.  This is :class:`SimulationStream` fed the whole
    trace in one call.
    """
    stream = SimulationStream(registry, sessions, page_sizes)
    stream.feed(trace.kinds, trace.col_a, trace.col_b, trace.col_c)
    return stream.finish(trace.meta)
