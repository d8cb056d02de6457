"""Native (compiled C) backend for the one-pass simulator.

The hot loop lives in ``_native/engine.c`` — a machine-code port of the
scalar engine's per-event pass (word-ownership map, cumulative per-page
write counters, lazy (page, session) windows).  This module is the thin
Python half: membership CSR construction, the ``feed``/``finish``
stream protocol, result assembly, and the observe/profiler contract —
everything that is *not* per-event work.

:class:`NativeSimulationStream` is a drop-in sibling of
:class:`~repro.simulate.engine.SimulationStream`: same constructor, same
stream contract (any feed split point is legal, truncation checked at
``finish``), and bit-identical results — the kernel replicates the
scalar loop branch for branch, and the differential suites enforce it.
Fed columns go straight to the kernel, and carried state stays bounded
by the live working set (owned words, touched pages, open pairs)
exactly as in the scalar engine.

Construction raises :class:`~repro.errors.PipelineError` when the
kernel is unavailable (no compiler, ``REPRO_NATIVE_DISABLE``); the
dispatcher in :mod:`repro.simulate` only routes here after checking
:func:`~repro.simulate._native.native_available`.
"""

from __future__ import annotations

import ctypes
import time
from array import array
from typing import Dict, List, Sequence

import numpy as np

from repro import observe
from repro.observe import profile as observe_profile
from repro.errors import PipelineError
from repro.sessions.types import SessionDef
from repro.simulate._native import (
    load_native_library,
    native_unavailable_reason,
)
from repro.simulate.counting import CountingVariables, VmPageCounts
from repro.simulate.engine import SimulationResult, validate_page_sizes
from repro.trace.events import EventTrace, TraceMeta, as_int32
from repro.trace.objects import ObjectRegistry

_P_I64 = ctypes.POINTER(ctypes.c_int64)
_P_I32 = ctypes.POINTER(ctypes.c_int32)
_P_I8 = ctypes.POINTER(ctypes.c_int8)


def _i32_buffer(column):
    """(pointer, length, keepalive) over a contiguous int32 view: the
    trace's own buffer for an int32 column (an ``array('i')`` or a
    contiguous ndarray), else a narrowed copy, a value outside int32
    being a :class:`~repro.errors.TraceRangeError`."""
    if isinstance(column, array) and column.typecode == "i":
        addr, length = column.buffer_info()
        return ctypes.cast(addr, _P_I32), length, column
    arr = as_int32(column)
    return arr.ctypes.data_as(_P_I32), len(arr), arr


def _i8_buffer(column):
    """(pointer, length, keepalive) over a contiguous int8 view."""
    if isinstance(column, np.ndarray):
        arr = np.ascontiguousarray(column, dtype=np.int8)
        return arr.ctypes.data_as(_P_I8), len(arr), arr
    if isinstance(column, array) and column.itemsize == 1:
        addr, length = column.buffer_info()
        return ctypes.cast(addr, _P_I8), length, column
    arr = array("b", column)
    addr, length = arr.buffer_info()
    return ctypes.cast(addr, _P_I8), length, arr


class NativeSimulationStream:
    """The one-pass simulation with the per-event loop in compiled C.

    Stream contract and results are identical to
    :class:`~repro.simulate.engine.SimulationStream`; see the module
    docstring.  All carried state lives inside the C engine handle and
    is freed at ``finish`` (or on garbage collection if the stream is
    abandoned).
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
        lib = load_native_library()
        if lib is None:
            raise PipelineError(
                "native engine unavailable: "
                f"{native_unavailable_reason() or 'kernel not loaded'}"
            )
        observing = observe.is_enabled()
        start_time = time.perf_counter() if observing else 0.0

        # object id -> member session slots, CSR-flattened.  Multiplicity
        # and order are preserved exactly as in the scalar engine's
        # per-object lists (duplicate membership counts twice on installs
        # and single-word hits).
        n_objects = len(registry.objects)
        member_lists: List[List[int]] = [[] for _ in range(n_objects)]
        for session in sessions:
            for object_id in session.member_ids:
                member_lists[object_id].append(session.index)
        memb_off = array("q", [0] * (n_objects + 1))
        total = 0
        for obj_id, members in enumerate(member_lists):
            total += len(members)
            memb_off[obj_id + 1] = total
        memb_sess = array("q", [0] * max(total, 1))
        pos = 0
        for members in member_lists:
            for s in members:
                memb_sess[pos] = s
                pos += 1

        shifts = array("q", [size.bit_length() - 1 for size in page_sizes])
        off_ptr = ctypes.cast(memb_off.buffer_info()[0], _P_I64)
        sess_ptr = ctypes.cast(memb_sess.buffer_info()[0], _P_I64)
        shift_ptr = ctypes.cast(shifts.buffer_info()[0], _P_I64)
        handle = lib.engine_new(
            n_sessions, n_objects, off_ptr, sess_ptr, shift_ptr,
            len(page_sizes),
        )
        if not handle:
            raise PipelineError("native engine allocation failed")

        self._lib = lib
        self._handle = handle
        self._sessions = list(sessions)
        self._page_sizes = tuple(page_sizes)
        self._n_sessions = n_sessions
        self._n_events = 0
        self._finished = False
        self._sample_counts: Dict[int, int] = {}
        self._observing = observing
        self._elapsed = (
            time.perf_counter() - start_time if observing else 0.0
        )

    def _release(self) -> None:
        handle, self._handle = self._handle, None
        if handle:
            self._lib.engine_free(handle)

    def __del__(self) -> None:  # abandoned stream: free the C state
        try:
            self._release()
        except Exception:  # pragma: no cover - interpreter teardown
            pass

    def feed(self, kinds, col_a, col_b, col_c) -> None:
        """Consume the next batch of events (any split point is legal)."""
        if self._finished:
            raise PipelineError("feed() on a finished simulation stream")
        observing = self._observing
        chunk_start = time.perf_counter() if observing else 0.0

        kinds_ptr, n_kinds, keep_k = _i8_buffer(kinds)
        a_ptr, n_a, keep_a = _i32_buffer(col_a)
        b_ptr, n_b, keep_b = _i32_buffer(col_b)
        c_ptr, n_c, keep_c = _i32_buffer(col_c)
        if len({n_kinds, n_a, n_b, n_c}) != 1:
            raise PipelineError(
                "ragged feed: column lengths (kinds, col_a, col_b, col_c) "
                f"= {(n_kinds, n_a, n_b, n_c)} disagree"
            )
        status = self._lib.engine_feed(
            self._handle, n_kinds, kinds_ptr, a_ptr, b_ptr, c_ptr
        )
        del keep_k, keep_a, keep_b, keep_c
        if status != 0:
            raise PipelineError(
                "native engine out of memory while growing its working set"
            )

        # Sampling profiler: identical systematic 1-in-N sample of the
        # kind mix as the scalar engine, phase carried across feeds so
        # sampled positions match the whole-trace run's.
        profile_stride = observe_profile.engine_sample_stride()
        if profile_stride:
            offset = (-self._n_events) % profile_stride
            sampled = kinds[offset::profile_stride]
            if hasattr(sampled, "tolist"):
                sampled = sampled.tolist()
            samples = self._sample_counts
            for kind in sampled:
                samples[kind] = samples.get(kind, 0) + 1
        self._n_events += n_kinds
        if observing:
            self._elapsed += time.perf_counter() - chunk_start

    def finish(
        self, meta: TraceMeta, expected_events: "int | None" = None
    ) -> SimulationResult:
        """Flush open windows and assemble the :class:`SimulationResult`."""
        if self._finished:
            raise PipelineError("finish() on a finished simulation stream")
        self._finished = True
        observing = self._observing
        finish_start = time.perf_counter() if observing else 0.0
        if expected_events is not None and self._n_events != expected_events:
            self._release()
            raise PipelineError(
                f"truncated chunk stream: fed {self._n_events} events, "
                f"expected {expected_events}"
            )

        lib = self._lib
        handle = self._handle
        n_sessions = self._n_sessions
        lib.engine_flush(handle)

        def fresh():
            return (ctypes.c_int64 * n_sessions)()

        installs, removes, hits, max_active = (
            fresh(), fresh(), fresh(), fresh(),
        )
        lib.engine_read_sessions(handle, installs, removes, hits, max_active)
        per_size = []
        for i in range(len(self._page_sizes)):
            prot, unprot, raw = fresh(), fresh(), fresh()
            lib.engine_read_pages(handle, i, prot, unprot, raw)
            per_size.append((prot, unprot, raw))
        total_writes = lib.engine_total_writes(handle)
        overlap_anomalies = lib.engine_overlap_anomalies(handle)
        self._release()

        result = SimulationResult(
            program=meta.program,
            meta=meta,
            page_sizes=self._page_sizes,
            total_writes=total_writes,
            overlap_anomalies=overlap_anomalies,
        )
        for session in self._sessions:
            s = session.index
            if hits[s] == 0:
                result.n_discarded += 1
                continue
            counting = CountingVariables(
                installs=installs[s],
                removes=removes[s],
                hits=hits[s],
                misses=total_writes - hits[s],
                max_concurrent=max_active[s],
            )
            for i, size in enumerate(self._page_sizes):
                prot, unprot, raw = per_size[i]
                counting.vm[size] = VmPageCounts(
                    protects=prot[s],
                    unprotects=unprot[s],
                    active_page_misses=max(raw[s] - hits[s], 0),
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
                sum(installs) + sum(removes) + sum(hits),
            )
            observe.inc(
                "engine.page_transitions",
                sum(
                    sum(per_size[i][0]) + sum(per_size[i][1])
                    for i in range(len(self._page_sizes))
                ),
            )
            observe.inc("engine.sessions_studied", len(result.sessions))
            observe.inc("engine.sessions_discarded", result.n_discarded)
            observe.note("engine.backend", "native")
            if elapsed > 0:
                observe.observe_value(
                    "engine.events_per_sec", n_events / elapsed
                )
        if self._sample_counts:
            observe_profile.get_profiler().record_engine(self._sample_counts)
        return result


def simulate_sessions_native(
    trace: EventTrace,
    registry: ObjectRegistry,
    sessions: Sequence[SessionDef],
    page_sizes: Sequence[int] = (4096, 8192),
) -> SimulationResult:
    """Whole-trace entry point: the native stream fed once."""
    stream = NativeSimulationStream(registry, sessions, page_sizes)
    stream.feed(trace.kinds, trace.col_a, trace.col_b, trace.col_c)
    return stream.finish(trace.meta)


__all__ = ["NativeSimulationStream", "simulate_sessions_native"]
