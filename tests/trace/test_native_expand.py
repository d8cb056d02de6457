"""Native tracer-log expansion against the NumPy ``Tracer._expand``.

Random logs of store, frame and side records go through a
:class:`~repro.trace.tracer.Tracer` and a
:class:`~repro.trace.stream.ChunkingTracer` twice: once draining with the
native library's ``tracelog_expand`` and once with NumPy (the loader
patched to report no library).  Both must produce identical columns,
meta counts and chunk boundaries.  ``EXPAND_EVENTS`` is small, so the
NumPy path splits drains into slices that straddle it, and one function's
frame plan alone exceeds it.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import TraceFormatError
from repro.machine import Cpu, Memory, load_program
from repro.machine.layout import MemoryLayout
from repro.minic.compiler import compile_source
from repro.simulate._native import native_available
from repro.trace import tracer as tracer_module
from repro.trace.events import EventKind
from repro.trace.stream import ChunkingTracer
from repro.trace.tracer import Tracer

pytestmark = pytest.mark.skipif(not native_available(), reason="native library unavailable")

#: Small enough that NumPy slices straddle it and ``wide``'s plan of
#: eight frame variables alone exceeds it.
SMALL_EXPAND_EVENTS = 5

_PROGRAM = """
int g; int h[3];
int none() { return 1; }
int one(int a) { return a; }
int wide(int a, int b) { int c; int d; int e; int f; int x[2]; int y; return a; }
int main() { return none() + one(2) + wide(3, 4); }
"""
#: A 16 KiB machine, so the many tracers below are cheap to build.
_LAYOUT = MemoryLayout(global_base=0x1000, heap_base=0x2000, stack_limit=0x3000,
                       stack_top=0x4000, memory_size=0x4000)
_IMAGE = load_program(compile_source(_PROGRAM, "expand", _LAYOUT), _LAYOUT)

_store = st.builds(lambda word: ("store", word * 4), st.integers(0, 1 << 20))
_frame = st.builds(
    lambda index, exit_, base: ("frame", index, exit_, base * 4),
    st.integers(0, len(_IMAGE.functions) - 1), st.booleans(), st.integers(0, 1 << 18))
_side = st.builds(
    lambda kind, object_id, begin, size, ends_hook: (
        "side", kind, object_id, begin * 4, begin * 4 + size * 4, ends_hook),
    st.sampled_from([EventKind.INSTALL, EventKind.REMOVE]), st.integers(0, 50),
    st.integers(0, 1 << 18), st.integers(1, 16), st.booleans())
#: A log: its records, and where drains fall (record counts).
_logs = st.tuples(st.lists(st.one_of(_store, _frame, _side), max_size=80),
                  st.lists(st.integers(0, 80), max_size=4))


@contextmanager
def _numpy_only():
    with mock.patch.object(tracer_module._native, "load_native_library", lambda: None):
        yield


def _tracer(cls, **kwargs):
    cpu = Cpu(Memory(_IMAGE.layout), layout=_IMAGE.layout)
    cpu.attach(_IMAGE)
    tracer = cls(cpu, _IMAGE, "expand", **kwargs)
    tracer.begin()
    return tracer


def _replay(tracer, records, drains):
    """Append ``records`` to the tracer's log, draining at ``drains``."""
    points = set(drains)
    for i, record in enumerate(records):
        if i in points:
            tracer.drain()
        if record[0] == "store":
            tracer.log.append(record[1])
        elif record[0] == "frame":
            _, index, exit_, base = record
            keys = tracer.exit_keys if exit_ else tracer.enter_keys
            tracer.log.append(~(base << tracer.frame_shift | keys[index]))
        else:
            tracer._side.append(record[1:])
            tracer.log.append(~((len(tracer._side) - 1) << 2 | 2))


def _outcome(cls, native, records, drains, **kwargs):
    chunks = []
    if cls is ChunkingTracer:
        kwargs["emit"] = chunks.append
    tracer = _tracer(cls, **kwargs)
    if native:
        _replay(tracer, records, drains)
        trace = tracer.finish()
    else:
        with _numpy_only():
            _replay(tracer, records, drains)
            trace = tracer.finish()
    meta = trace.meta
    columns = [column.tobytes() for column in trace.as_arrays()]
    return {
        "counts": (meta.n_writes, meta.n_installs, meta.n_removes),
        "columns": columns,
        "chunks": [chunk.n_events for chunk in chunks],
        "chunk_columns": [
            np.concatenate([getattr(chunk, name) for chunk in chunks]).tobytes()
            for name in ("kinds", "col_a", "col_b", "col_c")
        ] if chunks else [],
    }


@pytest.mark.parametrize("cls,kwargs", [
    (Tracer, {}),
    (ChunkingTracer, {"chunk_events": 1}),
    (ChunkingTracer, {"chunk_events": 7}),
], ids=["tracer", "chunking-1", "chunking-7"])
@settings(max_examples=150, deadline=None)
@given(log=_logs)
@example(log=([], []))
@example(log=([("frame", 3, False, 64)], []))
@example(log=([("frame", 1, False, 64), ("frame", 1, True, 64)], [1]))
@example(log=([("side", EventKind.INSTALL, 1, 8, 16, False), ("store", 8),
               ("side", EventKind.REMOVE, 1, 8, 16, False)], [2]))
def test_native_expansion_matches_numpy(cls, kwargs, log):
    records, drains = log
    with mock.patch.object(tracer_module, "EXPAND_EVENTS", SMALL_EXPAND_EVENTS):
        native = _outcome(cls, True, records, drains, **kwargs)
        reference = _outcome(cls, False, records, drains, **kwargs)
    assert native == reference


def test_plans_cover_the_edge_cases():
    """The image has a function with no frame variables and one whose
    plan alone exceeds the patched EXPAND_EVENTS."""
    tracer = _tracer(Tracer)
    lengths = dict(zip((f.name for f in _IMAGE.functions), tracer._plan_len.tolist()))
    assert lengths["none"] == 0
    assert lengths["wide"] > SMALL_EXPAND_EVENTS


def test_empty_drain_leaves_the_trace_alone():
    for native in (True, False):
        tracer = _tracer(Tracer)
        tracer.drain()  # the statics
        before = [column.tobytes() for column in tracer.trace.as_arrays()]
        if native:
            tracer.drain()
        else:
            with _numpy_only():
                tracer.drain()
        assert [column.tobytes() for column in tracer.trace.as_arrays()] == before


def test_native_buffers_are_bounded_by_the_drain():
    """Each drain expands into columns of exactly its own size, and the
    per-record buffers grow to the largest drain only."""
    tracer = _tracer(Tracer)
    for records in (100, 300, 200):
        for word in range(records):
            tracer.log.append(word * 4)
        tracer.drain()
    statics = len(tracer._static_ranges)
    assert [len(block) for block in tracer._drained[0]] == [100 + statics, 300, 200]
    assert len(tracer._ends) == 300
    assert len(tracer.finish()) == 600 + 2 * statics


def test_malformed_record_is_rejected():
    tracer = _tracer(Tracer)
    tracer.log.append(~(5 << 2 | 2))  # a side record with no side event
    with pytest.raises(TraceFormatError):
        tracer.drain()
