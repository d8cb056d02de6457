"""Native tracer-log expansion against the NumPy ``Tracer._expand``.

Random logs of store, frame and side records go through a
:class:`~repro.trace.tracer.Tracer` twice: once draining with the
native library's ``tracelog_expand`` and once with NumPy (the loader
patched to report no library).  Both must produce identical columns and
meta counts.  ``EXPAND_EVENTS`` is small, so the
NumPy path splits drains into slices that straddle it, and one function's
frame plan alone exceeds it.  Both paths expand in place into the
tracer's growing int32 columns; fixed drains check the growth and a
value outside int32, and direct calls check ``tracelog_expand``'s
offset, capacity and range statuses.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import TraceFormatError, TraceRangeError
from repro.machine import Cpu, Memory, load_program
from repro.machine.layout import MemoryLayout
from repro.minic.compiler import compile_source
from repro.simulate._native import load_native_library, native_available
from repro.trace import tracer as tracer_module
from repro.trace.events import EventKind
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
    lambda kind, object_id, begin, size: (
        "side", kind, object_id, begin * 4, begin * 4 + size * 4),
    st.sampled_from([EventKind.INSTALL, EventKind.REMOVE]), st.integers(0, 50),
    st.integers(0, 1 << 18), st.integers(1, 16))
#: A log: its records, and where drains fall (record counts).
_logs = st.tuples(st.lists(st.one_of(_store, _frame, _side), max_size=80),
                  st.lists(st.integers(0, 80), max_size=4))


@contextmanager
def _numpy_only():
    with mock.patch.object(tracer_module._native, "load_native_library", lambda: None):
        yield


def _tracer():
    cpu = Cpu(Memory(_IMAGE.layout), layout=_IMAGE.layout)
    cpu.attach(_IMAGE)
    tracer = Tracer(cpu, _IMAGE, "expand")
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


def _outcome(native, records, drains):
    tracer = _tracer()
    if native:
        _replay(tracer, records, drains)
        trace = tracer.finish()
    else:
        with _numpy_only():
            _replay(tracer, records, drains)
            trace = tracer.finish()
    meta = trace.meta
    columns = [column.tobytes() for column in trace.as_arrays()]
    return (meta.n_writes, meta.n_installs, meta.n_removes), columns


@settings(max_examples=150, deadline=None)
@given(log=_logs)
@example(log=([], []))
@example(log=([("frame", 3, False, 64)], []))
@example(log=([("frame", 1, False, 64), ("frame", 1, True, 64)], [1]))
@example(log=([("side", EventKind.INSTALL, 1, 8, 16), ("store", 8),
               ("side", EventKind.REMOVE, 1, 8, 16)], [2]))
def test_native_expansion_matches_numpy(log):
    records, drains = log
    with mock.patch.object(tracer_module, "EXPAND_EVENTS", SMALL_EXPAND_EVENTS):
        native = _outcome(True, records, drains)
        reference = _outcome(False, records, drains)
    assert native == reference


def test_plans_cover_the_edge_cases():
    """The image has a function with no frame variables and one whose
    plan alone exceeds the patched EXPAND_EVENTS."""
    tracer = _tracer()
    lengths = dict(zip((f.name for f in _IMAGE.functions), tracer._plan_len.tolist()))
    assert lengths["none"] == 0
    assert lengths["wide"] > SMALL_EXPAND_EVENTS


def test_empty_drain_leaves_the_trace_alone():
    for native in (True, False):
        tracer = _tracer()
        tracer.drain()  # the statics
        before = [column.tobytes() for column in tracer.trace.as_arrays()]
        if native:
            tracer.drain()
        else:
            with _numpy_only():
                tracer.drain()
        assert [column.tobytes() for column in tracer.trace.as_arrays()] == before


def _drain(tracer, native):
    if native:
        tracer.drain()
    else:
        with _numpy_only():
            tracer.drain()


#: Drains of a fixed log, as (records, column capacity after the drain).
#: The first drain (with ``begin``'s two statics) sizes the columns; the
#: second, 40 frames of ``wide`` (index 2, eight variables) and 10
#: stores, alone outgrows the whole capacity; the third straddles a
#: growth by an eighth; the fourth fits; the fifth straddles again.
_GROWTH = [
    ([("store", 4 * i) for i in range(100)], 102),
    ([("frame", 2, i % 2 == 1, 64) for i in range(40)]
     + [("store", 8)] * 10, 432),
    ([("side", EventKind.INSTALL, 1, 8, 16)] * 10, 432 + 432 // 8),
    ([("store", 12)] * 30, 486),
    ([("frame", 2, False, 128), ("store", 16)] * 5, 486 + 486 // 8),
]


@pytest.mark.parametrize("native", [True, False], ids=["native", "numpy"])
def test_drains_expand_in_place_into_growing_columns(native):
    """Each drain lands after the events the columns hold; the columns
    grow to the drain's need or by an eighth, whichever is more.  The
    columns are the NumPy oracle's, expanded in one drain."""
    tracer = _tracer()
    capacities = []
    for records, _ in _GROWTH:
        _replay(tracer, records, [])
        _drain(tracer, native)
        capacities.append(len(tracer._columns[0]))
    assert capacities == [capacity for _, capacity in _GROWTH]
    trace = tracer.finish()
    reference = _tracer()
    with _numpy_only():
        _replay(reference, [record for records, _ in _GROWTH for record in records], [])
        expected = reference.finish()
    assert [column.tobytes() for column in trace.as_arrays()] == [
        column.tobytes() for column in expected.as_arrays()]
    assert [column.dtype for column in trace.as_arrays()] == [
        np.int8, np.int32, np.int32, np.int32]


@pytest.mark.parametrize("native", [True, False], ids=["native", "numpy"])
@pytest.mark.parametrize("record", [
    ("store", (1 << 31) - 4),                          # its end is 2**31
    ("frame", 2, False, 1 << 31),                      # a frame base
    ("side", EventKind.INSTALL, 1, 8, 1 << 40),  # a heap end
    ("side", EventKind.REMOVE, -(1 << 31) - 1, 0, 4),
], ids=["store", "frame", "side", "side-negative"])
def test_value_outside_int32_is_a_range_error(native, record):
    """The drain that meets the value raises and keeps no event of it."""
    tracer = _tracer()
    _replay(tracer, [("store", 8), ("store", (1 << 31) - 8)], [])
    _drain(tracer, native)
    kept = tracer._n_events
    counts = vars(tracer.trace.meta).copy()
    _replay(tracer, [("store", 12), record], [])
    with pytest.raises(TraceRangeError, match="outside int32"):
        _drain(tracer, native)
    assert tracer._n_events == kept
    assert vars(tracer.trace.meta) == counts


def _expand(tracer, records, columns, offset, capacity):
    """Call ``tracelog_expand`` on ``records`` (stores and frame
    records only) into ``columns``; returns (status, out)."""
    log = np.array(records, dtype=np.int64)
    out = np.zeros(4, dtype=np.int64)
    no_side = np.zeros(4, dtype=np.int64)
    status = load_native_library().tracelog_expand(
        log.ctypes.data, len(log), tracer._func_bits, *tracer._plan_pointers,
        len(tracer._plan_len), no_side.ctypes.data, 0,
        *(column.ctypes.data for column in columns), offset, capacity,
        out.ctypes.data)
    return status, out


def _columns(capacity):
    return [np.full(capacity, -7, np.int8)] + [
        np.full(capacity, -7, np.int32) for _ in range(3)]


def test_tracelog_writes_at_the_offset():
    tracer = _tracer()
    frame = ~(64 << tracer.frame_shift | tracer.enter_keys[1])  # one()
    columns = _columns(8)
    status, out = _expand(tracer, [40, frame, 44], columns, 5, 8)
    assert status == 0
    assert out.tolist() == [3, 1, 0, 2]
    assert columns[0].tolist() == [-7] * 5 + [3, 1, 3]
    assert columns[1][:5].tolist() == columns[2][:5].tolist() == [-7] * 5
    assert columns[2][5:].tolist() == [44, 64 + tracer._plan_off[
        tracer._plan_start[1]], 48]


def test_tracelog_short_status_sizes_the_drain_and_writes_nothing():
    tracer = _tracer()
    columns = _columns(8)
    status, out = _expand(tracer, [40, 44, 48], columns, 6, 8)
    assert (status, int(out[0])) == (1, 3)
    assert all((column == -7).all() for column in columns)


@pytest.mark.parametrize("address,status", [
    ((1 << 31) - 8, 0),  # the last aligned word whose end fits
    ((1 << 31) - 4, 3),
    ((1 << 62), 3),
])
def test_tracelog_range_status(address, status):
    tracer = _tracer()
    got, out = _expand(tracer, [40, address], _columns(2), 0, 2)
    assert got == status
    if status:
        assert int(out[0]) == 1  # the offending record


def test_malformed_record_is_rejected():
    tracer = _tracer()
    tracer.log.append(~(5 << 2 | 2))  # a side record with no side event
    with pytest.raises(TraceFormatError):
        tracer.drain()
