"""The C kernel of the one-pass simulator.

The per-event loop lives in ``_native/engine.c``: the scalar kernel
(:func:`~repro.simulate.engine.scalar_pass`) ported branch for branch
to C, with the word-ownership map, the cumulative per-page write
counters and the lazy (page, session) windows in open-addressing hash
maps.  :func:`native_pass` is its Python half: it flattens the session
membership into CSR arrays, hands the kernel the trace's own int8/int32
column buffers (no column is copied), reads the counts back as
:class:`~repro.simulate.engine.RawCounts`, and frees the C state on
every exit path.  The checks, result assembly, observation and sampling
are the shell's (:mod:`repro.simulate`), shared with the scalar kernel;
the differential suites hold the two kernels bit-identical.
"""

from __future__ import annotations

import ctypes
from array import array
from typing import Sequence, Tuple

import numpy as np

from repro.errors import PipelineError
from repro.simulate._native import (
    load_native_library,
    native_unavailable_reason,
)
from repro.simulate.engine import RawCounts
from repro.trace.events import as_int32

_P_I64 = ctypes.POINTER(ctypes.c_int64)
_P_I32 = ctypes.POINTER(ctypes.c_int32)
_P_I8 = ctypes.POINTER(ctypes.c_int8)


def _i32_buffer(column):
    """(pointer, keepalive) over a contiguous int32 view: the trace's
    own buffer for an int32 column (an ``array('i')`` or a contiguous
    ndarray), else a narrowed copy, a value outside int32 being a
    :class:`~repro.errors.TraceRangeError`."""
    if isinstance(column, array) and column.typecode == "i":
        return ctypes.cast(column.buffer_info()[0], _P_I32), column
    arr = as_int32(column)
    return arr.ctypes.data_as(_P_I32), arr


def _i8_buffer(column):
    """(pointer, keepalive) over a contiguous int8 view."""
    if isinstance(column, np.ndarray):
        arr = np.ascontiguousarray(column, dtype=np.int8)
        return arr.ctypes.data_as(_P_I8), arr
    if not (isinstance(column, array) and column.itemsize == 1):
        column = array("b", column)
    return ctypes.cast(column.buffer_info()[0], _P_I8), column


def _new_engine(lib, obj_sessions, n_sessions, page_sizes):
    """A C engine handle for this membership and these page sizes.

    The engine copies the CSR arrays, so they are freed on return and
    the pass's growing maps can reuse their memory: held through the
    pass, they added ~8 MiB to a full-scale ``table4``'s peak RSS.
    """
    # object id -> member session slots, CSR-flattened in the order and
    # multiplicity of ``obj_sessions``.
    memb_off = np.cumsum([0, *map(len, obj_sessions)], dtype=np.int64)
    memb_sess = np.array(
        [s for members in obj_sessions for s in members] or [0], np.int64
    )
    shifts = np.array([size.bit_length() - 1 for size in page_sizes],
                      np.int64)
    handle = lib.engine_new(
        n_sessions, len(obj_sessions), memb_off.ctypes.data_as(_P_I64),
        memb_sess.ctypes.data_as(_P_I64), shifts.ctypes.data_as(_P_I64),
        len(page_sizes),
    )
    if not handle:
        raise PipelineError("native engine allocation failed")
    return handle


def native_pass(
    obj_sessions: Sequence[Tuple[int, ...]],
    n_sessions: int,
    page_sizes: Sequence[int],
    kinds,
    col_a,
    col_b,
    col_c,
) -> RawCounts:
    """Replay the four trace columns once in C; same contract as
    :func:`~repro.simulate.engine.scalar_pass`.

    Raises :class:`~repro.errors.PipelineError` when the kernel is
    unavailable (no compiler, ``REPRO_NATIVE_DISABLE``) or runs out of
    memory.
    """
    lib = load_native_library()
    if lib is None:
        raise PipelineError(
            "native engine unavailable: "
            f"{native_unavailable_reason() or 'kernel not loaded'}"
        )
    # The pointers stay valid while these keepalives are bound.
    kinds_ptr, keep_kinds = _i8_buffer(kinds)
    a_ptr, keep_a = _i32_buffer(col_a)
    b_ptr, keep_b = _i32_buffer(col_b)
    c_ptr, keep_c = _i32_buffer(col_c)

    handle = _new_engine(lib, obj_sessions, n_sessions, page_sizes)
    try:
        status = lib.engine_feed(
            handle, len(kinds), kinds_ptr, a_ptr, b_ptr, c_ptr
        )
        if status != 0:
            raise PipelineError(
                "native engine out of memory while growing its working set"
            )
        lib.engine_flush(handle)
        # One int64 row per count: installs, removes, hits, max_active,
        # then protects, unprotects, raw_active per page size.
        rows = np.zeros((4 + 3 * len(page_sizes), n_sessions), np.int64)
        pointers = [row.ctypes.data_as(_P_I64) for row in rows]
        lib.engine_read_sessions(handle, *pointers[:4])
        for i in range(len(page_sizes)):
            lib.engine_read_pages(handle, i, *pointers[4 + 3 * i:7 + 3 * i])
        total_writes = lib.engine_total_writes(handle)
        overlap_anomalies = lib.engine_overlap_anomalies(handle)
    finally:
        lib.engine_free(handle)

    counts = rows.tolist()
    return RawCounts(*counts[:4], counts[4::3], counts[5::3], counts[6::3],
                     total_writes, overlap_anomalies)
