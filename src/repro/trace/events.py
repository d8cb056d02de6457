"""Event trace container.

Events are stored as four parallel columns: an int8 kind byte and the
int32 ``col_a``/``col_b``/``col_c`` (:data:`STORED_DTYPES`, the same
layout a saved trace stores on disk) — 13 bytes per event, compact
enough to hold multi-million-event traces in memory.

Column meaning by kind::

    INSTALL / REMOVE:  a = object id,  b = BA,  c = EA
    WRITE:             a = BA,         b = EA,  c = 0

Every object id and address lies in the 16 MiB address space, so int32
holds it.  A value that does not fit is refused where an int32 column is
first produced — by the tracer's log expansion, :meth:`EventTrace.append_write`
and its siblings, and :meth:`EventTrace.from_arrays` — with a
:class:`~repro.errors.TraceRangeError`; nothing is truncated.

Two storage backings share this class:

* **append backing** — traces built event by event (tests and tools)
  use ``array('b')``/``array('i')`` columns and the ``append_*``
  methods;
* **array backing** — traces adopted from NumPy arrays (the tracer's
  own columns, and those :func:`repro.trace.load_trace` reads, via
  :meth:`EventTrace.from_arrays`) keep the ndarray columns as-is.  Such
  traces are replay-only: the ``append_*`` methods are not supported
  on them.

Either backing exposes :meth:`as_arrays`, a zero-copy NumPy view of the
columns, which saving and the simulation read.  The view aliases the
trace's own buffers: appending to an append-backed trace after taking a view
may reallocate the underlying buffers, so take views only when the
trace is complete.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Tuple

import numpy as np

from repro.errors import TraceFormatError, TraceRangeError


class EventKind(enum.IntEnum):
    """Trace event kinds (paper section 6)."""

    INSTALL = 1
    REMOVE = 2
    WRITE = 3


#: Kind values :meth:`EventTrace.validate` accepts.
VALID_KINDS = frozenset(int(kind) for kind in EventKind)

#: Dtype of each column, in ``(kinds, col_a, col_b, col_c)`` order: in
#: memory and on disk.
STORED_DTYPES = (np.dtype(np.int8), np.dtype(np.int32), np.dtype(np.int32),
                 np.dtype(np.int32))

_INT32 = np.iinfo(np.int32)


def as_int32(column, name: str = "column") -> np.ndarray:
    """``column`` as a contiguous int32 array, without a copy when it
    is one already; a value outside int32 is a
    :class:`~repro.errors.TraceRangeError` naming ``name``."""
    values = np.asarray(column)
    if values.dtype != np.int32 and values.size:
        low, high = int(values.min()), int(values.max())
        if low < _INT32.min or high > _INT32.max:
            raise TraceRangeError(
                f"{name} holds values in [{low}, {high}], outside int32")
    return np.ascontiguousarray(values, dtype=np.int32)


def _check_int32(*values: int) -> None:
    for value in values:
        if not _INT32.min <= value <= _INT32.max:
            raise TraceRangeError(f"event value {value} is outside int32")


class TraceColumns(NamedTuple):
    """Zero-copy NumPy views of a trace's four columns.

    Their dtypes are :data:`STORED_DTYPES`, all in event order and
    aliasing the trace's own storage.
    """

    kinds: "object"
    col_a: "object"
    col_b: "object"
    col_c: "object"


@dataclass
class TraceMeta:
    """Run-level metadata accompanying a trace."""

    program: str = "program"
    cycles: int = 0
    instructions: int = 0
    stores: int = 0
    n_writes: int = 0
    n_installs: int = 0
    n_removes: int = 0

    @property
    def base_time_us(self) -> float:
        """Base execution time in modeled microseconds (cycles @ 40 MHz)."""
        from repro.units import cycles_to_us

        return cycles_to_us(self.cycles)

    @property
    def base_time_ms(self) -> float:
        return self.base_time_us / 1000.0


class EventTrace:
    """Append-only event log with compact column storage."""

    def __init__(self, program: str = "program") -> None:
        self.kinds = array("b")
        self.col_a = array("i")
        self.col_b = array("i")
        self.col_c = array("i")
        self.meta = TraceMeta(program=program)

    def __len__(self) -> int:
        return len(self.kinds)

    # -- appenders -----------------------------------------------------------
    #
    # Each checks its values before appending any, so a refused event
    # never leaves the columns ragged.

    def append_write(self, begin: int, end: int) -> None:
        _check_int32(begin, end)
        self.kinds.append(EventKind.WRITE)
        self.col_a.append(begin)
        self.col_b.append(end)
        self.col_c.append(0)
        self.meta.n_writes += 1

    def append_install(self, object_id: int, begin: int, end: int) -> None:
        _check_int32(object_id, begin, end)
        self.kinds.append(EventKind.INSTALL)
        self.col_a.append(object_id)
        self.col_b.append(begin)
        self.col_c.append(end)
        self.meta.n_installs += 1

    def append_remove(self, object_id: int, begin: int, end: int) -> None:
        _check_int32(object_id, begin, end)
        self.kinds.append(EventKind.REMOVE)
        self.col_a.append(object_id)
        self.col_b.append(begin)
        self.col_c.append(end)
        self.meta.n_removes += 1

    # -- array backing -------------------------------------------------------

    @classmethod
    def from_arrays(
        cls, kinds, col_a, col_b, col_c, meta: TraceMeta
    ) -> "EventTrace":
        """Adopt NumPy columns, without a copy when they already have
        the :data:`STORED_DTYPES`; a wider address column is narrowed,
        and a value outside int32 is a
        :class:`~repro.errors.TraceRangeError`.

        The resulting trace is **replay-only** (``append_*`` is not
        supported); iteration, ``event()``, ``validate()``,
        :meth:`as_arrays`, and :func:`repro.trace.save_trace` all work.
        """
        trace = cls(meta.program)
        trace.kinds = np.ascontiguousarray(kinds, dtype=np.int8)
        trace.col_a = as_int32(col_a, "col_a")
        trace.col_b = as_int32(col_b, "col_b")
        trace.col_c = as_int32(col_c, "col_c")
        trace.meta = meta
        return trace

    def as_arrays(self) -> TraceColumns:
        """The four columns as zero-copy NumPy views (see module docstring)."""
        if isinstance(self.kinds, np.ndarray):
            return TraceColumns(self.kinds, self.col_a, self.col_b, self.col_c)
        return TraceColumns(
            np.frombuffer(self.kinds, dtype=np.int8),
            np.frombuffer(self.col_a, dtype=np.int32),
            np.frombuffer(self.col_b, dtype=np.int32),
            np.frombuffer(self.col_c, dtype=np.int32),
        )

    # -- access -------------------------------------------------------------

    def __iter__(self) -> Iterator[Tuple[int, int, int, int]]:
        """Iterate ``(kind, a, b, c)`` tuples in event order."""
        return zip(self.kinds, self.col_a, self.col_b, self.col_c)

    def event(self, index: int) -> Tuple[int, int, int, int]:
        return (
            self.kinds[index],
            self.col_a[index],
            self.col_b[index],
            self.col_c[index],
        )

    def validate(self) -> None:
        """Check internal consistency (column lengths, kind values, counts)."""
        n = len(self.kinds)
        if not (len(self.col_a) == len(self.col_b) == len(self.col_c) == n):
            raise TraceFormatError("ragged trace columns")
        expected = (
            self.meta.n_writes + self.meta.n_installs + self.meta.n_removes
        )
        if expected != n:
            raise TraceFormatError(
                f"meta counts {expected} disagree with {n} events"
            )
        # Reject kind bytes outside EventKind: a corrupt cache entry that
        # sailed through here used to surface much later as an impossible
        # counting-variable mismatch deep inside the engine.
        bad = self._first_invalid_kind()
        if bad is not None:
            raise TraceFormatError(
                f"invalid event kind {bad}; expected one of "
                f"{sorted(VALID_KINDS)}"
            )

    def _first_invalid_kind(self):
        """The first out-of-range kind byte, or ``None`` when all valid."""
        kinds = self.as_arrays().kinds
        low, high = min(VALID_KINDS), max(VALID_KINDS)
        # min and max need no temporary the size of the trace.
        if kinds.size == 0 or (kinds.min() >= low and kinds.max() <= high):
            return None
        invalid = (kinds < low) | (kinds > high)
        return int(kinds[np.flatnonzero(invalid)[0]])
