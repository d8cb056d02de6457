"""Event trace container.

Events are stored as three parallel ``array('q')`` columns plus a kind
byte column — compact enough to hold multi-million-event traces in
memory and to save/load via numpy.

Column meaning by kind::

    INSTALL / REMOVE:  a = object id,  b = BA,  c = EA
    WRITE:             a = BA,         b = EA,  c = 0

Two storage backings share this class:

* **append backing** — fresh traces built by the tracer use
  ``array('q')`` columns and the ``append_*`` hot-path methods;
* **array backing** — traces adopted from NumPy arrays (e.g. straight
  out of an ``.npz`` via :func:`repro.trace.load_trace` and
  :meth:`EventTrace.from_arrays`) keep the ndarray columns as-is, so
  loading never round-trips through ``array('q')`` copies.  Such traces
  are replay-only: the ``append_*`` methods are not supported on them.

Either backing exposes :meth:`as_arrays`, a zero-copy NumPy view of the
columns, which chunking (:func:`repro.trace.stream.iter_chunks`) and
saving read.  The view aliases the trace's
own buffers: appending to an append-backed trace after taking a view
may reallocate the underlying buffers, so take views only when the
trace is complete.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Tuple


class EventKind(enum.IntEnum):
    """Trace event kinds (paper section 6)."""

    INSTALL = 1
    REMOVE = 2
    WRITE = 3


#: Kind values :meth:`EventTrace.validate` accepts.
VALID_KINDS = frozenset(int(kind) for kind in EventKind)


class TraceColumns(NamedTuple):
    """Zero-copy NumPy views of a trace's four columns.

    ``kinds`` is int8; ``col_a``/``col_b``/``col_c`` are int64, all in
    event order and aliasing the trace's own storage.
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
        self.col_a = array("q")
        self.col_b = array("q")
        self.col_c = array("q")
        self.meta = TraceMeta(program=program)

    def __len__(self) -> int:
        return len(self.kinds)

    # -- appenders (hot path) ------------------------------------------------

    def append_write(self, begin: int, end: int) -> None:
        self.kinds.append(EventKind.WRITE)
        self.col_a.append(begin)
        self.col_b.append(end)
        self.col_c.append(0)
        self.meta.n_writes += 1

    def append_install(self, object_id: int, begin: int, end: int) -> None:
        self.kinds.append(EventKind.INSTALL)
        self.col_a.append(object_id)
        self.col_b.append(begin)
        self.col_c.append(end)
        self.meta.n_installs += 1

    def append_remove(self, object_id: int, begin: int, end: int) -> None:
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
        """Adopt NumPy columns without copying them into ``array('q')``.

        The resulting trace is **replay-only** (``append_*`` is not
        supported); iteration, ``event()``, ``validate()``,
        :meth:`as_arrays`, and :func:`repro.trace.save_trace` all work.
        """
        import numpy as np

        trace = cls(meta.program)
        trace.kinds = np.ascontiguousarray(kinds, dtype=np.int8)
        trace.col_a = np.ascontiguousarray(col_a, dtype=np.int64)
        trace.col_b = np.ascontiguousarray(col_b, dtype=np.int64)
        trace.col_c = np.ascontiguousarray(col_c, dtype=np.int64)
        trace.meta = meta
        return trace

    def as_arrays(self) -> TraceColumns:
        """The four columns as zero-copy NumPy views (see module docstring)."""
        import numpy as np

        if isinstance(self.kinds, np.ndarray):
            return TraceColumns(self.kinds, self.col_a, self.col_b, self.col_c)
        return TraceColumns(
            np.frombuffer(self.kinds, dtype=np.int8),
            np.frombuffer(self.col_a, dtype=np.int64),
            np.frombuffer(self.col_b, dtype=np.int64),
            np.frombuffer(self.col_c, dtype=np.int64),
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
        from repro.errors import TraceFormatError

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
        try:
            import numpy as np
        except ImportError:  # pragma: no cover - numpy is a hard dep
            return next(
                (int(k) for k in self.kinds if int(k) not in VALID_KINDS), None
            )
        kinds = self.as_arrays().kinds
        if kinds.size == 0:
            return None
        invalid = (kinds < min(VALID_KINDS)) | (kinds > max(VALID_KINDS))
        bad_at = np.flatnonzero(invalid)
        if bad_at.size:
            return int(kinds[bad_at[0]])
        return None
