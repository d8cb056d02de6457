"""Chunked columnar trace streaming.

This module is the in-memory half of the streaming trace pipeline
(the on-disk half is the chunked container in
:mod:`repro.trace.tracefile`; the normative byte-level spec both
implement is ``docs/TRACE_FORMAT.md``):

* :class:`TraceChunk` — an immutable batch of consecutive events in the
  zero-copy column layout of :meth:`EventTrace.as_arrays`, carrying a
  sequence number, its event count, and a CRC-32 per column;
* :class:`ChunkChannel` — a bounded single-producer/single-consumer
  queue of chunks, the backpressure point that lets phase 1 (tracing)
  and phase 2 (spilling or simulation) overlap without ever holding more
  than ``capacity`` chunks in flight;
* :class:`ChunkingTracer` — a :class:`~repro.trace.tracer.Tracer` that
  emits chunks as the program runs instead of accumulating the whole
  trace, so phase 1's memory stays bounded by one chunk;
* :func:`iter_chunks` — re-chunk a complete in-memory trace, so batch
  traces replay through the streaming path and save through the one
  chunked writer.

Chunk boundaries are *framing only*: a chunk never carries simulation
state, and concatenating the columns of chunks ``0..n`` in sequence
order reconstructs the whole trace exactly.  That is what makes the
streamed and whole-trace paths bit-identical by construction (enforced
by ``tests/simulate/test_vector_equivalence.py`` and the CI
``equivalence`` job).

Producers end a chunk after the first event hook that leaves it *at or
past* ``chunk_events`` buffered events, so chunks are approximately
``chunk_events`` long but not exactly (a function entry appends its
whole frame plan before the check).  Consumers must use the per-chunk
event count and never assume uniform chunk sizes.

When observation is on (:mod:`repro.observe`) the channel accounts
``stream.chunks`` / ``stream.events`` counters and maintains the
``stream.peak_resident_chunks`` gauge — the high-water mark of chunks
queued in any channel in this process.  This is the number the
bounded-memory claim rests on, for both simulation backends (asserted
by ``benchmarks/test_stream_throughput.py``).
"""

from __future__ import annotations

import queue
import threading
import zlib
from array import array
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple

import numpy as np

from repro import observe
from repro.errors import PipelineError, TraceFormatError
from repro.faults import faultpoint
from repro.trace.events import (
    EventTrace,
    TraceColumns,
    TraceMeta,
    VALID_KINDS,
)
from repro.trace.objects import ObjectRegistry
from repro.trace.tracer import Tracer

#: Default number of events per chunk (``--chunk-events``).  At 25 bytes
#: per event this is ~1.6 MiB of column data per chunk.
DEFAULT_CHUNK_EVENTS = 65536

#: Default bound on chunks in flight in a :class:`ChunkChannel`.  Peak
#: streamed memory is ~``(capacity + 2)`` chunks: the queue plus the one
#: being built and the one being consumed.
DEFAULT_CHANNEL_CAPACITY = 4

_COLUMN_NAMES = ("kinds", "col_a", "col_b", "col_c")

#: Column dtypes of a :class:`TraceChunk`, in ``_COLUMN_NAMES`` order:
#: the :meth:`EventTrace.as_arrays` layout.
WIRE_DTYPES = (np.dtype(np.int8), np.dtype(np.int64), np.dtype(np.int64),
               np.dtype(np.int64))

_MIN_KIND = min(VALID_KINDS)
_MAX_KIND = max(VALID_KINDS)


def column_crc32(column) -> int:
    """CRC-32 of a column's raw little-endian bytes (TRACE_FORMAT.md)."""
    return zlib.crc32(np.ascontiguousarray(column).data) & 0xFFFFFFFF


@dataclass(frozen=True)
class TraceChunk:
    """An immutable batch of consecutive trace events.

    ``kinds`` is int8; ``col_a``/``col_b``/``col_c`` are int64 — the
    exact :meth:`EventTrace.as_arrays` layout, restricted to one chunk's
    events.  ``seq`` numbers chunks 0, 1, 2, ... within one stream;
    ``checksums`` holds one CRC-32 per column in ``(kinds, col_a,
    col_b, col_c)`` order.
    """

    seq: int
    kinds: "np.ndarray"
    col_a: "np.ndarray"
    col_b: "np.ndarray"
    col_c: "np.ndarray"

    #: CRC-32 per column, ``(kinds, col_a, col_b, col_c)`` order.
    checksums: Tuple[int, int, int, int]

    @classmethod
    def build(cls, seq, kinds, col_a, col_b, col_c) -> "TraceChunk":
        """Coerce columns to the canonical dtypes and compute checksums."""
        columns = tuple(
            np.ascontiguousarray(column, dtype=dtype)
            for column, dtype in zip((kinds, col_a, col_b, col_c), WIRE_DTYPES)
        )
        checksums = tuple(column_crc32(column) for column in columns)
        return cls(seq, *columns, checksums)

    @property
    def n_events(self) -> int:
        return len(self.kinds)

    @property
    def columns(self) -> TraceColumns:
        return TraceColumns(self.kinds, self.col_a, self.col_b, self.col_c)

    def verify(self) -> None:
        """Check framing: lengths, dtypes, checksums, kind-byte range.

        Raises :class:`~repro.errors.TraceFormatError` (a
        :class:`~repro.errors.PipelineError`) naming the chunk and the
        failing column.
        """
        verify_columns(self.seq, self.columns, self.checksums, WIRE_DTYPES)


def verify_columns(seq: int, columns, checksums, dtypes) -> None:
    """Check one chunk's columns, in ``(kinds, col_a, col_b, col_c)``
    order, against their expected ``dtypes`` and CRC-32 ``checksums``:
    equal lengths, dtypes, checksums and the kind-byte range.

    :meth:`TraceChunk.verify` checks the wire form with
    :data:`WIRE_DTYPES`; the trace file reader checks the stored form
    with its narrower dtypes.
    """
    n = len(columns[0])
    for name, column, dtype in zip(_COLUMN_NAMES, columns, dtypes):
        if len(column) != n:
            raise TraceFormatError(
                f"chunk {seq}: ragged columns "
                f"({name} has {len(column)} events, kinds has {n})"
            )
        if np.asarray(column).dtype != dtype:
            raise TraceFormatError(
                f"chunk {seq}: column {name} has dtype "
                f"{np.asarray(column).dtype}, expected {np.dtype(dtype)}"
            )
    for name, column, expected in zip(_COLUMN_NAMES, columns, checksums):
        actual = column_crc32(column)
        if actual != expected:
            raise TraceFormatError(
                f"chunk {seq}: column {name} checksum mismatch "
                f"(stored {expected:#010x}, computed {actual:#010x})"
            )
    if n:
        kinds = np.asarray(columns[0])
        invalid = (kinds < _MIN_KIND) | (kinds > _MAX_KIND)
        bad_at = np.flatnonzero(invalid)
        if bad_at.size:
            raise TraceFormatError(
                f"chunk {seq}: invalid event kind "
                f"{int(kinds[bad_at[0]])} at chunk offset "
                f"{int(bad_at[0])}; expected one of {sorted(VALID_KINDS)}"
            )


def iter_chunks(
    trace: EventTrace, chunk_events: int = DEFAULT_CHUNK_EVENTS
) -> Iterator[TraceChunk]:
    """Slice a complete trace into verified-buildable chunks.

    The chunks alias the trace's own column storage (no copies), so the
    trace must stay alive and unmodified while they are consumed.  An
    empty trace yields zero chunks — a valid stream.
    """
    if chunk_events < 1:
        raise PipelineError(f"chunk_events must be >= 1, got {chunk_events!r}")
    columns = trace.as_arrays()
    n = len(columns.kinds)
    for seq, start in enumerate(range(0, n, chunk_events)):
        stop = min(start + chunk_events, n)
        yield TraceChunk.build(
            seq,
            columns.kinds[start:stop],
            columns.col_a[start:stop],
            columns.col_b[start:stop],
            columns.col_c[start:stop],
        )


# ---------------------------------------------------------------------------
# Process-wide peak-resident accounting (the bounded-memory gauge)
# ---------------------------------------------------------------------------
#
# One process-wide counter of chunks queued in any ChunkChannel feeds
# the gauge; ``stream.peak_resident_chunks`` is its high-water mark.

_peak_lock = threading.Lock()
_resident_chunks = 0
_peak_resident = 0


def _adjust_resident(delta: int) -> None:
    global _peak_resident, _resident_chunks
    with _peak_lock:
        _resident_chunks += delta
        if _resident_chunks > _peak_resident:
            _peak_resident = _resident_chunks
            observe.set_gauge("stream.peak_resident_chunks", _peak_resident)


def peak_resident_chunks() -> int:
    """High-water mark of chunks queued in any channel so far."""
    return _peak_resident


def _reset_peak() -> None:
    global _peak_resident, _resident_chunks
    with _peak_lock:
        _peak_resident = 0
        # Zero the live count too: an abandoned (cancelled or leaked)
        # stream must not skew the next run's peak.
        _resident_chunks = 0


observe.register_reset_hook(_reset_peak)


# ---------------------------------------------------------------------------
# Bounded producer/consumer channel
# ---------------------------------------------------------------------------

_SENTINEL = object()


class ChunkChannel:
    """Bounded single-producer/single-consumer channel of trace chunks.

    The producer calls :meth:`put` per chunk and :meth:`close` exactly
    once when done (passing the final :class:`TraceMeta`/registry, or
    the exception that ended it); the consumer iterates the channel,
    which yields chunks in sequence order and, at end of stream,
    re-raises the producer's error if there was one.  ``capacity``
    bounds chunks queued between the two — the producer blocks when the
    consumer falls behind, which is what keeps streamed memory flat.

    A consumer that stops early must call :meth:`cancel` so a producer
    blocked in :meth:`put` is released (it gets a
    :class:`~repro.errors.PipelineError` on its next ``put``).
    """

    def __init__(self, capacity: int = DEFAULT_CHANNEL_CAPACITY) -> None:
        if capacity < 1:
            raise PipelineError(f"capacity must be >= 1, got {capacity!r}")
        self.capacity = capacity
        self._queue: "queue.Queue" = queue.Queue(maxsize=capacity)
        self._lock = threading.Lock()
        self._resident = 0
        self._next_put_seq = 0
        self._closed = False
        self._cancelled = False
        self.chunks_in = 0
        self.events_in = 0
        #: Set by :meth:`close`; valid once iteration has finished.
        self.meta: Optional[TraceMeta] = None
        self.registry: Optional[ObjectRegistry] = None
        self.error: Optional[BaseException] = None

    def put(self, chunk: TraceChunk) -> None:
        """Enqueue one chunk; blocks while the channel is full."""
        if self._cancelled:
            raise PipelineError("chunk channel cancelled by consumer")
        if self._closed:
            raise PipelineError("put() on a closed chunk channel")
        if chunk.seq != self._next_put_seq:
            raise PipelineError(
                f"chunk {chunk.seq} put out of order; expected "
                f"{self._next_put_seq}"
            )
        faultpoint("stream.emit", seq=chunk.seq)
        self._next_put_seq += 1
        self.chunks_in += 1
        self.events_in += chunk.n_events
        observe.inc("stream.chunks")
        observe.inc("stream.events", chunk.n_events)
        observe.emit_event("stream.emit", "DEBUG",
                           seq=chunk.seq, events=chunk.n_events)
        with self._lock:
            self._resident += 1
        _adjust_resident(1)
        self._queue.put(chunk)

    def close(
        self,
        meta: Optional[TraceMeta] = None,
        registry: Optional[ObjectRegistry] = None,
        error: Optional[BaseException] = None,
    ) -> None:
        """End the stream; the consumer's iteration terminates (or
        re-raises ``error``) after draining the queued chunks."""
        if self._closed:
            raise PipelineError("chunk channel closed twice")
        self._closed = True
        self.meta = meta
        self.registry = registry
        self.error = error
        self._queue.put(_SENTINEL)

    def cancel(self) -> None:
        """Consumer-side abort: discard queued chunks, release the
        producer.  The producer's next :meth:`put` raises."""
        self._cancelled = True
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            if item is not _SENTINEL:
                with self._lock:
                    self._resident -= 1
                _adjust_resident(-1)

    def __iter__(self) -> Iterator[TraceChunk]:
        expected = 0
        while True:
            item = self._queue.get()
            if item is _SENTINEL:
                if self.error is not None:
                    raise self.error
                return
            with self._lock:
                self._resident -= 1
            _adjust_resident(-1)
            if item.seq != expected:
                raise PipelineError(
                    f"chunk {item.seq} received out of order; expected "
                    f"{expected}"
                )
            expected += 1
            yield item


# ---------------------------------------------------------------------------
# Chunk-emitting tracer
# ---------------------------------------------------------------------------


class ChunkingTracer(Tracer):
    """A tracer that emits :class:`TraceChunk` batches as the program runs.

    ``emit`` is called with each finished chunk (typically
    :meth:`ChunkChannel.put`).  Hooks append to the tracer's log like
    any :class:`~repro.trace.tracer.Tracer`; each drain expands the log
    and cuts chunks where a per-hook check would have.  At most one
    chunk of events plus the log is buffered at any time.  The log
    drains once it holds :data:`~repro.trace.tracer.LOG_SLICE` records:
    a hook checks after appending, and the CPU's fast path, which
    appends at most one record per instruction itself, checks at its
    checkpoints, at least every ``_DRAIN_STRIDE`` instructions.  A
    drain's expanded events are buffered only until they are cut into
    chunks, on either expansion path.  So the log never holds more than
    ``LOG_SLICE + _DRAIN_STRIDE`` records (32,768), and phase 1's trace
    memory is bounded by ``chunk_events`` and that bound regardless of
    trace length.
    :meth:`finish` flushes the final partial chunk and returns an
    *empty* :class:`EventTrace` whose ``meta`` carries the run totals —
    the authoritative event counts a consumer checks the stream against.
    """

    def __init__(
        self,
        cpu,
        image,
        program_name: str = "",
        *,
        emit: Callable[[TraceChunk], None],
        chunk_events: int = DEFAULT_CHUNK_EVENTS,
    ) -> None:
        if chunk_events < 1:
            raise PipelineError(
                f"chunk_events must be >= 1, got {chunk_events!r}"
            )
        super().__init__(cpu, image, program_name)
        self._emit = emit
        self._chunk_events = chunk_events
        self._next_seq = 0
        self._emitted_events = 0

    def _flush(self) -> None:
        trace = self.trace
        n = len(trace.kinds)
        if n == 0:
            return
        chunk = TraceChunk.build(
            self._next_seq,
            np.frombuffer(trace.kinds, dtype=np.int8).copy(),
            np.frombuffer(trace.col_a, dtype=np.int64).copy(),
            np.frombuffer(trace.col_b, dtype=np.int64).copy(),
            np.frombuffer(trace.col_c, dtype=np.int64).copy(),
        )
        # Reset the columns (meta keeps accumulating run totals).
        trace.kinds = array("b")
        trace.col_a = array("q")
        trace.col_b = array("q")
        trace.col_c = array("q")
        self._next_seq += 1
        self._emitted_events += n
        self._emit(chunk)

    def _absorb(self, kinds, a, b, c, ends, eligible) -> None:
        """Append expanded events, ending a chunk after the first hook at
        or past ``chunk_events`` buffered events, as a per-hook check
        would.  Only hook-ending records are eligible, so a frame plan's
        events always land in one chunk together."""
        hook_ends = ends[eligible]
        done = 0  # events of this slice already appended
        next_hook = 0  # first eligible record not yet a cut candidate
        while True:
            need = self._chunk_events - len(self.trace.kinds)
            cut = max(next_hook, int(np.searchsorted(hook_ends, done + need)))
            if cut >= len(hook_ends):
                break
            stop = int(hook_ends[cut])
            self._append(kinds, a, b, c, done, stop)
            self._flush()
            done, next_hook = stop, cut + 1
        self._append(kinds, a, b, c, done, len(kinds))

    def _append(self, kinds, a, b, c, lo: int, hi: int) -> None:
        trace = self.trace
        trace.kinds.frombytes(kinds[lo:hi].view(np.uint8))
        trace.col_a.frombytes(a[lo:hi].view(np.uint8))
        trace.col_b.frombytes(b[lo:hi].view(np.uint8))
        trace.col_c.frombytes(c[lo:hi].view(np.uint8))

    def finish(self, state=None) -> EventTrace:
        """Close open windows, flush the tail chunk, return the (empty)
        trace whose ``meta`` holds the authoritative run totals."""
        self._close_windows()
        self._finalize_meta()
        self._flush()
        meta = self.trace.meta
        expected = meta.n_writes + meta.n_installs + meta.n_removes
        if self._emitted_events != expected:
            raise TraceFormatError(
                f"chunked tracer emitted {self._emitted_events} events but "
                f"meta counts say {expected}"
            )
        self._report_counters(self._emitted_events)
        return self.trace

    @property
    def chunks_emitted(self) -> int:
        return self._next_seq

    @property
    def events_emitted(self) -> int:
        return self._emitted_events
