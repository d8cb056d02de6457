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
  traces replay through the streaming path.

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
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple

import numpy as np

from repro import observe
from repro.errors import PipelineError, TraceFormatError
from repro.faults import faultpoint
from repro.trace.events import (
    STORED_DTYPES,
    EventTrace,
    TraceColumns,
    TraceMeta,
    VALID_KINDS,
    as_int32,
)
from repro.trace.objects import ObjectRegistry
from repro.trace.tracer import Tracer

#: Default number of events per chunk (``--chunk-events``).  At 13 bytes
#: per event this is ~0.8 MiB of column data per chunk.
DEFAULT_CHUNK_EVENTS = 65536

#: Default bound on chunks in flight in a :class:`ChunkChannel`.  Peak
#: streamed memory is ~``(capacity + 2)`` chunks: the queue plus the one
#: being built and the one being consumed.
DEFAULT_CHANNEL_CAPACITY = 4

_COLUMN_NAMES = ("kinds", "col_a", "col_b", "col_c")

_MIN_KIND = min(VALID_KINDS)
_MAX_KIND = max(VALID_KINDS)


def column_crc32(column) -> int:
    """CRC-32 of a column's raw little-endian bytes (TRACE_FORMAT.md)."""
    return zlib.crc32(np.ascontiguousarray(column).data) & 0xFFFFFFFF


@dataclass(frozen=True)
class TraceChunk:
    """An immutable batch of consecutive trace events.

    ``kinds`` is int8; ``col_a``/``col_b``/``col_c`` are int32 — the
    :data:`~repro.trace.events.STORED_DTYPES` of
    :meth:`EventTrace.as_arrays` and of a saved trace, restricted to one
    chunk's events.  ``seq`` numbers chunks 0, 1, 2, ... within one
    stream; ``checksums`` holds one CRC-32 per column in ``(kinds,
    col_a, col_b, col_c)`` order, of the same bytes a saved trace's
    footer indexes.
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
        """Coerce columns to the canonical dtypes and compute checksums;
        a value outside int32 is a :class:`~repro.errors.TraceRangeError`."""
        columns = (np.ascontiguousarray(kinds, dtype=np.int8),) + tuple(
            as_int32(column, f"chunk {seq}: column {name}")
            for column, name in zip((col_a, col_b, col_c), _COLUMN_NAMES[1:])
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
        verify_columns(self.seq, self.columns, self.checksums)


def verify_columns(seq: int, columns, checksums) -> None:
    """Check one chunk's columns, in ``(kinds, col_a, col_b, col_c)``
    order, against the :data:`~repro.trace.events.STORED_DTYPES` and
    their CRC-32 ``checksums``: equal lengths, dtypes, checksums and the
    kind-byte range.  :meth:`TraceChunk.verify` and the trace file
    reader both check with it.
    """
    n = len(columns[0])
    for name, column, dtype in zip(_COLUMN_NAMES, columns, STORED_DTYPES):
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
    any :class:`~repro.trace.tracer.Tracer`, and each drain expands the
    log into the tracer's columns after the events of the chunk being
    built; then chunks are cut where a per-hook check would have cut
    them, each copied out of the columns, and the events after the last
    cut move to the front.  The log drains once it holds
    :data:`~repro.trace.tracer.LOG_SLICE` records: a hook checks after
    appending, and the CPU's fast path, which appends at most one record
    per instruction itself, checks at its checkpoints, at least every
    ``_DRAIN_STRIDE`` instructions.  So the log never holds more than
    ``LOG_SLICE + _DRAIN_STRIDE`` records (32,768), the columns never
    more than one chunk of events plus one drain's, and phase 1's trace
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

    def _absorb(self, ends, eligible) -> None:
        """End a chunk after the first hook at or past ``chunk_events``
        buffered events, as a per-hook check would.  Only hook-ending
        records are eligible, so a frame plan's events always land in
        one chunk together."""
        hook_ends = ends[eligible]
        done = 0  # events of the columns already emitted
        next_hook = 0  # first eligible record not yet a cut candidate
        while True:
            cut = max(next_hook, int(np.searchsorted(
                hook_ends, done + self._chunk_events)))
            if cut >= len(hook_ends):
                break
            stop = int(hook_ends[cut])
            self._flush(done, stop)
            done, next_hook = stop, cut + 1
        if done:
            rest = self._n_events - done
            for column in self._columns:
                column[:rest] = column[done:self._n_events]
            self._n_events = rest

    def _flush(self, start: int, stop: int) -> None:
        """Emit the columns' events ``start:stop`` as the next chunk."""
        chunk = TraceChunk.build(
            self._next_seq,
            *(column[start:stop].copy() for column in self._columns))
        self._next_seq += 1
        self._emitted_events += stop - start
        self._emit(chunk)

    def finish(self, state=None) -> EventTrace:
        """Close open windows, flush the tail chunk, return the (empty)
        trace whose ``meta`` holds the authoritative run totals."""
        self._close_windows()
        self._finalize_meta()
        if self._n_events:
            self._flush(0, self._n_events)
            self._n_events = 0
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
