"""Trace persistence: the chunked trace container.

A saved trace is one ``.npz`` (zip) archive, format version 3; the
byte-level spec is ``docs/TRACE_FORMAT.md``.  The columns are split into
per-chunk members (``chunk-<seq>.<column>.npy``), ``kinds`` as int8 and
``col_a``/``col_b``/``col_c`` as int32, and a ``stream`` JSON footer
carries the run meta, the object registry and the chunk index with a
CRC-32 per stored column.

* :class:`ChunkedTraceWriter` appends chunks as they arrive, so
  ``--stream`` can spill a trace whose event log exceeds RAM.  It
  narrows each address column to int32 and raises
  :class:`~repro.errors.TraceRangeError` for a value that does not fit
  (every address lies in the 16 MiB address space), so nothing is
  truncated silently.
* :func:`save_trace` feeds a whole in-memory trace to that writer in
  chunks of :data:`SAVE_CHUNK_EVENTS`.
* :class:`TraceStreamReader` replays a saved trace chunk by chunk,
  verifying each chunk's stored columns against the footer index and
  widening them back to the int64 :class:`~repro.trace.stream.TraceChunk`
  layout.
* :func:`load_trace` drains one reader into an in-memory
  :class:`EventTrace`, widening while it concatenates.

The checksums cover the stored bytes (int32 for the address columns),
so the reader verifies a chunk before widening it.  Archives of earlier
format versions raise :class:`~repro.errors.TraceFormatError`, which the
pipeline recovers as a cache miss.

The writer publishes atomically: the archive is built in a temporary
file in the destination directory and :func:`os.replace`d into place,
so a reader (or a concurrent writer racing on the same cache key — see
:mod:`repro.experiments.parallel`) never sees a half-written file, and
an interrupted save leaves the previous entry intact.
"""

from __future__ import annotations

import json
import os
import tempfile
import zipfile
from pathlib import Path
from typing import Dict, Iterator, List, Tuple, Union

import numpy as np

from repro.errors import PipelineError, TraceFormatError, TraceRangeError
from repro.faults import faultpoint
from repro.trace.events import EventTrace, TraceMeta
from repro.trace.objects import ObjectDesc, ObjectRegistry
from repro.trace.stream import (
    WIRE_DTYPES,
    TraceChunk,
    column_crc32,
    iter_chunks,
    verify_columns,
)

_FORMAT_VERSION = 3

_COLUMN_SUFFIXES = ("kinds", "col_a", "col_b", "col_c")

#: On-disk dtype of each column, in ``_COLUMN_SUFFIXES`` order.  Every
#: address and object id lies in 0..2**24, so int32 holds it.
STORED_DTYPES = (np.dtype(np.int8), np.dtype(np.int32), np.dtype(np.int32),
                 np.dtype(np.int32))

#: Events per chunk when :func:`save_trace` writes a whole trace.  Larger
#: chunks deflate a little smaller and load a little faster; a
#: streamed replay of the file holds a few chunks at a time.
SAVE_CHUNK_EVENTS = 262144

#: zlib level of every member the writer deflates.  Level 3 deflates
#: trace columns about twice as fast as zlib's default 6, for files about
#: half as large again; readers accept any level.
DEFLATE_LEVEL = 3


def _chunk_member(seq: int, suffix: str) -> str:
    """Archive member name for one chunk column (without ``.npy``)."""
    return f"chunk-{seq:08d}.{suffix}"


# ---------------------------------------------------------------------------
# Shared JSON document helpers (meta + registry serialization)
# ---------------------------------------------------------------------------


def _registry_records(registry: ObjectRegistry) -> List[Dict[str, object]]:
    return [
        {
            "id": obj.id,
            "kind": obj.kind,
            "name": obj.name,
            "function": obj.function,
            "context": list(obj.context),
            "size_bytes": obj.size_bytes,
            "is_param": obj.is_param,
        }
        for obj in registry.objects
    ]


def _registry_from_records(records: List[Dict[str, object]]) -> ObjectRegistry:
    registry = ObjectRegistry()
    for record in records:
        desc = ObjectDesc(
            id=record["id"],
            kind=record["kind"],
            name=record["name"],
            function=record["function"],
            context=tuple(record["context"]),
            size_bytes=record["size_bytes"],
            is_param=record["is_param"],
        )
        if desc.id != len(registry.objects):
            raise TraceFormatError("object ids out of order in trace file")
        registry.objects.append(desc)
    # Rebuild lookup keys so the registry stays usable for new objects.
    for desc in registry.objects:
        if desc.kind in ("local", "static") and desc.function:
            registry._local_keys[(desc.function, desc.name)] = desc.id
        elif desc.kind == "global":
            registry._global_keys[desc.name] = desc.id
        elif desc.kind == "heap":
            registry._heap_count += 1
    return registry


def _json_member(doc: Dict[str, object]) -> np.ndarray:
    """A JSON document as the uint8 array an ``.npz`` member can carry."""
    return np.frombuffer(json.dumps(doc).encode("utf-8"), dtype=np.uint8)


def _parse_json_member(raw: np.ndarray) -> Dict[str, object]:
    try:
        doc = json.loads(bytes(raw.tobytes()).decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise TraceFormatError(f"corrupt trace metadata: {exc}") from exc
    if not isinstance(doc, dict):
        raise TraceFormatError(
            f"corrupt trace metadata: a JSON {type(doc).__name__}, not an object"
        )
    return doc


def _meta_and_registry(doc: Dict[str, object]) -> Tuple[TraceMeta, ObjectRegistry]:
    """The run meta and object registry of a ``stream`` footer; a
    missing, unknown or mistyped field is a :class:`TraceFormatError`."""
    try:
        meta = TraceMeta(**doc["meta"])
        registry = _registry_from_records(doc["objects"])
    except (KeyError, TypeError) as exc:
        raise TraceFormatError(
            f"malformed trace metadata: {type(exc).__name__}: {exc}"
        ) from exc
    if not all(isinstance(value, int) for name, value in vars(meta).items()
               if name != "program"):
        raise TraceFormatError("malformed trace metadata: a non-integer count")
    return meta, registry


def _open_archive(handle) -> zipfile.ZipFile:
    """A deflating zip writer on ``handle``, as ``np.savez_compressed``
    opens one but at :data:`DEFLATE_LEVEL`."""
    return zipfile.ZipFile(handle, "w", zipfile.ZIP_DEFLATED,
                           allowZip64=True, compresslevel=DEFLATE_LEVEL)


def _write_member(archive: zipfile.ZipFile, name: str, array: np.ndarray) -> None:
    """Write ``array`` as the ``.npy`` member ``name`` (zip64 always, as
    ``np.savez`` writes its members)."""
    with archive.open(name + ".npy", "w", force_zip64=True) as member:
        np.lib.format.write_array(
            member, np.ascontiguousarray(array), allow_pickle=False
        )


def _narrow(seq: int, name: str, column: np.ndarray,
            dtype: np.dtype) -> np.ndarray:
    """``column`` as ``dtype``; a value outside ``dtype``'s range is a
    :class:`TraceRangeError`."""
    if column.dtype == dtype:
        return column
    info = np.iinfo(dtype)
    if len(column):
        low, high = int(column.min()), int(column.max())
        if low < info.min or high > info.max:
            raise TraceRangeError(
                f"chunk {seq}: column {name} holds values in "
                f"[{low}, {high}], outside {dtype}"
            )
    return column.astype(dtype)


# ---------------------------------------------------------------------------
# Writer
# ---------------------------------------------------------------------------


class ChunkedTraceWriter:
    """Incremental writer for the chunked trace container.

    Chunks are appended as they arrive — ``write_chunk`` narrows each
    column to its stored dtype and streams it straight into the archive,
    so the writer never holds more than one chunk — and :meth:`finalize`
    appends the ``stream`` footer (meta, registry, chunk index with
    checksums) and atomically publishes the file.  A writer abandoned
    before ``finalize`` (crash, :meth:`abort`, a
    :class:`~repro.errors.TraceRangeError`, context-manager exit on
    error) leaves no partial file at the destination.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self._path = Path(path)
        faultpoint("trace.save", path=self._path.name)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        fd, self._tmp_name = tempfile.mkstemp(
            dir=self._path.parent, prefix=self._path.name + ".", suffix=".tmp"
        )
        self._handle = os.fdopen(fd, "wb")
        self._zip = _open_archive(self._handle)
        self._index: List[Dict[str, object]] = []
        self._next_seq = 0
        self._n_events = 0
        self._done = False

    @property
    def path(self) -> Path:
        return self._path

    @property
    def n_events(self) -> int:
        return self._n_events

    def write_chunk(self, chunk: TraceChunk) -> None:
        """Append one chunk's four column members to the archive."""
        if self._done:
            raise PipelineError("write_chunk() on a closed trace writer")
        if chunk.seq != self._next_seq:
            raise PipelineError(
                f"chunk {chunk.seq} written out of order; expected "
                f"{self._next_seq}"
            )
        faultpoint("stream.spill", seq=chunk.seq)
        faultpoint("io.write", kind="trace")
        stored = [
            _narrow(chunk.seq, suffix, column, dtype)
            for suffix, column, dtype in zip(
                _COLUMN_SUFFIXES, chunk.columns, STORED_DTYPES)
        ]
        for suffix, column in zip(_COLUMN_SUFFIXES, stored):
            _write_member(self._zip, _chunk_member(chunk.seq, suffix), column)
        self._index.append(
            {
                "seq": chunk.seq,
                "n_events": chunk.n_events,
                "crc32": [column_crc32(column) for column in stored],
            }
        )
        self._next_seq += 1
        self._n_events += chunk.n_events

    def finalize(self, meta: TraceMeta, registry: ObjectRegistry) -> None:
        """Write the ``stream`` footer and atomically publish the file."""
        if self._done:
            raise PipelineError("finalize() on a closed trace writer")
        faultpoint("io.write", kind="trace")
        doc = {
            "version": _FORMAT_VERSION,
            "meta": vars(meta),
            "objects": _registry_records(registry),
            "n_events": self._n_events,
            "chunks": self._index,
        }
        _write_member(self._zip, "stream", _json_member(doc))
        self._zip.close()
        self._handle.close()
        self._done = True
        try:
            os.replace(self._tmp_name, self._path)
        except BaseException:
            try:
                os.unlink(self._tmp_name)
            except OSError:
                pass
            raise

    def abort(self) -> None:
        """Discard everything written; the destination is untouched."""
        if self._done:
            return
        self._done = True
        try:
            self._zip.close()
        except Exception:
            pass
        try:
            self._handle.close()
        except Exception:
            pass
        try:
            os.unlink(self._tmp_name)
        except OSError:
            pass

    def __enter__(self) -> "ChunkedTraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # finalize() is an explicit step; reaching __exit__ without it
        # (including the error path) means the file must not publish.
        self.abort()


def save_trace(
    trace: EventTrace, registry: ObjectRegistry, path: Union[str, Path]
) -> None:
    """Save ``trace`` + ``registry`` to ``path`` through a
    :class:`ChunkedTraceWriter`, :data:`SAVE_CHUNK_EVENTS` per chunk."""
    with ChunkedTraceWriter(path) as writer:
        for chunk in iter_chunks(trace, SAVE_CHUNK_EVENTS):
            writer.write_chunk(chunk)
        writer.finalize(trace.meta, registry)


# ---------------------------------------------------------------------------
# Readers
# ---------------------------------------------------------------------------


def _parse_stream_doc(doc: Dict[str, object], files: frozenset) -> None:
    """Structural validation of a footer against the archive members."""
    if doc.get("version") != _FORMAT_VERSION:
        raise TraceFormatError(
            f"unsupported trace format version {doc.get('version')!r}"
        )
    chunks = doc.get("chunks")
    if not isinstance(chunks, list):
        raise TraceFormatError("chunked trace footer has no chunk index")
    declared = 0
    for position, entry in enumerate(chunks):
        if not isinstance(entry, dict):
            raise TraceFormatError(
                f"chunk index entry {position} is not an object"
            )
        if entry.get("seq") != position:
            raise TraceFormatError(
                f"chunk index out of order: entry {position} has seq "
                f"{entry.get('seq')!r}"
            )
        n_events, crc32 = entry.get("n_events"), entry.get("crc32")
        if not (isinstance(n_events, int) and isinstance(crc32, list)
                and len(crc32) == len(_COLUMN_SUFFIXES)
                and all(isinstance(crc, int) for crc in crc32)):
            raise TraceFormatError(
                f"chunk index entry {position} needs an integer n_events "
                f"and {len(_COLUMN_SUFFIXES)} integer crc32s"
            )
        for suffix in _COLUMN_SUFFIXES:
            member = _chunk_member(position, suffix)
            if member not in files:
                raise TraceFormatError(
                    f"truncated chunked trace: missing member {member}"
                )
        declared += n_events
    if declared != doc.get("n_events"):
        raise TraceFormatError(
            f"chunk index declares {declared} events but footer says "
            f"{doc.get('n_events')!r}"
        )


class TraceStreamReader:
    """Replay a saved trace as a stream of verified chunks.

    At most one chunk's columns are resident at a time.  Each chunk's
    stored columns are checked against the footer index as they are
    read: lengths, dtypes, checksums, kind range and event count.

    Use as a context manager, or call :meth:`close`.  Iterating the
    reader yields its chunks.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self._path = Path(path)
        faultpoint("trace.load", path=self._path.name)
        self._archive = np.load(self._path)
        try:
            files = frozenset(self._archive.files)
            if "stream" not in files:
                raise TraceFormatError(
                    "unsupported trace format version: no 'stream' footer"
                )
            doc = _parse_json_member(self._archive["stream"])
            _parse_stream_doc(doc, files)
            self._index: List[Dict[str, object]] = doc["chunks"]
            self.meta, self.registry = _meta_and_registry(doc)
            self.n_events = int(doc["n_events"])
        except BaseException:
            self._archive.close()
            raise

    @property
    def n_chunks(self) -> int:
        return len(self._index)

    def stored_chunks(self) -> Iterator[Tuple[np.ndarray, ...]]:
        """Yield each chunk's verified columns as stored
        (:data:`STORED_DTYPES`), in sequence order."""
        for entry in self._index:
            seq = entry["seq"]
            columns = tuple(
                self._archive[_chunk_member(seq, suffix)]
                for suffix in _COLUMN_SUFFIXES
            )
            verify_columns(seq, columns, entry["crc32"], STORED_DTYPES)
            if len(columns[0]) != entry["n_events"]:
                raise TraceFormatError(
                    f"chunk {seq} has {len(columns[0])} events; index "
                    f"says {entry['n_events']}"
                )
            yield columns

    def chunks(self) -> Iterator[TraceChunk]:
        """Yield verified chunks in sequence order, widened to the int64
        :class:`TraceChunk` layout."""
        for seq, columns in enumerate(self.stored_chunks()):
            yield TraceChunk.build(seq, *columns)

    def verify(self) -> None:
        """Read and verify every chunk (one chunk resident at a time).

        The cache layer calls this on a hit so a corrupt entry is
        discovered — and recovered as a miss — before phase 2 starts,
        matching :func:`load_trace`'s eager validation.
        """
        for _ in self.stored_chunks():
            pass

    def __iter__(self) -> Iterator[TraceChunk]:
        return self.chunks()

    def close(self) -> None:
        self._archive.close()

    def __enter__(self) -> "TraceStreamReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def load_trace(path: Union[str, Path]) -> Tuple[EventTrace, ObjectRegistry]:
    """Load a trace + registry saved by a :class:`ChunkedTraceWriter` as
    one in-memory trace with int64 address columns."""
    parts: Tuple[List[np.ndarray], ...] = tuple([] for _ in _COLUMN_SUFFIXES)
    with TraceStreamReader(path) as reader:
        for columns in reader.stored_chunks():
            for column_parts, column in zip(parts, columns):
                column_parts.append(column)
    # Widen while concatenating: one copy of each column, not two.
    columns = [
        np.concatenate(column_parts, dtype=dtype) if column_parts
        else np.empty(0, dtype)
        for column_parts, dtype in zip(parts, WIRE_DTYPES)
    ]
    trace = EventTrace.from_arrays(*columns, reader.meta)
    trace.validate()
    return trace, reader.registry
