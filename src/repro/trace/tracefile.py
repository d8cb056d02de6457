"""Trace persistence: the chunked trace container.

A saved trace is one ``.npz`` (zip) archive, format version 3; the
byte-level spec is ``docs/TRACE_FORMAT.md``.  The columns are split into
per-chunk members (``chunk-<seq>.<column>.npy``), ``kinds`` as int8 and
``col_a``/``col_b``/``col_c`` as int32 — the
:data:`~repro.trace.events.STORED_DTYPES` every layer keeps in memory
too — and a ``stream`` JSON footer carries the run meta, the object
registry and the chunk index with a CRC-32 per stored column.

* :class:`ChunkedTraceWriter` appends chunks as they arrive.  Columns
  reach it in their stored dtypes (the layers that produce int32
  columns refuse a value that does not fit, with
  :class:`~repro.errors.TraceRangeError`), so it writes each column's
  own buffer.
* :func:`save_trace` feeds slices of a whole in-memory trace's columns
  to that writer, :data:`SAVE_CHUNK_EVENTS` events per chunk.
* :class:`TraceStreamReader` reads a saved trace chunk by chunk,
  verifying each chunk's stored columns against the footer index
  (:func:`verify_columns`).  It inflates each column member's raw
  deflate stream itself, so each column's bytes are CRC-checked once,
  against the footer, rather than against the zip's member CRC as well.
* :func:`load_trace` drains one reader into an in-memory
  :class:`EventTrace`, copying each chunk into columns allocated once
  at the footer's event count.

Archives of earlier format versions, and archives that are torn or
corrupt at any level (zip structure, deflate stream, ``.npy`` header,
footer, column checksums), raise :class:`~repro.errors.TraceFormatError`,
which the pipeline recovers as a cache miss.

The writer publishes atomically: the archive is built in a temporary
file in the destination directory and :func:`os.replace`d into place,
so a reader (or a concurrent writer racing on the same cache key — see
:mod:`repro.experiments.parallel`) never sees a half-written file, and
an interrupted save leaves the previous entry intact.
"""

from __future__ import annotations

import io
import json
import os
import struct
import tempfile
import zipfile
import zlib
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Tuple, Union

import numpy as np

from repro.errors import PipelineError, TraceFormatError
from repro.faults import faultpoint
from repro.trace.events import STORED_DTYPES, VALID_KINDS, EventTrace, TraceMeta
from repro.trace.objects import ObjectDesc, ObjectRegistry

_FORMAT_VERSION = 3

_COLUMN_SUFFIXES = ("kinds", "col_a", "col_b", "col_c")

_MIN_KIND = min(VALID_KINDS)
_MAX_KIND = max(VALID_KINDS)

#: Events per chunk when :func:`save_trace` writes a whole trace, the
#: one chunk size writers cut at.  Larger chunks deflate a little
#: smaller and load a little faster; a reader holds one chunk at a time.
SAVE_CHUNK_EVENTS = 262144

#: zlib level of every member the writer deflates.  Level 3 deflates
#: trace columns about twice as fast as zlib's default 6, for files about
#: half as large again; readers accept any level.
DEFLATE_LEVEL = 3


def _chunk_member(seq: int, suffix: str) -> str:
    """Archive member name for one chunk column (without ``.npy``)."""
    return f"chunk-{seq:08d}.{suffix}"


def column_crc32(column) -> int:
    """CRC-32 of a column's raw little-endian bytes (TRACE_FORMAT.md)."""
    return zlib.crc32(np.ascontiguousarray(column).data) & 0xFFFFFFFF


def verify_columns(seq: int, columns, checksums) -> None:
    """Check one chunk's columns, in ``(kinds, col_a, col_b, col_c)``
    order, against the :data:`~repro.trace.events.STORED_DTYPES` and
    their CRC-32 ``checksums``: equal lengths, dtypes, checksums and the
    kind-byte range.  A failure is a :class:`TraceFormatError` naming
    the chunk and the column.
    """
    n = len(columns[0])
    for name, column, dtype in zip(_COLUMN_SUFFIXES, columns, STORED_DTYPES):
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
    for name, column, expected in zip(_COLUMN_SUFFIXES, columns, checksums):
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


# ---------------------------------------------------------------------------
# Shared JSON document helpers (meta + registry serialization)
# ---------------------------------------------------------------------------


#: Object records the footer encodes per ``json.dumps`` call.
_RECORDS_PER_BATCH = 512


def _registry_records(objects: List[ObjectDesc]) -> List[Dict[str, object]]:
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
        for obj in objects
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


def _footer_member(meta: TraceMeta, registry: ObjectRegistry, n_events: int,
                   index: List[Dict[str, object]]) -> np.ndarray:
    """The ``stream`` footer as the uint8 array an ``.npz`` member can
    carry: the bytes of ``json.dumps`` of the document ``{"version",
    "meta", "objects", "n_events", "chunks"}``.

    The object records are encoded :data:`_RECORDS_PER_BATCH` at a time,
    so a registry of thousands of heap objects is never held whole as
    dicts, nor as the encoder's pieces; they were most of a save's
    transient memory.
    """
    head = json.dumps({"version": _FORMAT_VERSION, "meta": vars(meta)})
    tail = json.dumps({"n_events": n_events, "chunks": index})
    objects = registry.objects
    batches = ", ".join(
        json.dumps(_registry_records(
            objects[start:start + _RECORDS_PER_BATCH]))[1:-1]
        for start in range(0, len(objects), _RECORDS_PER_BATCH)
    )
    doc = f'{head[:-1]}, "objects": [{batches}], {tail[1:]}'
    return np.frombuffer(doc.encode("utf-8"), dtype=np.uint8)


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
    """Write the contiguous ``array`` as the ``.npy`` member ``name``
    (zip64 always, as ``np.savez`` writes its members).

    The bytes are those :func:`np.lib.format.write_array` writes, but the
    data goes to the archive from the array's own buffer, not a copy.
    """
    with archive.open(name + ".npy", "w", force_zip64=True) as member:
        np.lib.format.write_array_header_1_0(
            member, np.lib.format.header_data_from_array_1_0(array)
        )
        member.write(array.data)


# ---------------------------------------------------------------------------
# Writer
# ---------------------------------------------------------------------------


class ChunkedTraceWriter:
    """Incremental writer for the chunked trace container.

    Chunks are appended as they arrive — :meth:`write_columns` streams
    each column's own buffer straight into the archive, so the writer
    holds no copy of a column — and :meth:`finalize` appends the
    ``stream`` footer (meta, registry, chunk index with checksums) and
    atomically publishes the file.  A
    writer abandoned before ``finalize`` (crash, :meth:`abort`, a
    column of the wrong dtype, context-manager exit on error) leaves no
    partial file at the destination.
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

    def write_columns(self, seq: int, columns: Sequence[np.ndarray]) -> None:
        """Append chunk ``seq``, given as its four columns in ``(kinds,
        col_a, col_b, col_c)`` order and :data:`STORED_DTYPES`, to the
        archive; a column of another dtype is a :class:`TraceFormatError`."""
        if self._done:
            raise PipelineError("write_columns() on a closed trace writer")
        if seq != self._next_seq:
            raise PipelineError(
                f"chunk {seq} written out of order; expected {self._next_seq}"
            )
        faultpoint("stream.spill", seq=seq)
        faultpoint("io.write", kind="trace")
        crcs = []
        for suffix, column, dtype in zip(_COLUMN_SUFFIXES, columns,
                                         STORED_DTYPES):
            if column.dtype != dtype:
                raise TraceFormatError(
                    f"chunk {seq}: column {suffix} has dtype {column.dtype}, "
                    f"expected {dtype}"
                )
            stored = np.ascontiguousarray(column)
            _write_member(self._zip, _chunk_member(seq, suffix), stored)
            crcs.append(column_crc32(stored))
        n_events = len(columns[0])
        self._index.append({"seq": seq, "n_events": n_events, "crc32": crcs})
        self._next_seq += 1
        self._n_events += n_events

    def finalize(self, meta: TraceMeta, registry: ObjectRegistry) -> None:
        """Write the ``stream`` footer and atomically publish the file."""
        if self._done:
            raise PipelineError("finalize() on a closed trace writer")
        faultpoint("io.write", kind="trace")
        _write_member(self._zip, "stream", _footer_member(
            meta, registry, self._n_events, self._index))
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
    :class:`ChunkedTraceWriter`, :data:`SAVE_CHUNK_EVENTS` per chunk.

    The chunks are slices of the trace's own columns, written from
    their buffers without a copy.
    """
    columns = trace.as_arrays()
    with ChunkedTraceWriter(path) as writer:
        for seq, start in enumerate(
                range(0, len(columns.kinds), SAVE_CHUNK_EVENTS)):
            stop = start + SAVE_CHUNK_EVENTS
            writer.write_columns(
                seq, [column[start:stop] for column in columns]
            )
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


#: A zip local file header up to its name: the signature, 22 bytes this
#: reader skips, and the lengths of the name and the extra field.
_LOCAL_HEADER = struct.Struct("<4s22xHH")


class TraceStreamReader:
    """Read a saved trace as a sequence of verified chunks.

    At most one chunk's columns are resident at a time.  Each chunk's
    stored columns are checked against the footer index as they are
    read: lengths, dtypes, checksums, kind range and event count.  The
    footer has no index entry, so it is checked against its zip member
    CRC instead.

    Use as a context manager, or call :meth:`close`.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self._path = Path(path)
        faultpoint("trace.load", path=self._path.name)
        self._handle = open(self._path, "rb")
        try:
            try:
                with zipfile.ZipFile(self._handle) as archive:
                    self._members = {info.filename: info
                                     for info in archive.infolist()}
            except zipfile.BadZipFile as exc:
                raise TraceFormatError(f"corrupt trace archive: {exc}") from exc
            files = frozenset(name[:-len(".npy")] for name in self._members
                              if name.endswith(".npy"))
            if "stream" not in files:
                raise TraceFormatError(
                    "unsupported trace format version: no 'stream' footer"
                )
            doc = _parse_json_member(self._read_array("stream", check_crc=True))
            _parse_stream_doc(doc, files)
            self._index: List[Dict[str, object]] = doc["chunks"]
            self.meta, self.registry = _meta_and_registry(doc)
            self.n_events = int(doc["n_events"])
        except BaseException:
            self._handle.close()
            raise

    @property
    def n_chunks(self) -> int:
        return len(self._index)

    def _member_bytes(self, name: str, check_crc: bool) -> bytes:
        """The uncompressed bytes of member ``name`` (``.npy`` appended),
        inflated from its raw deflate stream; with ``check_crc`` they
        are checked against the member's zip CRC too."""
        info = self._members[name + ".npy"]
        handle = self._handle
        try:
            handle.seek(info.header_offset)
            header = handle.read(_LOCAL_HEADER.size)
            if len(header) != _LOCAL_HEADER.size:
                raise TraceFormatError(f"member {name}: truncated local header")
            signature, name_length, extra_length = _LOCAL_HEADER.unpack(header)
            if signature != b"PK\x03\x04":
                raise TraceFormatError(f"member {name}: bad local header")
            handle.seek(name_length + extra_length, os.SEEK_CUR)
            raw = handle.read(info.compress_size)
            if len(raw) != info.compress_size:
                raise TraceFormatError(
                    f"member {name}: truncated, {len(raw)} of "
                    f"{info.compress_size} bytes"
                )
            if info.compress_type == zipfile.ZIP_DEFLATED:
                data = zlib.decompress(raw, -zlib.MAX_WBITS)
            elif info.compress_type == zipfile.ZIP_STORED:
                data = raw
            else:
                raise TraceFormatError(
                    f"member {name}: unsupported compression "
                    f"{info.compress_type}"
                )
        except zlib.error as exc:
            raise TraceFormatError(f"member {name}: corrupt deflate stream: "
                                   f"{exc}") from exc
        if len(data) != info.file_size:
            raise TraceFormatError(
                f"member {name}: {len(data)} bytes, zip says {info.file_size}"
            )
        if check_crc and zlib.crc32(data) != info.CRC:
            raise TraceFormatError(f"member {name}: zip CRC mismatch")
        return data

    def _read_array(self, name: str, check_crc: bool = False) -> np.ndarray:
        """Member ``name`` as the 1-D array its ``.npy`` bytes hold: a
        read-only view of the inflated bytes, not a copy."""
        data = self._member_bytes(name, check_crc)
        npy = io.BytesIO(data)
        try:
            version = np.lib.format.read_magic(npy)
            if version != (1, 0):  # what the writer and np.savez write
                raise ValueError(f"version {version}, not (1, 0)")
            shape, _fortran_order, dtype = np.lib.format.read_array_header_1_0(npy)
        except (ValueError, EOFError) as exc:
            raise TraceFormatError(f"member {name}: bad .npy header: "
                                   f"{exc}") from exc
        offset = npy.tell()
        if (dtype.hasobject or len(shape) != 1
                or len(data) - offset != shape[0] * dtype.itemsize):
            raise TraceFormatError(
                f"member {name}: not a 1-D array of its declared size"
            )
        return np.frombuffer(data, dtype=dtype, offset=offset)

    def stored_chunks(self) -> Iterator[Tuple[np.ndarray, ...]]:
        """Yield each chunk's verified columns as stored
        (:data:`STORED_DTYPES`), in sequence order."""
        for entry in self._index:
            seq = entry["seq"]
            columns = tuple(
                self._read_array(_chunk_member(seq, suffix))
                for suffix in _COLUMN_SUFFIXES
            )
            verify_columns(seq, columns, entry["crc32"])
            if len(columns[0]) != entry["n_events"]:
                raise TraceFormatError(
                    f"chunk {seq} has {len(columns[0])} events; index "
                    f"says {entry['n_events']}"
                )
            yield columns

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "TraceStreamReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def load_trace(path: Union[str, Path]) -> Tuple[EventTrace, ObjectRegistry]:
    """Load a trace + registry saved by a :class:`ChunkedTraceWriter` as
    one in-memory trace, its columns in :data:`STORED_DTYPES`."""
    with TraceStreamReader(path) as reader:
        columns = [np.empty(reader.n_events, dtype) for dtype in STORED_DTYPES]
        at = 0
        for chunk in reader.stored_chunks():
            stop = at + len(chunk[0])
            for column, part in zip(columns, chunk):
                column[at:stop] = part
            at = stop
    trace = EventTrace.from_arrays(*columns, reader.meta)
    trace.validate()
    return trace, reader.registry
