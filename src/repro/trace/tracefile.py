"""Trace persistence: save/load traces and object registries.

Two container versions share one ``.npz`` (zip) envelope; the byte-level
spec is ``docs/TRACE_FORMAT.md``:

* **v1 (whole-trace)** — four full-length column members plus a ``meta``
  JSON member.  Written by :func:`save_trace`; what batch runs cache.
* **v2 (chunked)** — the columns split into per-chunk members
  (``chunk-<seq>.<column>.npy``) plus a ``stream`` JSON footer carrying
  the chunk index with per-column CRC-32s.  Written incrementally by
  :class:`ChunkedTraceWriter` as chunks arrive — the spill target that
  lets ``--stream`` trace programs whose event log exceeds RAM.

Both versions load through both access paths: :func:`load_trace`
materializes either as one in-memory :class:`EventTrace`, and
:class:`TraceStreamReader` replays either as a verified chunk stream
(v1 is re-chunked from its whole columns).  Cache entries are therefore
interchangeable between ``--stream`` and batch runs.

Writers publish atomically: the archive is built in a temporary file in
the destination directory and :func:`os.replace`d into place, so a
reader (or a concurrent writer racing on the same cache key — see
:mod:`repro.experiments.parallel`) never sees a half-written file, and
an interrupted save leaves the previous entry intact.
"""

from __future__ import annotations

import json
import os
import tempfile
import zipfile
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.errors import PipelineError, TraceFormatError
from repro.faults import faultpoint
from repro.trace.events import EventTrace, TraceMeta
from repro.trace.objects import ObjectDesc, ObjectRegistry
from repro.trace.stream import (
    DEFAULT_CHUNK_EVENTS,
    TraceChunk,
    iter_chunks,
)

_FORMAT_VERSION = 1
_STREAM_FORMAT_VERSION = 2

_COLUMN_SUFFIXES = ("kinds", "col_a", "col_b", "col_c")

#: zlib level of every member the writers deflate.  Level 3 deflates
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
    """The run meta and object registry of a v1 ``meta`` or v2 ``stream``
    document; a missing, unknown or mistyped field is a
    :class:`TraceFormatError`."""
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


# ---------------------------------------------------------------------------
# v1: whole-trace save (unchanged format)
# ---------------------------------------------------------------------------


def save_trace(
    trace: EventTrace, registry: ObjectRegistry, path: Union[str, Path]
) -> None:
    """Save ``trace`` + ``registry`` to ``path`` as a v1 (whole-trace)
    archive; see the module docstring for the atomic-publish protocol."""
    path = Path(path)
    faultpoint("trace.save", path=path.name)
    faultpoint("io.write", kind="trace")
    path.parent.mkdir(parents=True, exist_ok=True)
    meta_doc = {
        "version": _FORMAT_VERSION,
        "meta": vars(trace.meta),
        "objects": _registry_records(registry),
    }
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        columns = trace.as_arrays()  # zero-copy views, either backing
        with os.fdopen(fd, "wb") as handle, _open_archive(handle) as archive:
            for suffix, column in zip(_COLUMN_SUFFIXES, columns):
                _write_member(archive, suffix, column)
            _write_member(archive, "meta", _json_member(meta_doc))
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


# ---------------------------------------------------------------------------
# v2: chunked incremental writer
# ---------------------------------------------------------------------------


class ChunkedTraceWriter:
    """Incremental writer for the chunked (v2) trace container.

    Chunks are appended as they arrive — ``write_chunk`` streams each
    column straight into the archive, so the writer never holds more
    than one chunk — and :meth:`finalize` appends the ``stream`` footer
    (meta, registry, chunk index with checksums) and atomically
    publishes the file.  A writer abandoned before ``finalize``
    (crash, :meth:`abort`, context-manager exit on error) leaves no
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
        for suffix, column in zip(_COLUMN_SUFFIXES, chunk.columns):
            _write_member(self._zip, _chunk_member(chunk.seq, suffix), column)
        self._index.append(
            {
                "seq": chunk.seq,
                "n_events": chunk.n_events,
                "crc32": list(chunk.checksums),
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
            "version": _STREAM_FORMAT_VERSION,
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


def save_trace_chunked(
    trace: EventTrace,
    registry: ObjectRegistry,
    path: Union[str, Path],
    chunk_events: int = DEFAULT_CHUNK_EVENTS,
) -> None:
    """Save an in-memory trace as a chunked (v2) archive."""
    with ChunkedTraceWriter(path) as writer:
        for chunk in iter_chunks(trace, chunk_events):
            writer.write_chunk(chunk)
        writer.finalize(trace.meta, registry)


# ---------------------------------------------------------------------------
# Readers
# ---------------------------------------------------------------------------


def _parse_stream_doc(doc: Dict[str, object], files: frozenset) -> None:
    """Structural validation of a v2 footer against the archive members."""
    if doc.get("version") != _STREAM_FORMAT_VERSION:
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

    v2 (chunked) archives stream chunk-by-chunk — at most one chunk's
    columns are resident at a time — with each chunk's framing
    (checksums, dtypes, kind range) verified against the footer index as
    it is read.  v1 (whole-trace) archives, which were written by runs
    that held the full trace anyway, load their columns whole and are
    re-chunked in memory at ``chunk_events`` events per chunk.

    Use as a context manager, or call :meth:`close`.  Iterating the
    reader yields its chunks.
    """

    def __init__(
        self,
        path: Union[str, Path],
        chunk_events: int = DEFAULT_CHUNK_EVENTS,
    ) -> None:
        self._path = Path(path)
        faultpoint("trace.load", path=self._path.name)
        self._chunk_events = chunk_events
        self._archive = np.load(self._path)
        try:
            files = frozenset(self._archive.files)
            if "stream" in files:
                self.version = _STREAM_FORMAT_VERSION
                doc = _parse_json_member(self._archive["stream"])
                _parse_stream_doc(doc, files)
                self._index: List[Dict[str, object]] = doc["chunks"]
                self.meta, self.registry = _meta_and_registry(doc)
                self.n_events = int(doc["n_events"])
                self._whole: Optional[EventTrace] = None
            elif "meta" in files:
                self.version = _FORMAT_VERSION
                trace, registry = _load_v1(self._archive)
                self._index = []
                self.meta = trace.meta
                self.registry = registry
                self.n_events = len(trace)
                self._whole = trace
            else:
                raise TraceFormatError(
                    "unrecognized trace file: no 'stream' or 'meta' member"
                )
        except BaseException:
            self._archive.close()
            raise

    @property
    def n_chunks(self) -> int:
        if self._whole is not None:
            return -(-self.n_events // self._chunk_events)
        return len(self._index)

    @property
    def chunk_events(self) -> int:
        """Nominal events per chunk — the dispatcher's streaming size
        hint (:func:`repro.simulate.simulate_chunks` forwards it)."""
        return self._chunk_events

    def chunks(self) -> Iterator[TraceChunk]:
        """Yield verified chunks in sequence order."""
        if self._whole is not None:
            yield from iter_chunks(self._whole, self._chunk_events)
            return
        for entry in self._index:
            seq = int(entry["seq"])
            columns = tuple(
                self._archive[_chunk_member(seq, suffix)]
                for suffix in _COLUMN_SUFFIXES
            )
            chunk = TraceChunk(
                seq, *columns, checksums=tuple(entry["crc32"])
            )
            chunk.verify()
            if chunk.n_events != entry["n_events"]:
                raise TraceFormatError(
                    f"chunk {seq} has {chunk.n_events} events; index "
                    f"says {entry['n_events']}"
                )
            yield chunk

    def verify(self) -> None:
        """Read and verify every chunk (one chunk resident at a time).

        The cache layer calls this on a hit so a corrupt entry is
        discovered — and recovered as a miss — before phase 2 starts,
        matching :func:`load_trace`'s eager validation.
        """
        total = 0
        for chunk in self.chunks():
            total += chunk.n_events
        if total != self.n_events:
            raise TraceFormatError(
                f"chunked trace holds {total} events; footer says "
                f"{self.n_events}"
            )

    def __iter__(self) -> Iterator[TraceChunk]:
        return self.chunks()

    def close(self) -> None:
        self._archive.close()

    def __enter__(self) -> "TraceStreamReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _load_v1(archive) -> Tuple[EventTrace, ObjectRegistry]:
    """Materialize a v1 archive (open ``np.load`` handle)."""
    try:
        meta_doc = _parse_json_member(archive["meta"])
        kinds = archive["kinds"]
        col_a = archive["col_a"]
        col_b = archive["col_b"]
        col_c = archive["col_c"]
    except KeyError as exc:
        raise TraceFormatError(f"missing field in trace file: {exc}") from exc
    if meta_doc.get("version") != _FORMAT_VERSION:
        raise TraceFormatError(
            f"unsupported trace format version {meta_doc.get('version')!r}"
        )
    # Adopt the .npz columns directly (no array('q') round-trip): the
    # loaded trace is replay-only, which is all phase 2 ever does with it,
    # and the native engine consumes the ndarrays zero-copy.
    meta, registry = _meta_and_registry(meta_doc)
    trace = EventTrace.from_arrays(kinds, col_a, col_b, col_c, meta)
    return trace, registry


def _load_v2(archive) -> Tuple[EventTrace, ObjectRegistry]:
    """Materialize a v2 archive (open ``np.load`` handle), verifying
    every chunk's checksums on the way in."""
    files = frozenset(archive.files)
    doc = _parse_json_member(archive["stream"])
    _parse_stream_doc(doc, files)
    columns: Dict[str, List[np.ndarray]] = {
        suffix: [] for suffix in _COLUMN_SUFFIXES
    }
    for entry in doc["chunks"]:
        seq = int(entry["seq"])
        parts = tuple(
            archive[_chunk_member(seq, suffix)]
            for suffix in _COLUMN_SUFFIXES
        )
        TraceChunk(seq, *parts, checksums=tuple(entry["crc32"])).verify()
        for suffix, part in zip(_COLUMN_SUFFIXES, parts):
            columns[suffix].append(part)
    if columns["kinds"]:
        joined = {
            suffix: np.concatenate(parts)
            for suffix, parts in columns.items()
        }
    else:
        joined = {
            "kinds": np.empty(0, dtype=np.int8),
            "col_a": np.empty(0, dtype=np.int64),
            "col_b": np.empty(0, dtype=np.int64),
            "col_c": np.empty(0, dtype=np.int64),
        }
    meta, registry = _meta_and_registry(doc)
    trace = EventTrace.from_arrays(
        joined["kinds"], joined["col_a"], joined["col_b"], joined["col_c"], meta,
    )
    return trace, registry


def load_trace(path: Union[str, Path]) -> Tuple[EventTrace, ObjectRegistry]:
    """Load a trace + registry saved by :func:`save_trace` (v1) or a
    :class:`ChunkedTraceWriter` (v2) as one in-memory trace."""
    path = Path(path)
    faultpoint("trace.load", path=path.name)
    with np.load(path) as archive:
        if "stream" in archive.files:
            trace, registry = _load_v2(archive)
        else:
            trace, registry = _load_v1(archive)
    trace.validate()
    return trace, registry
