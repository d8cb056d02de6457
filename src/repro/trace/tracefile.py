"""Trace persistence: the trace container.

A saved trace is one ``.npz`` (zip) archive, format version 4; the
byte-level spec is ``docs/TRACE_FORMAT.md``.  Each column is one
``.npy`` member — ``kinds`` as int8 and ``col_a``/``col_b``/``col_c``
as int32, the :data:`~repro.trace.events.STORED_DTYPES` every layer
keeps in memory too — and a ``stream`` JSON footer carries the format
version, the run meta, the object registry and the event count.

* :func:`save_trace` writes each column from the trace's own buffer,
  :data:`_SLICE_BYTES` at a time, so it neither copies a column nor
  holds a whole column's deflated bytes.  Zip computes each member's
  CRC-32 as the bytes go by; that is the one checksum of a column.
* :func:`load_trace` reads each column member, a slice at a time, into
  one array allocated at the member's declared length, and reads it to
  its end, where zip checks the member's CRC-32.

Archives of earlier format versions, and archives that are torn or
corrupt at any level (zip structure, deflate stream, member CRC,
``.npy`` header, footer, columns), raise
:class:`~repro.errors.TraceFormatError`, which the pipeline recovers as
a cache miss.

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
import zlib
from pathlib import Path
from typing import Dict, List, Tuple, Union

import numpy as np

from repro.errors import TraceFormatError
from repro.faults import faultpoint
from repro.trace.events import STORED_DTYPES, EventTrace, TraceColumns, TraceMeta
from repro.trace.objects import ObjectDesc, ObjectRegistry

_FORMAT_VERSION = 4

#: The column members, in :data:`STORED_DTYPES` order.
_COLUMN_NAMES = TraceColumns._fields

#: zlib level of every member the writer deflates.  Level 3 deflates
#: trace columns about twice as fast as zlib's default 6, for files about
#: half as large again; readers accept any level.
DEFLATE_LEVEL = 3

#: Bytes of a column member that the writer hands to the deflater, and
#: the reader takes from the inflater, at a time: what either side
#: holds beside the columns.  The deflated bytes do not depend on it.
_SLICE_BYTES = 1 << 18


# ---------------------------------------------------------------------------
# The footer: meta + registry serialization
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


def _footer_member(meta: TraceMeta, registry: ObjectRegistry,
                   n_events: int) -> np.ndarray:
    """The ``stream`` footer as the uint8 array an ``.npz`` member can
    carry: the bytes of ``json.dumps`` of the document ``{"version",
    "meta", "objects", "n_events"}``.

    The object records are encoded :data:`_RECORDS_PER_BATCH` at a time,
    so a registry of thousands of heap objects is never held whole as
    dicts, nor as the encoder's pieces; they were most of a save's
    transient memory.
    """
    head = json.dumps({"version": _FORMAT_VERSION, "meta": vars(meta)})
    tail = json.dumps({"n_events": n_events})
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
        doc = json.loads(raw.tobytes().decode("utf-8"))
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
    """Write the contiguous 1-D ``array`` as the ``.npy`` member ``name``
    (zip64 always, as ``np.savez`` writes its members).

    The bytes are those :func:`np.lib.format.write_array` writes, but the
    data goes to the archive from the array's own buffer, a slice at a
    time, not from a copy.
    """
    with archive.open(name + ".npy", "w", force_zip64=True) as member:
        np.lib.format.write_array_header_1_0(
            member, np.lib.format.header_data_from_array_1_0(array)
        )
        data = memoryview(array).cast("B")
        for start in range(0, len(data), _SLICE_BYTES):
            member.write(data[start:start + _SLICE_BYTES])


def _read_member(archive: zipfile.ZipFile, name: str) -> np.ndarray:
    """Member ``name`` (``.npy`` appended) as the 1-D array it holds.

    The payload is read a slice at a time into one array of the length
    the ``.npy`` header declares.  That length must fill the member to
    the size zip records, so the last slice reaches the member's end,
    where zip checks its CRC-32.  Damage at any level is a
    :class:`TraceFormatError` naming the member.
    """
    info = archive.getinfo(name + ".npy")
    try:
        with archive.open(info) as member:
            version = np.lib.format.read_magic(member)
            if version != (1, 0):  # what the writer and np.savez write
                raise ValueError(f".npy version {version}, not (1, 0)")
            shape, _fortran_order, dtype = \
                np.lib.format.read_array_header_1_0(member)
            if (dtype.hasobject or len(shape) != 1 or info.file_size
                    - member.tell() != shape[0] * dtype.itemsize):
                raise TraceFormatError(
                    f"member {name}: not a 1-D array of its declared size"
                )
            array = np.empty(shape[0], dtype)
            data = memoryview(array).cast("B")
            for start in range(0, len(data), _SLICE_BYTES):
                piece = data[start:start + _SLICE_BYTES]
                if member.readinto(piece) != len(piece):
                    raise TraceFormatError(f"member {name}: truncated")
    except (zipfile.BadZipFile, zlib.error, EOFError, ValueError,
            NotImplementedError) as exc:
        raise TraceFormatError(f"member {name}: {exc}") from exc
    return array


def save_trace(
    trace: EventTrace, registry: ObjectRegistry, path: Union[str, Path]
) -> None:
    """Save ``trace`` + ``registry`` to ``path``: one member per column,
    then the ``stream`` footer, published atomically.

    Each column is written from the trace's own buffer.  A column whose
    dtype is not its :data:`STORED_DTYPES` entry, or whose length is not
    the trace's, is a :class:`TraceFormatError`; an error at any point
    publishes nothing and leaves an existing entry at ``path`` intact.
    """
    path = Path(path)
    faultpoint("trace.save", path=path.name)
    columns = trace.as_arrays()
    n_events = len(columns.kinds)
    for name, column, dtype in zip(_COLUMN_NAMES, columns, STORED_DTYPES):
        if column.dtype != dtype:
            raise TraceFormatError(
                f"column {name} has dtype {column.dtype}, "
                f"expected {np.dtype(dtype)}"
            )
        if len(column) != n_events:
            raise TraceFormatError(
                f"ragged columns ({name} has {len(column)} events, "
                f"kinds has {n_events})"
            )
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle, _open_archive(handle) as archive:
            faultpoint("io.write", kind="trace")
            for name, column in zip(_COLUMN_NAMES, columns):
                _write_member(archive, name, column)
            faultpoint("io.write", kind="trace")
            _write_member(archive, "stream",
                          _footer_member(trace.meta, registry, n_events))
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def load_trace(path: Union[str, Path]) -> Tuple[EventTrace, ObjectRegistry]:
    """Load a trace + registry saved by :func:`save_trace` as one
    in-memory trace, its columns in :data:`STORED_DTYPES`.

    Checked: the footer (version, meta, objects, event count), each
    member's zip CRC-32, each column's stored dtype and length, and then
    :meth:`EventTrace.validate` (meta counts, kind range).
    """
    path = Path(path)
    faultpoint("trace.load", path=path.name)
    try:
        archive = zipfile.ZipFile(path)
    except zipfile.BadZipFile as exc:
        raise TraceFormatError(f"corrupt trace archive: {exc}") from exc
    with archive:
        members = frozenset(archive.namelist())
        if "stream.npy" not in members:
            raise TraceFormatError(
                "unsupported trace format version: no 'stream' footer"
            )
        doc = _parse_json_member(_read_member(archive, "stream"))
        if doc.get("version") != _FORMAT_VERSION:
            raise TraceFormatError(
                f"unsupported trace format version {doc.get('version')!r}"
            )
        meta, registry = _meta_and_registry(doc)
        n_events = doc.get("n_events")
        if not isinstance(n_events, int):
            raise TraceFormatError(
                "malformed trace metadata: n_events is not an integer"
            )
        columns = []
        for name, dtype in zip(_COLUMN_NAMES, STORED_DTYPES):
            if name + ".npy" not in members:
                raise TraceFormatError(f"truncated trace: missing member {name}")
            column = _read_member(archive, name)
            if column.dtype != dtype:
                raise TraceFormatError(
                    f"column {name} has dtype {column.dtype}, "
                    f"expected {np.dtype(dtype)}"
                )
            if len(column) != n_events:
                raise TraceFormatError(
                    f"column {name} has {len(column)} events; footer says "
                    f"{n_events}"
                )
            columns.append(column)
    trace = EventTrace.from_arrays(*columns, meta)
    trace.validate()
    return trace, registry
