"""Tests for the chunked trace container and its readers.

The byte-level contract is ``docs/TRACE_FORMAT.md``: incremental chunk
members (int8 kinds, int32 address columns) plus a ``stream`` footer,
atomic publish, and loud failure on truncation, reordering, checksum
mismatch, a column value that does not fit its stored dtype, or an
unknown version.  Every file loads through both access paths
(:func:`load_trace` and :class:`TraceStreamReader`).  Also the per-chunk
column checks (:func:`verify_columns`), the writer's fault point, and
the docs-lint that keeps ``docs/TRACE_FORMAT.md`` honest.
"""

from __future__ import annotations

import importlib.util
import io
import json
import struct
import zipfile
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro import faults
from repro.errors import PipelineError, TraceFormatError, TraceRangeError
from repro.trace import (
    EventKind,
    EventTrace,
    ObjectRegistry,
    TraceMeta,
    load_trace,
    save_trace,
)
from repro.trace.tracefile import (
    SAVE_CHUNK_EVENTS,
    STORED_DTYPES,
    ChunkedTraceWriter,
    TraceStreamReader,
    column_crc32,
    verify_columns,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def build_fixture(n_events=100):
    """A deterministic trace + registry with every object kind."""
    registry = ObjectRegistry()
    registry.global_("g", 4)
    registry.local("main", "i", 4, is_param=False)
    registry.static("leaf", "seen", 4)
    registry.heap("main", ("main",), 16)
    trace = EventTrace("chunked-test")
    for i in range(n_events):
        which = i % 5
        base = 0x1000 + 8 * i
        if which == 0:
            trace.append_install(i % 4, base, base + 8)
        elif which == 1:
            trace.append_remove(i % 4, base, base + 8)
        else:
            trace.append_write(base, base + 4)
    trace.meta.cycles = 1234
    trace.meta.instructions = 567
    trace.meta.stores = n_events
    return trace, registry


def tiled_fixture(n_events):
    """:func:`build_fixture`'s 100 events repeated to ``n_events``,
    built as arrays (a large trace without a Python loop)."""
    small, registry = build_fixture()
    columns = [np.resize(np.asarray(column), n_events)
               for column in small.as_arrays()]
    meta = TraceMeta(**vars(small.meta))
    meta.stores = n_events
    meta.n_writes = int(np.count_nonzero(columns[0] == EventKind.WRITE))
    meta.n_installs = int(np.count_nonzero(columns[0] == EventKind.INSTALL))
    meta.n_removes = int(np.count_nonzero(columns[0] == EventKind.REMOVE))
    return EventTrace.from_arrays(*columns, meta), registry


def column_slices(trace, chunk_events):
    """``trace``'s columns cut every ``chunk_events`` events: a list of
    ``[kinds, col_a, col_b, col_c]`` slices, one per chunk."""
    columns = trace.as_arrays()
    return [[column[start:start + chunk_events] for column in columns]
            for start in range(0, len(columns.kinds), chunk_events)]


def save_chunked(trace, registry, path, chunk_events):
    """Save ``trace`` through the writer, ``chunk_events`` per chunk."""
    with ChunkedTraceWriter(path) as writer:
        for seq, columns in enumerate(column_slices(trace, chunk_events)):
            writer.write_columns(seq, columns)
        writer.finalize(trace.meta, registry)


def read_all(reader):
    """Read and verify every chunk of ``reader``; their columns."""
    return list(reader.stored_chunks())


def assert_same_trace(loaded, original):
    trace, registry = loaded
    assert vars(trace.meta) == vars(original[0].meta)
    got = trace.as_arrays()
    want = original[0].as_arrays()
    for field in got._fields:
        assert np.array_equal(
            np.asarray(getattr(got, field)), np.asarray(getattr(want, field))
        ), field
    assert [vars(obj) for obj in registry.objects] == \
        [vars(obj) for obj in original[1].objects]


def _members(path):
    """All archive members as {name-without-.npy: ndarray}."""
    with np.load(path) as archive:
        return {name: archive[name] for name in archive.files}


def _write_zip(path, arrays):
    """Rebuild an archive from a member dict (the corruption helper)."""
    with zipfile.ZipFile(path, "w") as zf:
        for name, array in arrays.items():
            with zf.open(name + ".npy", "w") as member:
                np.lib.format.write_array(member, array, allow_pickle=False)


def _rewrite_doc(path, member, edit):
    """Replace the JSON member ``member`` by ``edit(its document)``."""
    arrays = _members(path)
    doc = json.loads(bytes(arrays[member].tobytes()).decode("utf-8"))
    arrays[member] = np.frombuffer(
        json.dumps(edit(doc)).encode("utf-8"), dtype=np.uint8
    )
    _write_zip(path, arrays)


def _edit_footer(path, mutate):
    """Parse the footer JSON, apply ``mutate(doc)``, write it back."""
    def edit(doc):
        mutate(doc)
        return doc

    _rewrite_doc(path, "stream", edit)


class TestRoundTrip:
    @pytest.mark.parametrize("chunk_events", [1, 7, 100, 1000])
    def test_chunked_save_load(self, tmp_path, chunk_events):
        original = build_fixture()
        path = tmp_path / "trace.npz"
        save_chunked(*original, path, chunk_events=chunk_events)
        assert_same_trace(load_trace(path), original)

    def test_save_trace_round_trips(self, tmp_path):
        original = build_fixture()
        save_trace(*original, tmp_path / "trace.npz")
        trace, _ = load_trace(tmp_path / "trace.npz")
        assert_same_trace((trace, original[1]), original)
        assert [np.asarray(column).dtype for column in trace.as_arrays()] \
            == [np.int8, np.int32, np.int32, np.int32]

    @pytest.mark.parametrize("n_events", [
        1, SAVE_CHUNK_EVENTS - 1, SAVE_CHUNK_EVENTS, SAVE_CHUNK_EVENTS + 1,
        2 * SAVE_CHUNK_EVENTS, 2 * SAVE_CHUNK_EVENTS + 1,
    ])
    def test_save_trace_round_trips_at_chunk_boundaries(self, tmp_path,
                                                        n_events):
        # load_trace is how every run, a pool worker's included, gets a
        # cached trace: the columns come back bit for bit on whichever
        # side of a chunk boundary the trace ends.
        original = tiled_fixture(n_events)
        path = tmp_path / "trace.npz"
        save_trace(*original, path)
        assert_same_trace(load_trace(path), original)
        with TraceStreamReader(path) as reader:
            sizes = [len(chunk[0]) for chunk in read_all(reader)]
        full, rest = divmod(n_events, SAVE_CHUNK_EVENTS)
        assert sizes == [SAVE_CHUNK_EVENTS] * full + ([rest] if rest else [])

    def test_empty_trace_round_trips(self, tmp_path):
        registry = ObjectRegistry()
        registry.heap("main", ("main",), 8)
        empty = EventTrace("empty")
        path = tmp_path / "empty.npz"
        save_trace(empty, registry, path)
        trace, loaded_registry = load_trace(path)
        assert len(trace) == 0
        assert len(loaded_registry.objects) == 1
        with TraceStreamReader(path) as reader:
            assert reader.n_chunks == 0
            assert read_all(reader) == []


class TestStreamReader:
    def test_reads_chunk_by_chunk(self, tmp_path):
        original = build_fixture()
        path = tmp_path / "trace.npz"
        save_chunked(*original, path, chunk_events=17)
        with TraceStreamReader(path) as reader:
            assert reader.n_events == len(original[0])
            assert reader.n_chunks == -(-100 // 17)
            assert vars(reader.meta) == vars(original[0].meta)
            chunks = read_all(reader)
            assert [len(chunk[0]) for chunk in chunks] == [17] * 5 + [15]
            joined = np.concatenate([chunk[0] for chunk in chunks])
            assert np.array_equal(
                joined, np.asarray(original[0].as_arrays().kinds)
            )

    def test_save_trace_chunk_size(self, tmp_path):
        original = build_fixture(n_events=SAVE_CHUNK_EVENTS + 5)
        path = tmp_path / "trace.npz"
        save_trace(*original, path)
        with TraceStreamReader(path) as reader:
            assert [len(chunk[0]) for chunk in read_all(reader)] == \
                [SAVE_CHUNK_EVENTS, 5]

    @pytest.mark.parametrize("members", [
        {"payload": np.zeros(4)},
        # The whole-trace layout of format version 1.
        {"kinds": np.zeros(1, np.int8), "meta": np.zeros(2, np.uint8)},
    ], ids=["mystery", "meta-member"])
    def test_rejects_archive_without_footer(self, tmp_path, members):
        path = tmp_path / "old.npz"
        np.savez(path, **members)
        with pytest.raises(TraceFormatError,
                           match="unsupported trace format version"):
            TraceStreamReader(path)
        with pytest.raises(TraceFormatError,
                           match="unsupported trace format version"):
            load_trace(path)


class TestCorruptionDetection:
    @pytest.fixture
    def saved(self, tmp_path):
        original = build_fixture()
        path = tmp_path / "trace.npz"
        save_chunked(*original, path, chunk_events=25)
        return path

    def test_missing_chunk_member_is_truncation(self, saved):
        arrays = _members(saved)
        del arrays["chunk-00000002.col_b"]
        _write_zip(saved, arrays)
        with pytest.raises(
            TraceFormatError,
            match="truncated chunked trace: missing member chunk-00000002",
        ):
            TraceStreamReader(saved)
        with pytest.raises(TraceFormatError):
            load_trace(saved)

    def test_bitflip_in_column_fails_checksum(self, saved):
        arrays = _members(saved)
        tampered = arrays["chunk-00000001.col_a"].copy()
        tampered[3] ^= 1
        arrays["chunk-00000001.col_a"] = tampered
        _write_zip(saved, arrays)
        with TraceStreamReader(saved) as reader:
            with pytest.raises(
                TraceFormatError, match="chunk 1: column col_a checksum"
            ):
                read_all(reader)
        with pytest.raises(TraceFormatError, match="checksum"):
            load_trace(saved)

    @pytest.mark.parametrize("version", [2, 4])
    def test_other_version_rejected(self, saved, version):
        _edit_footer(saved, lambda doc: doc.update(version=version))
        with pytest.raises(
            TraceFormatError,
            match=f"unsupported trace format version {version}",
        ):
            TraceStreamReader(saved)
        with pytest.raises(TraceFormatError, match="unsupported"):
            load_trace(saved)

    def _rewrite_member(self, saved, member, column):
        """Replace one chunk member and its footer checksum, so only the
        check under test can catch the change."""
        arrays = _members(saved)
        arrays[member] = column
        seq = int(member[len("chunk-"):len("chunk-") + 8])
        position = ("kinds", "col_a", "col_b", "col_c").index(
            member.rsplit(".", 1)[1])
        doc = json.loads(bytes(arrays["stream"].tobytes()).decode("utf-8"))
        doc["chunks"][seq]["crc32"][position] = column_crc32(column)
        arrays["stream"] = np.frombuffer(
            json.dumps(doc).encode("utf-8"), dtype=np.uint8)
        _write_zip(saved, arrays)

    def test_wide_stored_column_rejected(self, saved):
        column = _members(saved)["chunk-00000001.col_b"].astype(np.int64)
        self._rewrite_member(saved, "chunk-00000001.col_b", column)
        with pytest.raises(TraceFormatError,
                           match="chunk 1: column col_b has dtype int64"):
            load_trace(saved)

    def test_ragged_stored_column_rejected(self, saved):
        column = _members(saved)["chunk-00000002.col_c"][:-1]
        self._rewrite_member(saved, "chunk-00000002.col_c", column)
        with pytest.raises(TraceFormatError, match="chunk 2: ragged columns"):
            load_trace(saved)

    def test_invalid_kind_rejected(self, saved):
        column = _members(saved)["chunk-00000003.kinds"].copy()
        column[4] = 77
        self._rewrite_member(saved, "chunk-00000003.kinds", column)
        with pytest.raises(TraceFormatError,
                           match="chunk 3: invalid event kind 77"):
            load_trace(saved)

    def test_chunk_event_count_checked_against_index(self, saved):
        def move_one_event(doc):
            doc["chunks"][0]["n_events"] -= 1
            doc["chunks"][1]["n_events"] += 1

        _edit_footer(saved, move_one_event)
        with pytest.raises(TraceFormatError,
                           match="chunk 0 has 25 events; index says 24"):
            load_trace(saved)

    def test_footer_event_total_mismatch(self, saved):
        _edit_footer(saved, lambda doc: doc.update(n_events=doc["n_events"] + 1))
        with pytest.raises(TraceFormatError, match="footer says"):
            TraceStreamReader(saved)

    def test_reordered_chunk_index_rejected(self, saved):
        def swap(doc):
            doc["chunks"][0], doc["chunks"][1] = \
                doc["chunks"][1], doc["chunks"][0]

        _edit_footer(saved, swap)
        with pytest.raises(TraceFormatError, match="chunk index out of order"):
            TraceStreamReader(saved)

    def test_garbage_footer_is_corrupt_metadata(self, saved):
        arrays = _members(saved)
        arrays["stream"] = np.frombuffer(b"not json at all", dtype=np.uint8)
        _write_zip(saved, arrays)
        with pytest.raises(TraceFormatError, match="corrupt trace metadata"):
            TraceStreamReader(saved)

    # The reader inflates members itself, without zipfile's CRC check:
    # damage below the .npy level must still be a TraceFormatError.

    def test_garbled_deflate_stream_is_a_format_error(self, saved):
        info = _member_info(saved, "chunk-00000002.col_b")
        data = bytearray(saved.read_bytes())
        start = _data_offset(data, info)
        data[start:start + info.compress_size] = bytes(
            (byte ^ 0x5A) for byte in data[start:start + info.compress_size])
        saved.write_bytes(bytes(data))
        with TraceStreamReader(saved) as reader:
            with pytest.raises(TraceFormatError, match="chunk-00000002.col_b"):
                read_all(reader)
        with pytest.raises(TraceFormatError):
            load_trace(saved)

    def test_member_past_the_end_of_file_is_truncation(self, saved):
        _patch_central(saved, "chunk-00000003.kinds", 20, 1 << 30)
        with TraceStreamReader(saved) as reader:
            with pytest.raises(TraceFormatError, match="truncated"):
                read_all(reader)

    def test_bad_local_header_is_a_format_error(self, saved):
        info = _member_info(saved, "chunk-00000000.col_c")
        data = bytearray(saved.read_bytes())
        data[info.header_offset] ^= 0xFF
        saved.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="bad local header"):
            load_trace(saved)

    def test_footer_is_checked_against_its_zip_crc(self, saved):
        info = _member_info(saved, "stream")
        _patch_central(saved, "stream", 16, info.CRC ^ 1)
        with pytest.raises(TraceFormatError, match="stream: zip CRC mismatch"):
            TraceStreamReader(saved)

    def test_torn_archive_is_a_format_error(self, saved):
        saved.write_bytes(saved.read_bytes()[:-200])
        with pytest.raises(TraceFormatError, match="corrupt trace archive"):
            load_trace(saved)


def _member_info(path, member):
    with zipfile.ZipFile(path) as archive:
        return archive.getinfo(member + ".npy")


def _data_offset(data, info):
    """Where ``info``'s member data starts in the archive bytes ``data``."""
    name_length, extra_length = struct.unpack_from(
        "<HH", data, info.header_offset + 26)
    return info.header_offset + 30 + name_length + extra_length


def _patch_central(path, member, field, value):
    """Overwrite the 4-byte field at offset ``field`` of ``member``'s
    central directory record (16: CRC-32, 20: compressed size)."""
    data = bytearray(path.read_bytes())
    name = (member + ".npy").encode()
    record = data.rindex(b"PK\x01\x02", 0, data.rindex(name))
    struct.pack_into("<I", data, record + field, value)
    path.write_bytes(bytes(data))


def _read_both_ways(path):
    """The trace at ``path`` through :func:`load_trace` and through a
    :class:`TraceStreamReader` (columns joined from its chunks)."""
    loaded, registry = load_trace(path)
    with TraceStreamReader(path) as reader:
        chunks = read_all(reader)
        streamed = EventTrace.from_arrays(
            *(np.concatenate([chunk[i] for chunk in chunks])
              for i in range(len(STORED_DTYPES))),
            reader.meta,
        )
        assert [vars(obj) for obj in reader.registry.objects] == \
            [vars(obj) for obj in registry.objects]
    return loaded, streamed, registry


def assert_bit_identical(trace, original):
    assert vars(trace.meta) == vars(original.meta)
    for got, want in zip(trace.as_arrays(), original.as_arrays()):
        got, want = np.asarray(got), np.asarray(want)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def _local_extra_ids(path, info):
    """Header ids of the extra fields in ``info``'s local file header."""
    with open(path, "rb") as handle:
        handle.seek(info.header_offset)
        header = handle.read(30)
        name_len, extra_len = struct.unpack("<HH", header[26:30])
        handle.seek(name_len, io.SEEK_CUR)
        extra = handle.read(extra_len)
    ids = []
    while extra:
        header_id, size = struct.unpack("<HH", extra[:4])
        ids.append(header_id)
        extra = extra[4 + size:]
    return ids


class TestContainer:
    """The writer deflates through one zip helper; the members, their
    ``.npy`` bytes and the readers do not depend on the deflate level."""

    @pytest.mark.parametrize("chunk_events", [7, SAVE_CHUNK_EVENTS])
    def test_both_readers_load_bit_identical(self, tmp_path, chunk_events):
        original = build_fixture()
        path = tmp_path / "trace.npz"
        save_chunked(*original, path, chunk_events)
        loaded, streamed, registry = _read_both_ways(path)
        assert_bit_identical(loaded, original[0])
        assert_bit_identical(streamed, original[0])
        assert [vars(obj) for obj in registry.objects] == \
            [vars(obj) for obj in original[1].objects]

    def test_default_level_savez_archive_loads(self, tmp_path):
        """Archives ``np.savez_compressed`` wrote at zlib's default level,
        as the committed cache entries are, load through both readers."""
        original = build_fixture()
        save_trace(*original, tmp_path / "new.npz")
        old = tmp_path / "old.npz"
        np.savez_compressed(old, **_members(tmp_path / "new.npz"))
        loaded, streamed, _ = _read_both_ways(old)
        assert_bit_identical(loaded, original[0])
        assert_bit_identical(streamed, original[0])

    def test_members_and_npy_bytes_match_savez(self, tmp_path):
        """``save_trace`` writes the members ``np.savez_compressed``
        would, in the same order, with the same ``.npy`` bytes, deflated
        and with a zip64 local header."""
        original = build_fixture()
        path = tmp_path / "new.npz"
        save_trace(*original, path)
        reference = tmp_path / "savez.npz"
        np.savez_compressed(reference, **_members(path))
        with zipfile.ZipFile(path) as ours, zipfile.ZipFile(reference) as theirs:
            assert ours.namelist() == theirs.namelist() == [
                *(f"chunk-00000000.{column}.npy"
                  for column in ("kinds", "col_a", "col_b", "col_c")),
                "stream.npy"]
            for info in ours.infolist():
                assert info.compress_type == zipfile.ZIP_DEFLATED
                assert _local_extra_ids(path, info) == [0x0001]
                assert ours.read(info.filename) == theirs.read(info.filename)

    def test_chunk_members_are_plain_npy(self, tmp_path):
        original = build_fixture()
        path = tmp_path / "trace.npz"
        save_chunked(*original, path, chunk_events=40)
        arrays = _members(path)
        for seq in range(3):
            assert [arrays[f"chunk-{seq:08d}.{column}"].dtype for column in
                    ("kinds", "col_a", "col_b", "col_c")] == \
                list(STORED_DTYPES) == [np.int8, np.int32, np.int32, np.int32]
        with zipfile.ZipFile(path) as archive:
            names = archive.namelist()
            assert names[-1] == "stream.npy"
            assert names[:4] == [f"chunk-00000000.{column}.npy" for column in
                                 ("kinds", "col_a", "col_b", "col_c")]
            for info in archive.infolist():
                assert info.compress_type == zipfile.ZIP_DEFLATED
                assert _local_extra_ids(path, info) == [0x0001]
                npy = io.BytesIO()
                np.lib.format.write_array(
                    npy, arrays[info.filename[:-4]], allow_pickle=False)
                assert archive.read(info.filename) == npy.getvalue()


def _without(key):
    return lambda doc: {k: v for k, v in doc.items() if k != key}


def _with_meta(**fields):
    return lambda doc: {**doc, "meta": {**doc["meta"], **fields}}


#: Malformed metadata a footer may carry.
_MALFORMED = {
    "no-meta": _without("meta"),
    "no-objects": _without("objects"),
    "object-without-id": lambda doc: {**doc, "objects": [
        {k: v for k, v in obj.items() if k != "id"} for obj in doc["objects"]]},
    "object-not-a-dict": lambda doc: {**doc, "objects": [["local"]]},
    "meta-not-a-dict": lambda doc: {**doc, "meta": [1, 2]},
    "unknown-meta-field": _with_meta(bogus=1),
    "non-integer-count": _with_meta(n_writes="many"),
    "document-is-a-list": lambda doc: [doc],
}
#: Malformed chunk indexes of a footer.
_MALFORMED_INDEX = {
    "entry-not-a-dict": lambda doc: {**doc, "chunks": [7, *doc["chunks"][1:]]},
    "entry-without-crc32": lambda doc: {**doc, "chunks": [
        _without("crc32")(doc["chunks"][0]), *doc["chunks"][1:]]},
    "entry-with-three-crc32s": lambda doc: {**doc, "chunks": [
        {**doc["chunks"][0], "crc32": doc["chunks"][0]["crc32"][:3]},
        *doc["chunks"][1:]]},
    "entry-without-n_events": lambda doc: {**doc, "chunks": [
        _without("n_events")(doc["chunks"][0]), *doc["chunks"][1:]]},
}


@pytest.mark.parametrize("edit", [*_MALFORMED, *_MALFORMED_INDEX])
def test_malformed_metadata_is_a_trace_format_error(tmp_path, edit):
    """Both loaders raise TraceFormatError, never KeyError, TypeError or
    AttributeError, on any malformed metadata document."""
    original = build_fixture()
    path = tmp_path / "trace.npz"
    save_chunked(*original, path, chunk_events=30)
    _rewrite_doc(path, "stream", {**_MALFORMED, **_MALFORMED_INDEX}[edit])
    with pytest.raises(TraceFormatError):
        load_trace(path)
    with pytest.raises(TraceFormatError):
        with TraceStreamReader(path) as reader:
            read_all(reader)


class TestWriterProtocol:
    def test_abort_leaves_destination_untouched(self, tmp_path):
        original = build_fixture()
        dest = tmp_path / "trace.npz"
        save_chunked(*original, dest, chunk_events=40)
        before = dest.read_bytes()
        writer = ChunkedTraceWriter(dest)
        writer.write_columns(0, column_slices(original[0], 10)[0])
        writer.abort()
        # The published entry is intact; the temp file is gone.
        assert dest.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.npz"]

    def test_context_exit_without_finalize_publishes_nothing(self, tmp_path):
        original = build_fixture()
        dest = tmp_path / "trace.npz"
        with pytest.raises(RuntimeError, match="mid-write"):
            with ChunkedTraceWriter(dest) as writer:
                for seq, columns in enumerate(column_slices(original[0], 30)):
                    writer.write_columns(seq, columns)
                    raise RuntimeError("simulated crash mid-write")
        assert not dest.exists()
        assert list(tmp_path.iterdir()) == []

    def test_rejects_out_of_order_chunks(self, tmp_path):
        original = build_fixture()
        chunks = column_slices(original[0], 30)
        with ChunkedTraceWriter(tmp_path / "trace.npz") as writer:
            writer.write_columns(0, chunks[0])
            with pytest.raises(PipelineError, match="out of order"):
                writer.write_columns(2, chunks[2])

    def test_write_after_finalize_rejected(self, tmp_path):
        trace, registry = build_fixture()
        chunks = column_slices(trace, 60)
        with ChunkedTraceWriter(tmp_path / "trace.npz") as writer:
            writer.write_columns(0, chunks[0])
            writer.write_columns(1, chunks[1])
            writer.finalize(trace.meta, registry)
            with pytest.raises(PipelineError, match="closed trace writer"):
                writer.write_columns(
                    2, [np.zeros(0, dtype) for dtype in STORED_DTYPES])

    def test_injected_spill_fault_aborts_writer(self, tmp_path):
        original = build_fixture()
        dest = tmp_path / "trace.npz"
        faults.install("stream.spill:corrupt")
        try:
            with pytest.raises(faults.InjectedCorruption):
                with ChunkedTraceWriter(dest) as writer:
                    writer.write_columns(0, column_slices(original[0], 10)[0])
        finally:
            faults.clear_plan()
        # The writer aborted: no partial file published.
        assert not dest.exists()
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("nth", [1, 2])
    def test_spill_fault_in_save_trace_keeps_the_old_entry(self, tmp_path,
                                                          nth):
        """``save_trace`` of a two-chunk trace, faulted before its first
        or its second chunk, publishes nothing over the existing entry."""
        dest = tmp_path / "trace.npz"
        save_trace(*build_fixture(), dest)
        before = dest.read_bytes()
        faults.install(f"stream.spill:corrupt@{nth}")
        try:
            with pytest.raises(faults.InjectedCorruption):
                save_trace(*tiled_fixture(SAVE_CHUNK_EVENTS + 1), dest)
        finally:
            faults.clear_plan()
        assert dest.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["trace.npz"]


class TestNarrowColumns:
    """Address columns are int32 in every layer.  A value that does not
    fit is refused where an int32 column is first produced, rather than
    truncated, and a writer given a column of another dtype publishes
    nothing."""

    def test_address_space_bounds_round_trip(self, tmp_path):
        registry = ObjectRegistry()
        registry.global_("g", 4)
        trace = EventTrace("bounds")
        trace.append_install(0, 0, 1 << 24)
        trace.append_write((1 << 24) - 4, 1 << 24)
        trace.append_remove(0, 0, 1 << 24)
        save_trace(trace, registry, tmp_path / "trace.npz")
        assert_same_trace(load_trace(tmp_path / "trace.npz"),
                          (trace, registry))

    @pytest.mark.parametrize("begin,end", [
        (0, 1 << 31), (0x1000, 1 << 40), (-(1 << 31) - 1, 0)])
    def test_out_of_range_value_raises_and_publishes_nothing(
            self, tmp_path, begin, end):
        original = build_fixture()
        dest = tmp_path / "trace.npz"
        save_trace(*original, dest)
        before = dest.read_bytes()
        trace, registry = build_fixture()
        with pytest.raises(TraceRangeError, match="outside int32"):
            trace.append_write(begin, end)
        with pytest.raises(TraceRangeError, match="outside int32"):
            trace.append_install(0, begin, end)
        with pytest.raises(TraceRangeError, match="outside int32"):
            trace.append_remove(0, begin, end)
        # Each append checked before appending anything: no ragged
        # columns, no event of the refused ones.
        trace.validate()
        assert_same_trace((trace, registry), original)
        wide = [np.append(np.asarray(column).astype(np.int64), value)
                for column, value in zip(original[0].as_arrays(),
                                         (EventKind.WRITE, begin, end, 0))]
        with pytest.raises(TraceRangeError, match="outside int32"):
            EventTrace.from_arrays(*wide, TraceMeta())
        with pytest.raises(TraceFormatError, match="has dtype int64"):
            with ChunkedTraceWriter(dest) as writer:
                writer.write_columns(0, wide)
        assert dest.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.npz"]


def test_worked_example_footer_entry(tmp_path):
    """The index entry of docs/TRACE_FORMAT.md section 4: the checksums
    cover the stored int8/int32 column bytes."""
    registry = ObjectRegistry()
    registry.global_("g", 8)
    trace = EventTrace("example")
    trace.append_install(0, 0x1000, 0x1008)
    trace.append_write(0x1000, 0x1004)
    trace.append_remove(0, 0x1000, 0x1008)
    path = tmp_path / "example.npz"
    save_trace(trace, registry, path)
    doc = json.loads(bytes(_members(path)["stream"].tobytes()).decode("utf-8"))
    assert doc["version"] == 3
    assert doc["chunks"] == [{"seq": 0, "n_events": 3, "crc32": [
        1000374730, 470506145, 714159072, 180223941]}]
    with zipfile.ZipFile(path) as archive:
        assert len(archive.read("chunk-00000000.kinds.npy")) == 131


@pytest.mark.parametrize("n_heap", [0, 1, 1100])
def test_footer_is_json_dumps_of_the_document(tmp_path, n_heap):
    """The footer encodes its object records a batch at a time; the
    bytes are still exactly ``json.dumps`` of the whole document."""
    trace, registry = build_fixture() if n_heap else (
        EventTrace("empty"), ObjectRegistry())
    for i in range(n_heap):
        registry.heap(f"f{i % 7}", ("main", f"f{i % 7}"), 8 + i)
    path = tmp_path / "trace.npz"
    save_chunked(trace, registry, path, chunk_events=40)
    raw = bytes(_members(path)["stream"].tobytes())
    doc = json.loads(raw.decode("utf-8"))
    assert len(doc["objects"]) == len(registry.objects)
    assert raw == json.dumps({
        "version": 3,
        "meta": vars(trace.meta),
        "objects": [
            {"id": obj.id, "kind": obj.kind, "name": obj.name,
             "function": obj.function, "context": list(obj.context),
             "size_bytes": obj.size_bytes, "is_param": obj.is_param}
            for obj in registry.objects],
        "n_events": len(trace),
        "chunks": doc["chunks"],
    }).encode("utf-8")


def stored_columns(n=8):
    """``n`` WRITE events as stored columns, and their checksums."""
    col_a = np.arange(n, dtype=np.int32)
    columns = [np.full(n, EventKind.WRITE, dtype=np.int8), col_a, col_a + 4,
               np.zeros(n, dtype=np.int32)]
    return columns, [column_crc32(column) for column in columns]


class TestVerifyColumns:
    def test_column_crc32_matches_zlib(self):
        column = np.arange(5, dtype=np.int64)
        assert column_crc32(column) == zlib.crc32(column.tobytes()) & 0xFFFFFFFF

    def test_intact_columns_pass(self):
        verify_columns(0, *stored_columns())

    def test_detects_checksum_corruption(self):
        columns, crcs = stored_columns()
        columns[2][2] ^= 0x40  # a bit flip after the checksum was taken
        with pytest.raises(TraceFormatError, match="col_b checksum mismatch"):
            verify_columns(0, columns, crcs)

    def test_detects_ragged_columns(self):
        columns, crcs = stored_columns()
        columns[3] = columns[3][:-1]
        with pytest.raises(TraceFormatError, match="ragged"):
            verify_columns(0, columns, crcs)

    def test_detects_wrong_dtype(self):
        columns, crcs = stored_columns()
        columns[1] = columns[1].astype(np.int64)
        with pytest.raises(TraceFormatError, match="dtype"):
            verify_columns(0, columns, crcs)

    def test_detects_bad_kind_byte(self):
        columns, _ = stored_columns()
        columns[0][3] = 77
        crcs = [column_crc32(column) for column in columns]
        with pytest.raises(TraceFormatError, match="invalid event kind 77"):
            verify_columns(0, columns, crcs)

    def test_format_errors_are_pipeline_errors(self):
        # The acceptance bar is "a clear PipelineError": framing failures
        # must classify as fatal, not transient, in keep-going runs.
        assert issubclass(TraceFormatError, PipelineError)


class TestDocsLint:
    def test_trace_format_doc_matches_implementation(self):
        """Tier-1 wiring for tools/lint_trace_format.py (the docs-lint)."""
        lint_path = REPO_ROOT / "tools" / "lint_trace_format.py"
        spec = importlib.util.spec_from_file_location(
            "lint_trace_format", lint_path
        )
        lint = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(lint)
        doc = (REPO_ROOT / "docs" / "TRACE_FORMAT.md").read_text(
            encoding="utf-8"
        )
        assert lint.check(doc) == []
        # A drifted doc is detected, and --write would repair it.
        drifted = doc.replace("| `WRITE` | 3 |", "| `WRITE` | 9 |")
        assert lint.check(drifted) == ["kind-table"]
        assert lint.check(lint.write(drifted)) == []
        drifted = doc.replace("| `chunk-<seq>.col_a` | `int32`",
                              "| `chunk-<seq>.col_a` | `int64`")
        assert lint.check(drifted) == ["stored-column-table"]
