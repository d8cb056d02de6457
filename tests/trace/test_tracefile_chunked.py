"""Tests for the chunked trace container and its readers.

The byte-level contract is ``docs/TRACE_FORMAT.md``: incremental chunk
members (int8 kinds, int32 address columns) plus a ``stream`` footer,
atomic publish, and loud failure on truncation, reordering, checksum
mismatch, a column value that does not fit its stored dtype, or an
unknown version.  Every file loads through both access paths
(:func:`load_trace` and :class:`TraceStreamReader`), which is what makes
cache entries interchangeable between ``--stream`` and batch runs.
"""

from __future__ import annotations

import io
import json
import struct
import zipfile

import numpy as np
import pytest

from repro.errors import PipelineError, TraceFormatError, TraceRangeError
from repro.trace import (
    EventTrace,
    ObjectRegistry,
    load_trace,
    save_trace,
)
from repro.trace.stream import TraceChunk, column_crc32, iter_chunks
from repro.trace.tracefile import (
    SAVE_CHUNK_EVENTS,
    STORED_DTYPES,
    ChunkedTraceWriter,
    TraceStreamReader,
)


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


def save_chunked(trace, registry, path, chunk_events):
    """Save ``trace`` through the writer, ``chunk_events`` per chunk."""
    with ChunkedTraceWriter(path) as writer:
        for chunk in iter_chunks(trace, chunk_events):
            writer.write_chunk(chunk)
        writer.finalize(trace.meta, registry)


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
            == [np.int8, np.int64, np.int64, np.int64]

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
            assert list(reader.chunks()) == []


class TestStreamReader:
    def test_reads_chunk_by_chunk(self, tmp_path):
        original = build_fixture()
        path = tmp_path / "trace.npz"
        save_chunked(*original, path, chunk_events=17)
        with TraceStreamReader(path) as reader:
            assert reader.n_events == len(original[0])
            assert reader.n_chunks == -(-100 // 17)
            assert vars(reader.meta) == vars(original[0].meta)
            chunks = list(reader)
            assert [chunk.seq for chunk in chunks] == \
                list(range(reader.n_chunks))
            joined = np.concatenate([chunk.kinds for chunk in chunks])
            assert np.array_equal(
                joined, np.asarray(original[0].as_arrays().kinds)
            )
            reader.verify()

    def test_save_trace_chunk_size(self, tmp_path):
        original = build_fixture(n_events=SAVE_CHUNK_EVENTS + 5)
        path = tmp_path / "trace.npz"
        save_trace(*original, path)
        with TraceStreamReader(path) as reader:
            assert [chunk.n_events for chunk in reader] == \
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
                list(reader)
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


def _read_both_ways(path):
    """The trace at ``path`` through :func:`load_trace` and through a
    :class:`TraceStreamReader` (columns joined from its chunks)."""
    loaded, registry = load_trace(path)
    with TraceStreamReader(path) as reader:
        chunks = list(reader)
        streamed = EventTrace.from_arrays(
            *(np.concatenate([getattr(chunk, field) for chunk in chunks])
              for field in ("kinds", "col_a", "col_b", "col_c")),
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
            reader.verify()


class TestWriterProtocol:
    def test_abort_leaves_destination_untouched(self, tmp_path):
        original = build_fixture()
        dest = tmp_path / "trace.npz"
        save_chunked(*original, dest, chunk_events=40)
        before = dest.read_bytes()
        writer = ChunkedTraceWriter(dest)
        writer.write_chunk(next(iter_chunks(original[0], 10)))
        writer.abort()
        # The published entry is intact; the temp file is gone.
        assert dest.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.npz"]

    def test_context_exit_without_finalize_publishes_nothing(self, tmp_path):
        original = build_fixture()
        dest = tmp_path / "trace.npz"
        with pytest.raises(RuntimeError, match="mid-write"):
            with ChunkedTraceWriter(dest) as writer:
                for chunk in iter_chunks(original[0], 30):
                    writer.write_chunk(chunk)
                    raise RuntimeError("simulated crash mid-write")
        assert not dest.exists()
        assert list(tmp_path.iterdir()) == []

    def test_rejects_out_of_order_chunks(self, tmp_path):
        original = build_fixture()
        chunks = list(iter_chunks(original[0], 30))
        with ChunkedTraceWriter(tmp_path / "trace.npz") as writer:
            writer.write_chunk(chunks[0])
            with pytest.raises(PipelineError, match="out of order"):
                writer.write_chunk(chunks[2])

    def test_write_after_finalize_rejected(self, tmp_path):
        trace, registry = build_fixture()
        chunks = list(iter_chunks(trace, 60))
        with ChunkedTraceWriter(tmp_path / "trace.npz") as writer:
            writer.write_chunk(chunks[0])
            writer.write_chunk(chunks[1])
            writer.finalize(trace.meta, registry)
            with pytest.raises(PipelineError, match="closed trace writer"):
                writer.write_chunk(TraceChunk.build(
                    2, np.zeros(0, np.int8), np.zeros(0, np.int64),
                    np.zeros(0, np.int64), np.zeros(0, np.int64),
                ))


class TestNarrowColumns:
    """The writer stores address columns as int32 and refuses, rather
    than truncates, a value that does not fit."""

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
        trace.append_write(begin, end)
        with pytest.raises(TraceRangeError, match="outside int32"):
            save_trace(trace, registry, dest)
        assert dest.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.npz"]
        dest.unlink()
        with pytest.raises(TraceRangeError):
            save_trace(trace, registry, dest)
        assert list(tmp_path.iterdir()) == []


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
