"""Tests for the chunked (v2) trace container and its readers.

The byte-level contract is ``docs/TRACE_FORMAT.md``: incremental chunk
members plus a ``stream`` footer, atomic publish, and loud failure on
truncation, reordering, checksum mismatch, or an unknown version.  Both
container versions must load through both access paths
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

from repro.errors import PipelineError, TraceFormatError
from repro.trace import (
    EventTrace,
    ObjectRegistry,
    load_trace,
    save_trace,
)
from repro.trace.events import TraceMeta
from repro.trace.stream import TraceChunk, iter_chunks
from repro.trace.tracefile import (
    ChunkedTraceWriter,
    TraceStreamReader,
    save_trace_chunked,
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
    """Parse the v2 footer JSON, apply ``mutate(doc)``, write it back."""
    def edit(doc):
        mutate(doc)
        return doc

    _rewrite_doc(path, "stream", edit)


class TestRoundTrip:
    @pytest.mark.parametrize("chunk_events", [1, 7, 100, 1000])
    def test_chunked_save_load(self, tmp_path, chunk_events):
        original = build_fixture()
        path = tmp_path / "trace.npz"
        save_trace_chunked(*original, path, chunk_events=chunk_events)
        assert_same_trace(load_trace(path), original)

    def test_v1_and_v2_materialize_identically(self, tmp_path):
        original = build_fixture()
        save_trace(*original, tmp_path / "v1.npz")
        save_trace_chunked(*original, tmp_path / "v2.npz", chunk_events=13)
        assert_same_trace(load_trace(tmp_path / "v1.npz"), original)
        assert_same_trace(load_trace(tmp_path / "v2.npz"), original)

    def test_empty_trace_round_trips(self, tmp_path):
        registry = ObjectRegistry()
        registry.heap("main", ("main",), 8)
        empty = EventTrace("empty")
        path = tmp_path / "empty.npz"
        save_trace_chunked(empty, registry, path)
        trace, loaded_registry = load_trace(path)
        assert len(trace) == 0
        assert len(loaded_registry.objects) == 1
        with TraceStreamReader(path) as reader:
            assert reader.n_chunks == 0
            assert list(reader.chunks()) == []


class TestStreamReader:
    def test_reads_v2_chunk_by_chunk(self, tmp_path):
        original = build_fixture()
        path = tmp_path / "trace.npz"
        save_trace_chunked(*original, path, chunk_events=17)
        with TraceStreamReader(path) as reader:
            assert reader.version == 2
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

    def test_reads_v1_by_rechunking(self, tmp_path):
        original = build_fixture()
        path = tmp_path / "v1.npz"
        save_trace(*original, path)
        with TraceStreamReader(path, chunk_events=30) as reader:
            assert reader.version == 1
            assert reader.n_events == 100
            assert reader.n_chunks == 4
            assert [chunk.n_events for chunk in reader] == [30, 30, 30, 10]

    def test_rejects_archive_with_neither_version(self, tmp_path):
        path = tmp_path / "mystery.npz"
        np.savez(path, payload=np.zeros(4))
        with pytest.raises(TraceFormatError, match="unrecognized trace file"):
            TraceStreamReader(path)
        with pytest.raises(TraceFormatError):
            load_trace(path)


class TestCorruptionDetection:
    @pytest.fixture
    def saved(self, tmp_path):
        original = build_fixture()
        path = tmp_path / "trace.npz"
        save_trace_chunked(*original, path, chunk_events=25)
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

    def test_unknown_version_rejected(self, saved):
        _edit_footer(saved, lambda doc: doc.update(version=3))
        with pytest.raises(
            TraceFormatError, match="unsupported trace format version 3"
        ):
            TraceStreamReader(saved)

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


def _read_both_ways(path, chunk_events=7):
    """The trace at ``path`` through :func:`load_trace` and through a
    :class:`TraceStreamReader` (columns joined from its chunks)."""
    loaded, registry = load_trace(path)
    with TraceStreamReader(path, chunk_events=chunk_events) as reader:
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
    """Both writers deflate through one zip helper; the members, their
    ``.npy`` bytes and the readers do not depend on the deflate level."""

    @pytest.mark.parametrize("writer", [save_trace, save_trace_chunked])
    def test_both_readers_load_bit_identical(self, tmp_path, writer):
        original = build_fixture()
        path = tmp_path / "trace.npz"
        writer(*original, path)
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
                "kinds.npy", "col_a.npy", "col_b.npy", "col_c.npy", "meta.npy"]
            for info in ours.infolist():
                assert info.compress_type == zipfile.ZIP_DEFLATED
                assert _local_extra_ids(path, info) == [0x0001]
                assert ours.read(info.filename) == theirs.read(info.filename)

    def test_chunk_members_are_plain_npy(self, tmp_path):
        original = build_fixture()
        path = tmp_path / "v2.npz"
        save_trace_chunked(*original, path, chunk_events=40)
        arrays = _members(path)
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


#: Malformed metadata either document version may carry.
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
#: Malformed chunk indexes of a v2 footer.
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


@pytest.mark.parametrize("version,edit", [
    *((1, name) for name in _MALFORMED),
    *((2, name) for name in _MALFORMED),
    *((2, name) for name in _MALFORMED_INDEX),
])
def test_malformed_metadata_is_a_trace_format_error(tmp_path, version, edit):
    """Both loaders raise TraceFormatError, never KeyError, TypeError or
    AttributeError, on any malformed metadata document."""
    original = build_fixture()
    path = tmp_path / "trace.npz"
    if version == 1:
        save_trace(*original, path)
        _rewrite_doc(path, "meta", _MALFORMED[edit])
    else:
        save_trace_chunked(*original, path, chunk_events=30)
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
        save_trace_chunked(*original, dest, chunk_events=40)
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
