"""Tests for the trace container (format version 4).

The byte-level contract is ``docs/TRACE_FORMAT.md``: one ``.npy`` member
per column (int8 kinds, int32 address columns) plus a ``stream`` footer,
atomic publish, and loud failure on a torn archive, a member whose zip
CRC-32 does not match, a column value that does not fit its stored
dtype, ragged columns, a bad kind byte, an event count the footer does
not declare, or an unknown version.  Also the writer's fault points and
the docs-lint that keeps ``docs/TRACE_FORMAT.md`` honest.
"""

from __future__ import annotations

import importlib.util
import io
import json
import random
import struct
import tracemalloc
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
from repro.trace import tracefile
from repro.trace.tracefile import STORED_DTYPES

REPO_ROOT = Path(__file__).resolve().parents[2]

COLUMNS = ("kinds", "col_a", "col_b", "col_c")

#: Events in one writer or reader slice of an int32 column, and of
#: the int8 ``kinds`` column.
SLICE_EVENTS = tracefile._SLICE_BYTES // 4
KINDS_SLICE_EVENTS = tracefile._SLICE_BYTES


def build_fixture(n_events=100):
    """A deterministic trace + registry with every object kind."""
    registry = ObjectRegistry()
    registry.global_("g", 4)
    registry.local("main", "i", 4, is_param=False)
    registry.static("leaf", "seen", 4)
    registry.heap("main", ("main",), 16)
    trace = EventTrace("container-test")
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


def assert_same_trace(loaded, original):
    trace, registry = loaded
    assert vars(trace.meta) == vars(original[0].meta)
    for got, want in zip(trace.as_arrays(), original[0].as_arrays()):
        got, want = np.asarray(got), np.asarray(want)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    assert [vars(obj) for obj in registry.objects] == \
        [vars(obj) for obj in original[1].objects]


def _members(path):
    """All archive members as {name-without-.npy: ndarray}."""
    with np.load(path) as archive:
        return {name: archive[name] for name in archive.files}


def _write_zip(path, arrays):
    """Rebuild an archive from a member dict (the corruption helper);
    zip computes fresh CRCs, so only the check under test can fire."""
    with zipfile.ZipFile(path, "w") as zf:
        for name, array in arrays.items():
            with zf.open(name + ".npy", "w") as member:
                np.lib.format.write_array(member, array, allow_pickle=False)


def _rewrite_doc(path, member, edit):
    """Replace the JSON member ``member`` by ``edit(its document)``."""
    arrays = _members(path)
    doc = json.loads(arrays[member].tobytes().decode("utf-8"))
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


class TestRoundTrip:
    def test_save_trace_round_trips(self, tmp_path):
        original = build_fixture()
        save_trace(*original, tmp_path / "trace.npz")
        trace, registry = load_trace(tmp_path / "trace.npz")
        assert_same_trace((trace, registry), original)
        assert [column.dtype for column in trace.as_arrays()] \
            == [np.int8, np.int32, np.int32, np.int32]

    @pytest.mark.parametrize("n_events", [
        1, SLICE_EVENTS - 1, SLICE_EVENTS, SLICE_EVENTS + 1,
        KINDS_SLICE_EVENTS, KINDS_SLICE_EVENTS + 1,
    ])
    def test_save_trace_round_trips_at_slice_boundaries(self, tmp_path,
                                                        n_events):
        # load_trace is how every run, a pool worker's included, gets a
        # cached trace: the columns come back bit for bit on whichever
        # side of a writer or reader slice boundary the trace ends.
        original = tiled_fixture(n_events)
        path = tmp_path / "trace.npz"
        save_trace(*original, path)
        assert_same_trace(load_trace(path), original)

    def test_empty_trace_round_trips(self, tmp_path):
        registry = ObjectRegistry()
        registry.heap("main", ("main",), 8)
        empty = EventTrace("empty")
        path = tmp_path / "empty.npz"
        save_trace(empty, registry, path)
        trace, loaded_registry = load_trace(path)
        assert len(trace) == 0
        assert len(loaded_registry.objects) == 1
        assert sorted(_members(path)) == sorted([*COLUMNS, "stream"])

    def test_loaded_columns_are_writable_arrays(self, tmp_path):
        """Each column is one array of its own, not a view of a buffer
        the reader holds."""
        save_trace(*build_fixture(), tmp_path / "trace.npz")
        trace, _ = load_trace(tmp_path / "trace.npz")
        for column in trace.as_arrays():
            assert column.flags.writeable and column.flags.owndata


class TestEarlierVersions:
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
            load_trace(path)

    @pytest.mark.parametrize("version", [2, 3, 5])
    def test_other_version_rejected(self, tmp_path, version):
        path = tmp_path / "trace.npz"
        save_trace(*build_fixture(), path)
        _edit_footer(path, lambda doc: doc.update(version=version))
        with pytest.raises(
            TraceFormatError,
            match=f"unsupported trace format version {version}",
        ):
            load_trace(path)


class TestCorruptionDetection:
    @pytest.fixture
    def saved(self, tmp_path):
        path = tmp_path / "trace.npz"
        save_trace(*build_fixture(), path)
        return path

    @pytest.mark.parametrize("column", COLUMNS)
    def test_missing_column_member_is_truncation(self, saved, column):
        arrays = _members(saved)
        del arrays[column]
        _write_zip(saved, arrays)
        with pytest.raises(
            TraceFormatError,
            match=f"truncated trace: missing member {column}",
        ):
            load_trace(saved)

    @pytest.mark.parametrize("column", COLUMNS)
    def test_bit_flip_in_a_column_member_never_loads_other_data(
            self, saved, column):
        """Ten seeded single-bit flips in the member's stored (deflated)
        bytes.  A flip that changes the inflated bytes is caught: by
        zip's CRC-32 or, where it breaks the deflate stream or the
        ``.npy`` header, before it.  A flip in the stream's closing bits
        that leaves every inflated byte as saved loads the saved trace."""
        original = build_fixture()
        clean = saved.read_bytes()
        info = _member_info(saved, column)
        with zipfile.ZipFile(saved) as archive:
            inflated = archive.read(info)
        start = _data_offset(clean, info)
        rng = random.Random(f"flip-{column}")
        caught = 0
        for _ in range(10):
            data = bytearray(clean)
            data[start + rng.randrange(info.compress_size)] ^= \
                1 << rng.randrange(8)
            saved.write_bytes(bytes(data))
            try:
                same = zlib.decompressobj(-zlib.MAX_WBITS).decompress(
                    bytes(data[start:start + info.compress_size])
                )[:info.file_size] == inflated
            except zlib.error:
                same = False
            if same:
                assert_same_trace(load_trace(saved), original)
                continue
            with pytest.raises(TraceFormatError, match=f"member {column}"):
                load_trace(saved)
            caught += 1
        assert caught >= 8

    @pytest.mark.parametrize("member", [*COLUMNS, "stream"])
    def test_every_member_is_checked_against_its_zip_crc(self, saved, member):
        """The member's bytes are intact but its recorded CRC-32 is
        not: only the CRC check can fire, and on every member."""
        _patch_central(saved, member, 16, _member_info(saved, member).CRC ^ 1)
        with pytest.raises(TraceFormatError,
                           match=f"member {member}: Bad CRC-32"):
            load_trace(saved)

    def test_wide_stored_column_rejected(self, saved):
        arrays = _members(saved)
        arrays["col_b"] = arrays["col_b"].astype(np.int64)
        _write_zip(saved, arrays)
        with pytest.raises(TraceFormatError,
                           match="column col_b has dtype int64"):
            load_trace(saved)

    def test_ragged_stored_column_rejected(self, saved):
        arrays = _members(saved)
        arrays["col_c"] = arrays["col_c"][:-1]
        _write_zip(saved, arrays)
        with pytest.raises(TraceFormatError,
                           match="column col_c has 99 events; footer says 100"):
            load_trace(saved)

    def test_invalid_kind_rejected(self, saved):
        arrays = _members(saved)
        arrays["kinds"] = arrays["kinds"].copy()
        arrays["kinds"][4] = 77
        _write_zip(saved, arrays)
        with pytest.raises(TraceFormatError, match="invalid event kind 77"):
            load_trace(saved)

    def test_footer_event_count_mismatch(self, saved):
        _edit_footer(saved, lambda doc: doc.update(n_events=doc["n_events"] + 1))
        with pytest.raises(TraceFormatError, match="footer says 101"):
            load_trace(saved)

    def test_meta_counts_must_match_the_events(self, saved):
        def two_more_writes(doc):
            doc["meta"]["n_writes"] += 2

        _edit_footer(saved, two_more_writes)
        with pytest.raises(TraceFormatError,
                           match="meta counts 102 disagree with 100 events"):
            load_trace(saved)

    def test_garbage_footer_is_corrupt_metadata(self, saved):
        arrays = _members(saved)
        arrays["stream"] = np.frombuffer(b"not json at all", dtype=np.uint8)
        _write_zip(saved, arrays)
        with pytest.raises(TraceFormatError, match="corrupt trace metadata"):
            load_trace(saved)

    def test_garbled_deflate_stream_is_a_format_error(self, saved):
        info = _member_info(saved, "col_b")
        data = bytearray(saved.read_bytes())
        start = _data_offset(data, info)
        data[start:start + info.compress_size] = bytes(
            (byte ^ 0x5A) for byte in data[start:start + info.compress_size])
        saved.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="member col_b"):
            load_trace(saved)

    def test_member_cut_short_in_the_archive_is_a_format_error(self, saved):
        info = _member_info(saved, "col_a")
        _patch_central(saved, "col_a", 20, info.compress_size // 2)
        with pytest.raises(TraceFormatError, match="member col_a"):
            load_trace(saved)

    def test_member_shorter_than_its_npy_header_is_a_format_error(self, saved):
        arrays = _members(saved)
        npy = io.BytesIO()
        np.lib.format.write_array(npy, arrays.pop("col_a"))
        _write_zip(saved, arrays)
        with zipfile.ZipFile(saved, "a") as archive:
            archive.writestr("col_a.npy", npy.getvalue()[:-1])
        with pytest.raises(TraceFormatError, match="member col_a: not a 1-D "
                                                   "array of its declared size"):
            load_trace(saved)

    def test_bad_local_header_is_a_format_error(self, saved):
        info = _member_info(saved, "col_c")
        data = bytearray(saved.read_bytes())
        data[info.header_offset] ^= 0xFF
        saved.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="member col_c"):
            load_trace(saved)

    def test_torn_archive_is_a_format_error(self, saved):
        saved.write_bytes(saved.read_bytes()[:-200])
        with pytest.raises(TraceFormatError, match="corrupt trace archive"):
            load_trace(saved)

    def test_format_errors_are_pipeline_errors(self):
        # The acceptance bar is "a clear PipelineError": framing failures
        # must classify as fatal, not transient, in keep-going runs.
        assert issubclass(TraceFormatError, PipelineError)


class TestContainer:
    """The writer deflates through one zip helper; the members, their
    ``.npy`` bytes and the reader do not depend on the deflate level."""

    def test_default_level_savez_archive_loads(self, tmp_path):
        """Archives ``np.savez_compressed`` wrote at zlib's default level
        load bit-identically."""
        original = build_fixture()
        save_trace(*original, tmp_path / "new.npz")
        old = tmp_path / "old.npz"
        np.savez_compressed(old, **_members(tmp_path / "new.npz"))
        assert_same_trace(load_trace(old), original)

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
                *(f"{column}.npy" for column in COLUMNS), "stream.npy"]
            for info in ours.infolist():
                assert info.compress_type == zipfile.ZIP_DEFLATED
                assert _local_extra_ids(path, info) == [0x0001]
                assert ours.read(info.filename) == theirs.read(info.filename)

    def test_column_members_are_plain_npy(self, tmp_path):
        original = build_fixture()
        path = tmp_path / "trace.npz"
        save_trace(*original, path)
        arrays = _members(path)
        assert [arrays[column].dtype for column in COLUMNS] == \
            list(STORED_DTYPES) == [np.int8, np.int32, np.int32, np.int32]
        with zipfile.ZipFile(path) as archive:
            for info in archive.infolist():
                npy = io.BytesIO()
                np.lib.format.write_array(
                    npy, arrays[info.filename[:-4]], allow_pickle=False)
                assert archive.read(info.filename) == npy.getvalue()

    def test_deflater_gets_fixed_size_slices_of_the_trace_buffer(
            self, tmp_path, monkeypatch):
        """Each column reaches the archive as views of the trace's own
        buffer, none longer than a slice."""
        monkeypatch.setattr(tracefile, "_SLICE_BYTES", 64)
        trace, registry = build_fixture()
        columns = trace.as_arrays()
        writes = []
        real_write = zipfile._ZipWriteFile.write

        def record(member, data):
            writes.append((member._zinfo.filename, data))
            return real_write(member, data)

        monkeypatch.setattr(zipfile._ZipWriteFile, "write", record)
        save_trace(trace, registry, tmp_path / "trace.npz")
        for name, column in zip(COLUMNS, columns):
            slices = [data for member, data in writes
                      if member == f"{name}.npy" and isinstance(data, memoryview)]
            assert b"".join(slices) == column.tobytes()
            assert max(len(data) for data in slices) == 64
            assert all(np.shares_memory(np.asarray(data), column)
                       for data in slices)


def random_writes(n_events):
    """``n_events`` WRITE events at random addresses: columns that
    deflate to about their own size."""
    rng = np.random.default_rng(7)
    meta = TraceMeta(program="memory")
    meta.n_writes = n_events
    return EventTrace.from_arrays(
        np.full(n_events, EventKind.WRITE, np.int8),
        *(rng.integers(0, 1 << 24, n_events, dtype=np.int32)
          for _ in range(3)),
        meta), ObjectRegistry()


def traced_peak(call, *args):
    """``call(*args)``'s result and the peak of the memory traced while
    it ran."""
    tracemalloc.start()
    try:
        result = call(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    """1M events: a 1 MiB ``kinds`` column and three 4 MiB int32 ones.
    A save holds no copy of a column and no column's deflated bytes
    (about its own size here); a load holds the columns it returns and
    no second copy of any of them."""

    N_EVENTS = 1 << 20
    SLACK = 3 << 19  # 1.5 MiB: less than kinds plus the slice buffers

    def test_save_holds_only_slices(self, tmp_path):
        trace, registry = random_writes(self.N_EVENTS)
        _, peak = traced_peak(save_trace, trace, registry,
                              tmp_path / "trace.npz")
        assert peak < self.SLACK

    def test_load_holds_one_copy_of_each_column(self, tmp_path):
        save_trace(*random_writes(self.N_EVENTS), tmp_path / "trace.npz")
        (trace, _), peak = traced_peak(load_trace, tmp_path / "trace.npz")
        columns = sum(column.nbytes for column in trace.as_arrays())
        assert columns == 13 * self.N_EVENTS
        assert peak < columns + self.SLACK


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
    "no-n_events": _without("n_events"),
    "n_events-a-string": lambda doc: {**doc, "n_events": "100"},
}


@pytest.mark.parametrize("edit", _MALFORMED)
def test_malformed_metadata_is_a_trace_format_error(tmp_path, edit):
    """The loader raises TraceFormatError, never KeyError, TypeError or
    AttributeError, on any malformed metadata document."""
    path = tmp_path / "trace.npz"
    save_trace(*build_fixture(), path)
    _rewrite_doc(path, "stream", _MALFORMED[edit])
    with pytest.raises(TraceFormatError):
        load_trace(path)


class TestAtomicPublish:
    def test_failed_save_leaves_destination_untouched(self, tmp_path,
                                                      monkeypatch):
        original = build_fixture()
        dest = tmp_path / "trace.npz"
        save_trace(*original, dest)
        before = dest.read_bytes()
        real_write = tracefile._write_member

        def crash_on_col_b(archive, name, array):
            if name == "col_b":
                raise RuntimeError("simulated crash mid-write")
            real_write(archive, name, array)

        monkeypatch.setattr(tracefile, "_write_member", crash_on_col_b)
        with pytest.raises(RuntimeError, match="mid-write"):
            save_trace(*original, dest)
        # The published entry is intact; the temp file is gone.
        assert dest.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.npz"]

    def test_failed_first_save_publishes_nothing(self, tmp_path, monkeypatch):
        def crash(archive, name, array):
            raise RuntimeError("simulated crash mid-write")

        monkeypatch.setattr(tracefile, "_write_member", crash)
        with pytest.raises(RuntimeError, match="mid-write"):
            save_trace(*build_fixture(), tmp_path / "trace.npz")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("spec", [
        "trace.save:corrupt",    # before the temporary file is made
        "io.write:corrupt@1",    # before the column members
        "io.write:corrupt@2",    # before the footer, after every column
    ])
    def test_fault_in_save_trace_keeps_the_old_entry(self, tmp_path, spec):
        dest = tmp_path / "trace.npz"
        save_trace(*build_fixture(), dest)
        before = dest.read_bytes()
        faults.install(spec)
        try:
            with pytest.raises(faults.InjectedCorruption):
                save_trace(*tiled_fixture(SLICE_EVENTS + 1), dest)
        finally:
            faults.clear_plan()
        assert dest.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["trace.npz"]

    def test_load_fault_site(self, tmp_path):
        dest = tmp_path / "trace.npz"
        save_trace(*build_fixture(), dest)
        faults.install("trace.load:corrupt")
        try:
            with pytest.raises(faults.InjectedCorruption):
                load_trace(dest)
        finally:
            faults.clear_plan()


class TestNarrowColumns:
    """Address columns are int32 in every layer.  A value that does not
    fit is refused where an int32 column is first produced, rather than
    truncated, and a save given a column of another dtype publishes
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
        widened = EventTrace.from_arrays(*original[0].as_arrays(),
                                         original[0].meta)
        widened.col_b = np.asarray(widened.col_b).astype(np.int64)
        with pytest.raises(TraceFormatError, match="col_b has dtype int64"):
            save_trace(widened, registry, dest)
        assert dest.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.npz"]

    def test_ragged_trace_publishes_nothing(self, tmp_path):
        trace, registry = build_fixture()
        ragged = EventTrace.from_arrays(*trace.as_arrays(), trace.meta)
        ragged.col_c = ragged.col_c[:-1]
        with pytest.raises(TraceFormatError, match="ragged columns"):
            save_trace(ragged, registry, tmp_path / "trace.npz")
        assert list(tmp_path.iterdir()) == []


def test_worked_example(tmp_path):
    """The archive of docs/TRACE_FORMAT.md section 3: the footer, the
    member sizes and the zip CRC-32s of the stored ``.npy`` bytes."""
    registry = ObjectRegistry()
    registry.global_("g", 8)
    trace = EventTrace("example")
    trace.append_install(0, 0x1000, 0x1008)
    trace.append_write(0x1000, 0x1004)
    trace.append_remove(0, 0x1000, 0x1008)
    path = tmp_path / "example.npz"
    save_trace(trace, registry, path)
    doc = json.loads(_members(path)["stream"].tobytes().decode("utf-8"))
    assert doc == {
        "version": 4,
        "meta": {"program": "example", "cycles": 0, "instructions": 0,
                 "stores": 0, "n_writes": 1, "n_installs": 1,
                 "n_removes": 1},
        "objects": [{"id": 0, "kind": "global", "name": "g", "function": None,
                     "context": [], "size_bytes": 8, "is_param": False}],
        "n_events": 3,
    }
    with zipfile.ZipFile(path) as archive:
        assert [(info.filename, info.file_size, info.CRC)
                for info in archive.infolist()[:4]] == [
            ("kinds.npy", 131, 0x000B9019),
            ("col_a.npy", 140, 0xA8C0B8D9),
            ("col_b.npy", 140, 0x9E5AD198),
            ("col_c.npy", 140, 0xBE761DBD),
        ]
        assert archive.read("kinds.npy")[-3:] == bytes([1, 3, 2])


@pytest.mark.parametrize("n_heap", [0, 1, 1100])
def test_footer_is_json_dumps_of_the_document(tmp_path, n_heap):
    """The footer encodes its object records a batch at a time; the
    bytes are still exactly ``json.dumps`` of the whole document."""
    trace, registry = build_fixture() if n_heap else (
        EventTrace("empty"), ObjectRegistry())
    for i in range(n_heap):
        registry.heap(f"f{i % 7}", ("main", f"f{i % 7}"), 8 + i)
    path = tmp_path / "trace.npz"
    save_trace(trace, registry, path)
    raw = _members(path)["stream"].tobytes()
    doc = json.loads(raw.decode("utf-8"))
    assert len(doc["objects"]) == len(registry.objects)
    assert raw == json.dumps({
        "version": 4,
        "meta": vars(trace.meta),
        "objects": [
            {"id": obj.id, "kind": obj.kind, "name": obj.name,
             "function": obj.function, "context": list(obj.context),
             "size_bytes": obj.size_bytes, "is_param": obj.is_param}
            for obj in registry.objects],
        "n_events": len(trace),
    }).encode("utf-8")


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
        drifted = doc.replace("| `col_a.npy` | `int32`",
                              "| `col_a.npy` | `int64`")
        assert lint.check(drifted) == ["stored-column-table"]
        drifted = doc.replace("| `hits.npy` |", "| `misses.npy` |")
        assert lint.check(drifted) == ["sim-member-table"]
        drifted = doc.replace("`n_discarded`, `entry`", "`n_discarded`")
        assert lint.check(drifted) == ["sim-footer-keys"]
