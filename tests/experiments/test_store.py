"""Result store: entry integrity, verify/gc surface.

Every simulation result is published as a sim entry: int64 count
columns and a ``stream`` JSON footer in the trace container, whose zip
member CRC-32s are its one checksum.  These tests pin the publish/load
contract (atomic, self-verifying, never unpickled; a file of any other
form is corrupt) and the maintenance surface behind ``store verify`` /
``store gc``.
"""

from __future__ import annotations

import json
import pickle
import stat
import struct
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.errors import TraceFormatError
from repro.experiments.cli import main as cli_main
from repro.experiments.store import (
    SIM_SUFFIX,
    STATUS_CORRUPT,
    STATUS_NPZ,
    STATUS_OTHER,
    STATUS_SIM,
    STATUS_TMP,
    ResultStore,
    SimEntry,
    sim_column_names,
)
from repro.sessions import discover_sessions
from repro.simulate import simulate_sessions
from repro.simulate._native import native_available
from repro.trace import EventTrace, ObjectRegistry, load_trace, save_trace

REPO_CACHE = Path(__file__).resolve().parents[2] / ".repro_cache"


@pytest.fixture()
def store(tmp_path):
    return ResultStore(tmp_path)


def small_result():
    """The registry and simulation result of a tiny trace: three
    globals, two written while watched (studied), one never installed
    (discarded)."""
    registry = ObjectRegistry()
    g = registry.global_("g", 8)
    h = registry.global_("h", 4)
    registry.global_("k", 4)
    trace = EventTrace("store-test")
    trace.append_install(g.id, 0x1000, 0x1008)
    trace.append_install(h.id, 0x2000, 0x2004)
    for i in range(4):
        trace.append_write(0x1000 + 4 * (i % 2), 0x1004 + 4 * (i % 2))
        trace.append_write(0x2000, 0x2004)
    trace.append_write(0x3000, 0x3004)
    trace.append_remove(g.id, 0x1000, 0x1008)
    trace.append_remove(h.id, 0x2000, 0x2004)
    trace.meta.n_installs = trace.meta.n_removes = 2
    trace.meta.n_writes = 9
    result = simulate_sessions(trace, registry, discover_sessions(registry),
                               engine="python")
    return registry, result


def assert_same_result(got, want):
    """Field by field, the sessions and counts included."""
    assert vars(got.meta) == vars(want.meta)
    for name in ("program", "page_sizes", "total_writes", "n_discarded",
                 "overlap_anomalies", "sessions", "counts"):
        assert getattr(got, name) == getattr(want, name), name


def _read_members(path):
    with np.load(path) as archive:
        return {name: archive[name] for name in archive.files}


def _rewrite(path, members):
    """Rebuild ``path`` from ``{member: array}``: a well-formed zip
    whose member CRCs all hold."""
    with zipfile.ZipFile(path, "w") as rebuilt:
        for name, array in members.items():
            with rebuilt.open(name + ".npy", "w") as member:
                np.lib.format.write_array(member, array)


def _footer(members):
    return json.loads(members["stream"].tobytes().decode("utf-8"))


def _edit_sim_footer(edit):
    return lambda members: _edit_footer(members, edit)


#: (id, edit of a sim entry's {member: array}, error it must raise);
#: each leaves a well-formed zip whose member CRCs all hold.
_DAMAGED_SIM = [
    *((f"no-{name}", _edit_sim_footer(lambda doc, name=name: doc.pop(name)),
       "malformed")
      for name in ("total_writes", "overlap_anomalies", "n_discarded",
                   "page_sizes", "meta", "objects")),
    ("no-entry-name", _edit_sim_footer(lambda doc: doc.pop("entry")),
     "different entry None"),
    ("earlier-version", _edit_sim_footer(lambda doc: doc.update(version=3)),
     "unsupported trace format version 3"),
    ("missing-column", lambda members: members.pop("hits"),
     "missing member hits"),
    ("ragged-column",
     lambda members: members.update(removes=members["removes"][:-1]),
     "count column removes"),
    ("int32-column",
     lambda members: members.update(
         hits=members["hits"].astype(np.int32)),
     "count column hits"),
    ("session-out-of-range",
     lambda members: members.update(session=members["session"] + 7),
     "do not index"),
    ("session-reversed",
     lambda members: members.update(session=members["session"][::-1]),
     "do not index"),
    ("session-negative",
     lambda members: members.update(session=members["session"] - 1),
     "do not index"),
    ("discard-count", _edit_sim_footer(
        lambda doc: doc.update(n_discarded=doc["n_discarded"] + 1)),
     "do not index"),
]


def save_real_trace(path, n_events=512, **meta_counts):
    """A small real trace entry of ``n_events`` writes; ``meta_counts``
    overrides the counts its meta records."""
    registry = ObjectRegistry()
    registry.global_("g", 4)
    trace = EventTrace("store-test")
    for i in range(n_events):
        trace.append_write(0x1000 + 8 * i, 0x1004 + 8 * i)
    for name, value in meta_counts.items():
        setattr(trace.meta, name, value)
    save_trace(trace, registry, path)


def _edit_footer(members, edit):
    doc = _footer(members)
    edit(doc)
    members["stream"] = np.frombuffer(json.dumps(doc).encode("utf-8"),
                                      dtype=np.uint8)


def _set_kind(members, value):
    members["kinds"] = members["kinds"].copy()
    members["kinds"][0] = value


#: (id, edit of the archive's {member: array}) pairs; each leaves an
#: entry that ``load_trace`` rejects.
_UNLOADABLE = [
    ("missing-column", lambda members: members.pop("col_a")),
    ("ragged-column",
     lambda members: members.update(col_b=members["col_b"][:-1])),
    ("bad-kind-byte", lambda members: _set_kind(members, 77)),
    ("event-count", lambda members: _edit_footer(
        members, lambda doc: doc.update(n_events=doc["n_events"] + 1))),
    ("earlier-version", lambda members: _edit_footer(
        members, lambda doc: doc.update(version=3))),
]


def publish(store, name="entry" + SIM_SUFFIX):
    registry, result = small_result()
    store.publish_payload(store.root / name, SimEntry.of(registry, result),
                          program="gcc")
    return store.root / name, result


def load(store, path):
    """The result a cached read of ``path`` gives."""
    entry = store.load_payload(path, program="gcc")
    return entry.result(discover_sessions(entry.registry))


def flip_member_byte(path, member):
    """Flip one byte in the middle of ``member``'s stored bytes."""
    data = bytearray(path.read_bytes())
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(member + ".npy")
    name_length, extra_length = struct.unpack_from(
        "<HH", data, info.header_offset + 26)
    start = info.header_offset + 30 + name_length + extra_length
    data[start + info.compress_size // 2] ^= 0xFF
    path.write_bytes(bytes(data))


class TestPublishLoad:
    def test_roundtrip(self, store):
        path, result = publish(store)
        assert len(result.sessions) == 2 and result.n_discarded == 1
        assert_same_result(load(store, path), result)

    def test_entry_on_disk_is_count_columns_and_a_footer(self, store):
        path, result = publish(store)
        members = _read_members(path)
        assert list(members) == [*sim_column_names((4096, 8192)), "stream"]
        assert all(members[name].dtype == np.int64
                   for name in sim_column_names((4096, 8192)))
        assert members["session"].tolist() == [0, 1]
        assert members["hits"].tolist() == [4, 4]
        doc = _footer(members)
        assert doc["version"] == 4
        assert doc["entry"] == path.name
        assert doc["page_sizes"] == [4096, 8192]
        assert (doc["total_writes"], doc["overlap_anomalies"],
                doc["n_discarded"]) == (9, 0, 1)

    def test_flipped_byte_in_a_counts_member_detected(self, store):
        path, _ = publish(store)
        flip_member_byte(path, "hits")
        with pytest.raises(TraceFormatError, match="member hits"):
            load(store, path)

    def test_misplaced_blob_detected(self, store):
        # An entry copied under another entry's name must not pass for it.
        path, _ = publish(store, name="a" + SIM_SUFFIX)
        moved = store.root / ("b" + SIM_SUFFIX)
        moved.write_bytes(path.read_bytes())
        with pytest.raises(TraceFormatError, match="different entry"):
            load(store, moved)

    @pytest.mark.parametrize("damage", _DAMAGED_SIM,
                             ids=[name for name, _, _ in _DAMAGED_SIM])
    def test_damaged_entry_detected(self, store, damage):
        _, edit, error = damage
        path, _ = publish(store)
        members = _read_members(path)
        edit(members)
        _rewrite(path, members)
        with pytest.raises(TraceFormatError, match=error):
            load(store, path)

    def test_pickle_is_corrupt(self, store):
        # A pickle, such as an entry of the earlier enveloped form, is
        # not a zip: the load fails before any byte is unpickled.
        path = store.root / ("bare" + SIM_SUFFIX)
        path.write_bytes(pickle.dumps({"stats": {"b": 2}}))
        with pytest.raises(TraceFormatError, match="corrupt trace archive"):
            load(store, path)

    def test_publish_leaves_no_temp_droppings(self, store):
        publish(store)
        assert not list(store.root.glob("*.tmp"))

    def test_entries_get_the_mode_a_plain_open_gives(self, store, tmp_path):
        path, _ = publish(store)
        save_real_trace(tmp_path / "trace.npz")
        with open(tmp_path / "plain", "wb"):
            pass
        mode = stat.S_IMODE((tmp_path / "plain").stat().st_mode)
        assert stat.S_IMODE(path.stat().st_mode) == mode
        assert stat.S_IMODE((tmp_path / "trace.npz").stat().st_mode) == mode


_SMOKE_PROGRAMS = ("gcc", "ctex", "spice", "qcd", "bps")


@pytest.mark.parametrize("engine", [
    "python",
    pytest.param("native", marks=pytest.mark.skipif(
        not native_available(), reason="native kernel unavailable")),
])
def test_fresh_smoke_results_round_trip(tmp_path, engine):
    # Each program's committed smoke trace, simulated afresh by one
    # kernel, published and read back: the same result, field by field.
    from repro.experiments.pipeline import ExperimentConfig, trace_cache_path
    from repro.workloads import WORKLOADS

    config = ExperimentConfig(scale="smoke", cache_dir=REPO_CACHE)
    store = ResultStore(tmp_path)
    for name in _SMOKE_PROGRAMS:
        workload = WORKLOADS[name]
        trace, registry = load_trace(trace_cache_path(
            workload, config.scale_of(workload), config))
        result = simulate_sessions(trace, registry,
                                   discover_sessions(registry),
                                   engine=engine)
        path = tmp_path / f"{name}-sim-4096-8192{SIM_SUFFIX}"
        store.publish_payload(path, SimEntry.of(registry, result))
        entry = store.load_payload(path)
        assert [vars(obj) for obj in entry.registry.objects] == \
            [vars(obj) for obj in registry.objects]
        assert_same_result(entry.result(discover_sessions(entry.registry)),
                           result)


class TestVerify:
    def test_statuses(self, store, tmp_path):
        publish(store, name="good" + SIM_SUFFIX)
        (tmp_path / ("bare" + SIM_SUFFIX)).write_bytes(
            pickle.dumps({"stats": {}}))
        (tmp_path / ("torn" + SIM_SUFFIX)).write_bytes(
            (tmp_path / ("good" + SIM_SUFFIX)).read_bytes()[:100])
        (tmp_path / "drop.zip.abc123.tmp").write_bytes(b"half")
        (tmp_path / "README").write_text("not a store entry")
        (tmp_path / "old-sim-4096-8192.pkl").write_bytes(
            pickle.dumps({"stats": {}}))
        save_real_trace(tmp_path / "trace.npz")
        report = store.verify()
        by_name = {entry.name: entry.status for entry in report.entries}
        assert by_name["good" + SIM_SUFFIX] == STATUS_SIM
        assert by_name["bare" + SIM_SUFFIX] == STATUS_CORRUPT
        assert by_name["torn" + SIM_SUFFIX] == STATUS_CORRUPT
        assert by_name["drop.zip.abc123.tmp"] == STATUS_TMP
        assert by_name["README"] == STATUS_OTHER
        # A sim entry of the earlier pickled form is never read.
        assert by_name["old-sim-4096-8192.pkl"] == STATUS_OTHER
        assert by_name["trace.npz"] == STATUS_NPZ
        assert report.count(STATUS_CORRUPT) == 2
        assert [entry.name for entry in report.corrupt] == \
            ["bare" + SIM_SUFFIX, "torn" + SIM_SUFFIX]

    @pytest.mark.parametrize("damage", _DAMAGED_SIM,
                             ids=[name for name, _, _ in _DAMAGED_SIM])
    def test_sim_entry_that_does_not_load_is_corrupt(self, store, damage):
        # verify reports exactly the error a cached read raises.
        _, edit, _ = damage
        path, _ = publish(store)
        members = _read_members(path)
        edit(members)
        _rewrite(path, members)
        with pytest.raises(TraceFormatError) as raised:
            load(store, path)
        (entry,) = store.verify().entries
        assert entry.status == STATUS_CORRUPT
        assert entry.detail == f"TraceFormatError: {raised.value}"

    def test_truncated_npz_is_corrupt(self, store, tmp_path):
        save_real_trace(tmp_path / "trace.npz")
        blob = (tmp_path / "trace.npz").read_bytes()
        (tmp_path / "trace.npz").write_bytes(blob[: len(blob) // 2])
        (report_entry,) = store.verify().entries
        assert report_entry.status == STATUS_CORRUPT

    def test_flipped_bit_inside_npz_is_corrupt(self, store, tmp_path):
        # The middle of the file is column data.
        save_real_trace(tmp_path / "trace.npz", n_events=4096)
        blob = bytearray((tmp_path / "trace.npz").read_bytes())
        blob[len(blob) // 2] ^= 0xFF  # flip inside the member data
        (tmp_path / "trace.npz").write_bytes(bytes(blob))
        (report_entry,) = store.verify().entries
        assert report_entry.status == STATUS_CORRUPT
        # ... and the container agrees it is damaged.
        with pytest.raises(Exception):
            with zipfile.ZipFile(tmp_path / "trace.npz") as archive:
                if archive.testzip() is not None:
                    raise ValueError("CRC failure")
                np.load(tmp_path / "trace.npz")["col_a"]

    def test_meta_counts_that_disagree_with_the_events_are_corrupt(
            self, store, tmp_path):
        # Every member's CRC holds, but the entry does not load: verify
        # checks what a cached read checks.
        save_real_trace(tmp_path / "trace.npz", n_events=3, n_writes=5)
        (entry,) = store.verify().entries
        assert entry.status == STATUS_CORRUPT
        assert "meta counts 5 disagree with 3 events" in entry.detail

    @pytest.mark.parametrize("damage", _UNLOADABLE,
                             ids=[name for name, _ in _UNLOADABLE])
    def test_entry_that_does_not_load_is_corrupt(self, store, tmp_path,
                                                 damage):
        # Each archive is a well-formed zip whose member CRCs all hold:
        # verify reports exactly the error a cached read raises.
        path = tmp_path / "trace.npz"
        save_real_trace(path)
        members = _read_members(path)
        damage[1](members)
        _rewrite(path, members)
        with pytest.raises(TraceFormatError) as raised:
            load_trace(path)
        (entry,) = store.verify().entries
        assert entry.status == STATUS_CORRUPT
        assert entry.detail == f"TraceFormatError: {raised.value}"

    def test_committed_cache_verifies(self, capsys):
        # Every committed entry is a sim entry or a trace of the current
        # container version: the five programs at two scales each.
        assert cli_main(["store", "verify", "--cache-dir", str(REPO_CACHE),
                         "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["counts"] == {
            STATUS_SIM: 10, STATUS_NPZ: 10, STATUS_CORRUPT: 0,
            STATUS_TMP: 0, STATUS_OTHER: 0}, [
                (entry["name"], entry["status"], entry["detail"])
                for entry in report["entries"]
                if entry["status"] not in (STATUS_SIM, STATUS_NPZ)]

    def test_subdirectory_left_alone(self, store, tmp_path):
        subdir = tmp_path / "sub"
        subdir.mkdir()
        (subdir / "notes.jsonl").write_text("{}\n")
        assert store.verify().entries == []


class TestGc:
    def fill(self, store, tmp_path):
        publish(store, name="good" + SIM_SUFFIX)
        (tmp_path / ("torn" + SIM_SUFFIX)).write_bytes(b"torn")
        (tmp_path / "drop.zip.abc123.tmp").write_bytes(b"half")

    def test_dry_run_removes_nothing(self, store, tmp_path):
        self.fill(store, tmp_path)
        result = store.gc(dry_run=True)
        assert sorted(result["removed"]) == \
            ["drop.zip.abc123.tmp", "torn" + SIM_SUFFIX]
        assert (tmp_path / ("torn" + SIM_SUFFIX)).exists()

    def test_cli_verify_reports_and_gc_removes_a_trace_that_does_not_load(
            self, tmp_path, capsys):
        save_real_trace(tmp_path / "good.npz")
        save_real_trace(tmp_path / "miscounted.npz", n_events=3, n_writes=5)
        args = ["--cache-dir", str(tmp_path)]
        assert cli_main(["store", "verify", *args]) == 1
        assert ("corrupt: miscounted.npz (TraceFormatError: meta counts 5 "
                "disagree with 3 events)") in capsys.readouterr().out
        assert cli_main(["store", "gc", *args]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["good.npz"]
        assert cli_main(["store", "verify", *args]) == 0

    def test_gc_removes_tmp_and_corrupt_only(self, store, tmp_path):
        self.fill(store, tmp_path)
        result = store.gc()
        assert sorted(result["removed"]) == \
            ["drop.zip.abc123.tmp", "torn" + SIM_SUFFIX]
        assert result["kept"] == ["good" + SIM_SUFFIX]
        assert (tmp_path / ("good" + SIM_SUFFIX)).exists()
        assert not (tmp_path / ("torn" + SIM_SUFFIX)).exists()
        assert not (tmp_path / "drop.zip.abc123.tmp").exists()
