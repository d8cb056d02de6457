"""Result store: envelope integrity, verify/gc surface.

Every simulation payload travels inside a v3 envelope carrying a
SHA-256 of its pickled bytes; these tests pin the publish/load contract
(atomic, self-verifying; a bare pickle is corrupt) and the maintenance
surface behind ``store verify`` / ``store gc``.
"""

from __future__ import annotations

import json
import pickle
import zipfile
from pathlib import Path

import numpy as np
import pytest

from repro.errors import StoreCorruptError, TraceFormatError
from repro.experiments.cli import main as cli_main
from repro.experiments.store import (
    STATUS_CORRUPT,
    STATUS_NPZ,
    STATUS_OTHER,
    STATUS_TMP,
    STATUS_V3,
    ResultStore,
    payload_digest,
)
from repro.trace import EventTrace, ObjectRegistry, load_trace, save_trace

REPO_CACHE = Path(__file__).resolve().parents[2] / ".repro_cache"


@pytest.fixture()
def store(tmp_path):
    return ResultStore(tmp_path)


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
    doc = json.loads(members["stream"].tobytes().decode("utf-8"))
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


def publish(store, name="entry.pkl", payload=None):
    payload = payload if payload is not None else {"stats": {"a": 1}}
    digest = store.publish_payload(store.root / name, payload, program="gcc")
    return store.root / name, payload, digest


class TestPublishLoad:
    def test_roundtrip_and_digest(self, store):
        path, payload, digest = publish(store)
        assert store.load_payload(path, program="gcc") == payload
        assert digest == payload_digest(pickle.dumps(payload))

    def test_envelope_on_disk_names_its_entry(self, store):
        path, _, digest = publish(store)
        with open(path, "rb") as handle:
            envelope = pickle.load(handle)
        assert envelope["format"] == "repro-store"
        assert envelope["version"] == 3
        assert envelope["algo"] == "sha256"
        assert envelope["entry"] == path.name
        assert envelope["digest"] == digest

    def test_tampered_payload_detected(self, store):
        path, _, _ = publish(store)
        with open(path, "rb") as handle:
            envelope = pickle.load(handle)
        envelope["payload"] = pickle.dumps({"stats": {"a": 2}})
        path.write_bytes(pickle.dumps(envelope))
        with pytest.raises(StoreCorruptError, match="digest mismatch"):
            store.load_payload(path)

    def test_misplaced_blob_detected(self, store):
        # An entry copied under another entry's name must not pass for it.
        path, _, _ = publish(store, name="a.pkl")
        moved = store.root / "b.pkl"
        moved.write_bytes(path.read_bytes())
        with pytest.raises(StoreCorruptError, match="different entry"):
            store.load_payload(moved)

    def test_bare_payload_is_corrupt(self, store):
        # A payload pickled without the envelope carries no digest; it
        # is corrupt, which the pipeline recovers as a cache miss.
        path = store.root / "bare.pkl"
        path.write_bytes(pickle.dumps({"stats": {"b": 2}}))
        with pytest.raises(StoreCorruptError, match="not a store envelope"):
            store.load_payload(path)

    def test_publish_leaves_no_temp_droppings(self, store):
        publish(store)
        assert not list(store.root.glob("*.tmp"))


class TestVerify:
    def test_statuses(self, store, tmp_path):
        publish(store, name="good.pkl")
        (tmp_path / "bare.pkl").write_bytes(pickle.dumps({"stats": {}}))
        (tmp_path / "torn.pkl").write_bytes(b"\x80\x04 torn mid-write")
        (tmp_path / "drop.pkl.abc123.tmp").write_bytes(b"half")
        (tmp_path / "README").write_text("not a store entry")
        save_real_trace(tmp_path / "trace.npz")
        report = store.verify()
        by_name = {entry.name: entry.status for entry in report.entries}
        assert by_name["good.pkl"] == STATUS_V3
        assert by_name["bare.pkl"] == STATUS_CORRUPT
        assert by_name["torn.pkl"] == STATUS_CORRUPT
        assert by_name["drop.pkl.abc123.tmp"] == STATUS_TMP
        assert by_name["README"] == STATUS_OTHER
        assert by_name["trace.npz"] == STATUS_NPZ
        assert report.count(STATUS_CORRUPT) == 2
        assert [entry.name for entry in report.corrupt] == \
            ["bare.pkl", "torn.pkl"]

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
        with np.load(path) as archive:
            members = {name: archive[name] for name in archive.files}
        damage[1](members)
        with zipfile.ZipFile(path, "w") as rebuilt:
            for name, array in members.items():
                with rebuilt.open(name + ".npy", "w") as member:
                    np.lib.format.write_array(member, array)
        with pytest.raises(TraceFormatError) as raised:
            load_trace(path)
        (entry,) = store.verify().entries
        assert entry.status == STATUS_CORRUPT
        assert entry.detail == f"TraceFormatError: {raised.value}"

    def test_committed_cache_verifies(self):
        # Every committed entry is an enveloped payload or a trace of
        # the current container version.
        report = ResultStore(REPO_CACHE).verify()
        assert report.entries
        assert {entry.status for entry in report.entries} == \
            {STATUS_V3, STATUS_NPZ}, [
                (entry.name, entry.status, entry.detail)
                for entry in report.entries
                if entry.status not in (STATUS_V3, STATUS_NPZ)]

    def test_subdirectory_left_alone(self, store, tmp_path):
        subdir = tmp_path / "sub"
        subdir.mkdir()
        (subdir / "notes.jsonl").write_text("{}\n")
        assert store.verify().entries == []


class TestGc:
    def fill(self, store, tmp_path):
        publish(store, name="good.pkl")
        (tmp_path / "torn.pkl").write_bytes(b"torn")
        (tmp_path / "drop.pkl.abc123.tmp").write_bytes(b"half")

    def test_dry_run_removes_nothing(self, store, tmp_path):
        self.fill(store, tmp_path)
        result = store.gc(dry_run=True)
        assert sorted(result["removed"]) == ["drop.pkl.abc123.tmp", "torn.pkl"]
        assert (tmp_path / "torn.pkl").exists()

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
        assert sorted(result["removed"]) == ["drop.pkl.abc123.tmp", "torn.pkl"]
        assert result["kept"] == ["good.pkl"]
        assert (tmp_path / "good.pkl").exists()
        assert not (tmp_path / "torn.pkl").exists()
        assert not (tmp_path / "drop.pkl.abc123.tmp").exists()
