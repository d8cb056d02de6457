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

from repro.errors import StoreCorruptError
from repro.experiments.store import (
    STATUS_CORRUPT,
    STATUS_NPZ,
    STATUS_OTHER,
    STATUS_TMP,
    STATUS_V3,
    ResultStore,
    payload_digest,
)
from repro.trace import EventTrace, ObjectRegistry
from repro.trace.tracefile import ChunkedTraceWriter

REPO_CACHE = Path(__file__).resolve().parents[2] / ".repro_cache"


@pytest.fixture()
def store(tmp_path):
    return ResultStore(tmp_path)


def save_real_trace(path, n_events=512, chunk_events=64):
    """A small real trace entry, ``chunk_events`` events per chunk."""
    registry = ObjectRegistry()
    registry.global_("g", 4)
    trace = EventTrace("store-test")
    for i in range(n_events):
        trace.append_write(0x1000 + 8 * i, 0x1004 + 8 * i)
    columns = trace.as_arrays()
    with ChunkedTraceWriter(path) as writer:
        for seq, start in enumerate(range(0, n_events, chunk_events)):
            writer.write_columns(
                seq, [column[start:start + chunk_events] for column in columns])
        writer.finalize(trace.meta, registry)


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
        # One chunk, so the middle of the file is column data.
        save_real_trace(tmp_path / "trace.npz", n_events=4096,
                        chunk_events=4096)
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

    def test_bad_footer_crc_is_corrupt(self, store, tmp_path):
        # The zip CRCs stay valid (the archive is rebuilt), so only the
        # footer's per-chunk column checksum can catch this.
        path = tmp_path / "trace.npz"
        save_real_trace(path)
        with np.load(path) as archive:
            members = {name: archive[name] for name in archive.files}
        doc = json.loads(members["stream"].tobytes().decode("utf-8"))
        doc["chunks"][0]["crc32"][1] ^= 1  # column col_a of chunk 0
        members["stream"] = np.frombuffer(
            json.dumps(doc).encode("utf-8"), dtype=np.uint8
        )
        with zipfile.ZipFile(path, "w") as rebuilt:
            for name, array in members.items():
                with rebuilt.open(name + ".npy", "w") as member:
                    np.lib.format.write_array(member, array)
        (entry,) = store.verify().entries
        assert entry.status == STATUS_CORRUPT
        assert "col_a checksum mismatch" in entry.detail

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

    def test_gc_removes_tmp_and_corrupt_only(self, store, tmp_path):
        self.fill(store, tmp_path)
        result = store.gc()
        assert sorted(result["removed"]) == ["drop.pkl.abc123.tmp", "torn.pkl"]
        assert result["kept"] == ["good.pkl"]
        assert (tmp_path / "good.pkl").exists()
        assert not (tmp_path / "torn.pkl").exists()
        assert not (tmp_path / "drop.pkl.abc123.tmp").exists()
