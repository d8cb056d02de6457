"""Worker -> parent event transport through observation snapshots.

Covers the satellite requirement: merging recorder entries and notes
from workers that died mid-task (partial snapshots), including the
seq re-numbering and monotonic-clock rebasing the parent applies.
"""

from __future__ import annotations

import pytest

from repro import observe
from repro.observe.snapshot import SNAPSHOT_VERSION


@pytest.fixture()
def recording():
    was_enabled = observe.events_enabled()
    run_id = observe.enable_events()
    yield run_id
    observe.get_recorder().reset()
    if not was_enabled:
        observe.disable_events()


def _worker_payload(run_id, categories=("cache.miss", "program.done")):
    """Record ``categories`` as a worker would, and dump the snapshot."""
    observe.enable_events(run_id=run_id, worker="gcc")
    for category in categories:
        observe.emit_event(category, program="gcc")
    payload = observe.dump_snapshot()
    assert payload["events"] is not None
    return payload


def test_worker_events_are_resequenced_and_rebased(observing, recording):
    payload = _worker_payload(recording)
    worker_monos = [e["t_mono"] for e in payload["events"]["entries"]]

    # Back to the parent's recorder: already two parent events recorded.
    observe.enable_events(run_id=recording)
    observe.emit_event("run.start")
    observe.emit_event("worker.dispatch", program="gcc")

    observe.merge_snapshot(payload, under="pipeline/worker:gcc",
                           clock_offset=1000.0, attrs={"worker": "gcc"})

    entries = observe.get_recorder().entries()
    assert [e.category for e in entries] == [
        "run.start", "worker.dispatch", "cache.miss", "program.done",
    ]
    # Re-sequenced into the parent's strictly monotonic stream.
    assert [e.seq for e in entries] == [0, 1, 2, 3]
    # The merged events keep the worker label and the shared run id.
    assert [e.worker for e in entries] == ["", "", "gcc", "gcc"]
    assert all(e.run_id == recording for e in entries)
    # Monotonic clocks rebased exactly like span start_s.
    assert entries[2].t_mono == pytest.approx(worker_monos[0] + 1000.0)
    assert entries[3].t_mono == pytest.approx(worker_monos[1] + 1000.0)
    # The parent's own next event continues the sequence.
    observe.emit_event("worker.done", program="gcc")
    assert observe.get_recorder().entries()[-1].seq == 4


def test_partial_snapshot_missing_sections_merges_what_survived(
        observing, recording):
    """A worker that died mid-task can ship a payload with whole
    sections missing; the merge takes what is there."""
    observe.enable_events(run_id=recording)
    observe.merge_snapshot(
        {"version": SNAPSHOT_VERSION, "events": {
            "run_id": recording, "worker": "gcc",
            "entries": [{
                "v": 1, "seq": 0, "t_wall": 1.0, "t_mono": 2.0,
                "severity": "WARNING", "category": "fault.triggered",
                "run_id": recording, "worker": "", "data": {"site": "io"},
            }],
        }},
        clock_offset=5.0, attrs={"worker": "gcc"},
    )
    (entry,) = observe.get_recorder().entries()
    assert entry.category == "fault.triggered"
    assert entry.worker == "gcc"
    assert entry.t_mono == pytest.approx(7.0)

    # Events-only is equally fine the other way around: metrics with no
    # events section (an events-off worker) merges cleanly too.
    observe.merge_snapshot({"version": SNAPSHOT_VERSION},
                           attrs={"worker": "ctex"})
    assert len(observe.get_recorder().entries()) == 1


def test_malformed_entries_count_as_dropped_not_fatal(observing, recording):
    observe.enable_events(run_id=recording)
    observe.merge_snapshot(
        {"version": SNAPSHOT_VERSION, "events": {
            "worker": "gcc",
            "dropped": 3,  # drops the worker counted itself
            "entries": [
                "torn",                     # not a dict
                {"seq": 0},                 # missing timestamp keys
                {"v": 1, "seq": 1, "t_wall": 1.0, "t_mono": 1.0,
                 "severity": "LOUD", "category": "x",
                 "run_id": recording, "worker": "", "data": {}},  # bad severity
                {"v": 1, "seq": 2, "t_wall": 1.0, "t_mono": 1.0,
                 "severity": "INFO", "category": "cache.hit",
                 "run_id": recording, "worker": "", "data": {}},  # good
            ],
        }},
        attrs={"worker": "gcc"},
    )
    recorder = observe.get_recorder()
    assert [e.category for e in recorder.entries()] == ["cache.hit"]
    summary = recorder.summary()
    assert summary["dropped"] == 3 + 3  # shipped drops + malformed entries


def test_merge_with_events_disabled_is_a_noop(observing):
    observe.disable_events()
    merged = observe.merge_events_state(
        {"entries": [{"v": 1, "seq": 0, "t_wall": 1.0, "t_mono": 1.0,
                      "severity": "INFO", "category": "cache.hit",
                      "run_id": "abc", "worker": "", "data": {}}]},
    )
    assert merged == 0
    assert observe.get_recorder().entries() == []


def test_worker_notes_and_events_merge_together(observing, recording):
    """The same snapshot carries metrics notes and recorder entries; a
    parent merge lands both (the readonly-degradation audit trail)."""
    observe.enable_events(run_id=recording, worker="gcc")
    observe.note("cache.readonly", "gcc-entry.npz")
    observe.emit_event("cache.readonly", "WARNING", kind="trace",
                       program="gcc", entry="gcc-entry.npz")
    payload = observe.dump_snapshot()

    observe.reset()
    observe.enable_events(run_id=recording)
    observe.merge_snapshot(payload, under="pipeline/worker:gcc",
                           attrs={"worker": "gcc"})
    snapshot = observe.get_registry().snapshot()
    assert snapshot["notes"]["cache.readonly"] == ["gcc-entry.npz"]
    (entry,) = observe.get_recorder().entries()
    assert entry.category == "cache.readonly"
    assert entry.severity == "WARNING"
    assert entry.worker == "gcc"
