"""Cross-process snapshot dump/merge (the parallel pipeline's transport)."""

from __future__ import annotations

import pickle

import pytest

from repro import observe
from repro.observe.snapshot import SNAPSHOT_VERSION, dump_snapshot, merge_snapshot

pytestmark = pytest.mark.observe


def _record_worker_activity():
    observe.inc("cache.sim.misses")
    observe.inc("engine.events", 100)
    observe.observe_value("engine.events_per_sec", 5000.0)
    observe.note("cache.sim.written", "entry.pkl")
    with observe.span("program:gcc"):
        with observe.span("simulate", program="gcc"):
            pass


class TestDumpSnapshot:
    def test_payload_is_picklable(self, observing):
        _record_worker_activity()
        payload = dump_snapshot()
        clone = pickle.loads(pickle.dumps(payload))
        assert clone["version"] == SNAPSHOT_VERSION
        assert clone["metrics"]["counters"]["engine.events"] == 100
        assert clone["metrics"]["histograms"]["engine.events_per_sec"] == [5000.0]

    def test_spans_ship_as_records(self, observing):
        _record_worker_activity()
        payload = dump_snapshot()
        paths = [record.path for record in payload["metrics"]["spans"]]
        assert "program:gcc/simulate" in paths


class TestMergeSnapshot:
    def test_counters_add_and_histograms_union(self, observing):
        _record_worker_activity()
        payload = dump_snapshot()
        observe.reset()
        observe.inc("engine.events", 11)
        observe.observe_value("engine.events_per_sec", 7000.0)
        merge_snapshot(payload)
        snapshot = observe.get_registry().snapshot()
        assert snapshot["counters"]["engine.events"] == 111
        assert snapshot["counters"]["cache.sim.misses"] == 1
        # Percentiles recompute over the union of raw observations.
        assert snapshot["histograms"]["engine.events_per_sec"]["count"] == 2
        assert snapshot["histograms"]["engine.events_per_sec"]["min"] == 5000.0
        assert snapshot["notes"]["cache.sim.written"] == ["entry.pkl"]

    def test_spans_graft_under_path_with_clock_offset(self, observing):
        _record_worker_activity()
        payload = dump_snapshot()
        observe.reset()
        merge_snapshot(
            payload, under="pipeline/worker:gcc", clock_offset=100.0,
            attrs={"worker": "gcc"},
        )
        spans = {s["path"]: s for s in observe.get_registry().snapshot()["spans"]}
        grafted = spans["pipeline/worker:gcc/program:gcc/simulate"]
        assert grafted["parent"] == "pipeline/worker:gcc/program:gcc"
        assert grafted["attrs"]["worker"] == "gcc"
        assert grafted["attrs"]["program"] == "gcc"  # existing attr kept
        top = spans["pipeline/worker:gcc/program:gcc"]
        assert top["parent"] == "pipeline/worker:gcc"
        original = next(
            r for r in payload["metrics"]["spans"] if r.path == "program:gcc"
        )
        assert top["start_s"] == pytest.approx(original.start_s + 100.0)

    def test_merge_without_under_keeps_paths(self, observing):
        _record_worker_activity()
        payload = dump_snapshot()
        observe.reset()
        merge_snapshot(payload)
        paths = {s["path"] for s in observe.get_registry().snapshot()["spans"]}
        assert "program:gcc/simulate" in paths

    def test_version_mismatch_rejected(self, observing):
        payload = dump_snapshot()
        payload["version"] = 999
        with pytest.raises(ValueError):
            merge_snapshot(payload)

    def test_profiler_samples_merge_without_double_counting(self, observing):
        observe.enable_profiling(stride=10)
        try:
            observe.get_profiler().record_engine({1: 4})
            payload = dump_snapshot()
            assert set(payload) == {"version", "metrics", "events"}
            observe.reset()
            merge_snapshot(payload)
            snapshot = observe.get_registry().snapshot()
            # The profile.* counters are the one copy of the samples and
            # merge like every other counter.
            sampled = {
                name: value for name, value in snapshot["counters"].items()
                if name.startswith("profile.engine.event.")
            }
            assert list(sampled.values()) == [4]
            assert snapshot["gauges"]["profile.engine.stride"] == 10
        finally:
            observe.disable_profiling()
