"""Stream-mode pipeline tests: ``--stream`` must be a pure execution-
strategy switch.

Same results as batch runs (bit-identical counting variables), fully
interchangeable cache entries (batch-written entries replay through
the stream reader, stream-written entries load into batch runs; both
are the one version-3 chunked container), the same corrupt-entry
recovery, and the documented exit codes under fault injection.
"""

from __future__ import annotations

import json

import pytest

from repro import faults, observe
from repro.experiments.cli import EXIT_PARTIAL, EXIT_USAGE, main as cli_main
from repro.experiments.pipeline import ExperimentConfig, load_program_data
from repro.errors import PipelineError
from repro.simulate._native import native_available

PROGRAM = "qcd"  # the cheapest workload at smoke scale


@pytest.fixture(autouse=True)
def clean_process_state():
    faults.clear_plan()
    observe.reset()
    yield
    faults.clear_plan()
    observe.reset()
    observe.disable()


def make_config(cache_dir, **overrides):
    return ExperimentConfig(
        programs=(PROGRAM,), scale="smoke", cache_dir=cache_dir, **overrides
    )


def assert_same_data(a, b):
    """Two ProgramData for the same program must agree on everything the
    tables are built from."""
    assert a.name == b.name and a.scale == b.scale
    assert vars(a.meta) == vars(b.meta)
    assert [vars(obj) for obj in a.registry.objects] == \
        [vars(obj) for obj in b.registry.objects]
    ra, rb = a.result, b.result
    assert ra.total_writes == rb.total_writes
    assert ra.overlap_anomalies == rb.overlap_anomalies
    assert ra.n_discarded == rb.n_discarded
    assert [s.index for s in ra.sessions] == [s.index for s in rb.sessions]
    for ca, cb in zip(ra.counts, rb.counts):
        assert (ca.installs, ca.removes, ca.hits, ca.misses,
                ca.max_concurrent) == \
            (cb.installs, cb.removes, cb.hits, cb.misses, cb.max_concurrent)
        assert set(ca.vm) == set(cb.vm)
        for size in ca.vm:
            va, vb = ca.vm[size], cb.vm[size]
            assert (va.protects, va.unprotects, va.active_page_misses) == \
                (vb.protects, vb.unprotects, vb.active_page_misses)


def _sim_entries(cache_dir):
    return list(cache_dir.glob("*-sim-*.pkl"))


def _trace_entries(cache_dir):
    return list(cache_dir.glob(f"{PROGRAM}-*.npz"))


class TestStreamEqualsBatch:
    def test_results_and_cache_interop_both_directions(self, tmp_path):
        batch_dir = tmp_path / "batch-first"
        stream_dir = tmp_path / "stream-first"

        # Batch first: the cache holds a batch-written entry
        # (262,144 events per chunk).
        batch = load_program_data(PROGRAM, make_config(batch_dir))
        # A stream run over the same cache must replay that entry.
        for sim in _sim_entries(batch_dir):
            sim.unlink()
        messages = []
        streamed = load_program_data(
            PROGRAM, make_config(batch_dir, stream=True, chunk_events=2048),
            messages.append,
        )
        assert_same_data(batch, streamed)
        assert any("opening cached trace" in message for message in messages)

        # Stream first: the cache holds a stream-written entry
        # (chunk_events events per chunk).
        streamed2 = load_program_data(
            PROGRAM, make_config(stream_dir, stream=True, chunk_events=2048)
        )
        assert_same_data(batch, streamed2)
        assert len(_trace_entries(stream_dir)) == 1
        for sim in _sim_entries(stream_dir):
            sim.unlink()
        # A batch run must load the stream-written entry transparently.
        messages = []
        batch2 = load_program_data(
            PROGRAM, make_config(stream_dir), messages.append
        )
        assert_same_data(batch, batch2)
        assert any("loading cached trace" in message for message in messages)

    @pytest.mark.skipif(not native_available(),
                        reason="native kernel unavailable")
    def test_engines_agree_in_stream_mode(self, tmp_path):
        py = load_program_data(
            PROGRAM,
            make_config(tmp_path, stream=True, engine="python",
                        chunk_events=1024),
        )
        for sim in _sim_entries(tmp_path):
            sim.unlink()
        native = load_program_data(
            PROGRAM,
            make_config(tmp_path, stream=True, engine="native",
                        chunk_events=4096),
        )
        assert_same_data(py, native)

    def test_no_cache_spills_to_temp_and_cleans_up(self, tmp_path):
        batch = load_program_data(PROGRAM, make_config(tmp_path / "ref"))
        streamed = load_program_data(
            PROGRAM,
            make_config(tmp_path / "off", stream=True, use_cache=False,
                        chunk_events=2048),
        )
        assert_same_data(batch, streamed)
        # Nothing was written to the cache directory.
        assert not (tmp_path / "off").exists() or \
            list((tmp_path / "off").iterdir()) == []


class TestStreamRecovery:
    def test_corrupt_chunked_entry_recovers_as_miss(self, tmp_path):
        config = make_config(tmp_path, stream=True, chunk_events=2048)
        first = load_program_data(PROGRAM, config)
        (trace_entry,) = _trace_entries(tmp_path)
        # Tear the archive (a killed writer could never publish this,
        # but disks rot): the next run must recover, not crash.
        trace_entry.write_bytes(trace_entry.read_bytes()[:100])
        for sim in _sim_entries(tmp_path):
            sim.unlink()
        messages = []
        second = load_program_data(PROGRAM, config, messages.append)
        assert_same_data(first, second)
        assert any("corrupt" in message for message in messages)
        # The rebuilt entry is valid again.
        assert len(_trace_entries(tmp_path)) == 1

    def test_config_validates_chunk_events(self, tmp_path):
        with pytest.raises(PipelineError, match="chunk_events"):
            make_config(tmp_path, stream=True, chunk_events=0)
        with pytest.raises(PipelineError, match="chunk_events"):
            make_config(tmp_path, stream=True, chunk_events=True)


class TestStreamCli:
    def test_stream_run_writes_manifest_with_stream_fields(self, tmp_path):
        manifest_path = tmp_path / "run.json"
        code = cli_main([
            "table1", "--programs", PROGRAM, "--scale", "smoke",
            "--cache-dir", str(tmp_path / "cache"),
            "--stream", "--chunk-events", "2048",
            "--manifest", str(manifest_path), "--quiet",
        ])
        assert code == 0
        manifest = json.loads(manifest_path.read_text())
        assert manifest["config"]["stream"] is True
        assert manifest["config"]["chunk_events"] == 2048
        counters = manifest["counters"]
        assert counters["stream.chunks"] >= 1
        assert counters["stream.events"] > 0
        # The bounded-memory gauge: never more than the channel capacity
        # plus the chunks being produced/consumed at the edges.
        assert 1 <= manifest["gauges"]["stream.peak_resident_chunks"] <= 6

    def test_invalid_chunk_events_is_usage_error(self, tmp_path, capsys):
        code = cli_main([
            "table1", "--programs", PROGRAM, "--scale", "smoke",
            "--cache-dir", str(tmp_path), "--stream",
            "--chunk-events", "0", "--quiet",
        ])
        assert code == EXIT_USAGE
        assert "chunk_events" in capsys.readouterr().err

    def test_injected_transient_fault_is_retried(self, tmp_path, capsys):
        """A single injected corruption at the chunk-feed faultpoint
        (``@1``: first hit only) must be absorbed by the retry machinery
        — the spilled trace survives, so the retry replays it cleanly."""
        code = cli_main([
            "table1", "--programs", PROGRAM, "--scale", "smoke",
            "--cache-dir", str(tmp_path), "--stream",
            "--chunk-events", "2048",
            "--inject-faults", "stream.feed:corrupt@1", "--quiet",
        ])
        assert code == 0

    def test_injected_fatal_fault_keep_going_is_partial(self, tmp_path, capsys):
        code = cli_main([
            "table1", "--programs", PROGRAM, "--scale", "smoke",
            "--cache-dir", str(tmp_path), "--stream",
            "--chunk-events", "2048",
            "--inject-faults", "stream.emit:fatal", "--keep-going", "--quiet",
        ])
        assert code == EXIT_PARTIAL
        assert "PARTIAL RESULTS" in capsys.readouterr().out
