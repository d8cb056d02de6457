"""Tests for the chunked columnar trace stream.

Covers the in-memory half of the streaming pipeline
(:mod:`repro.trace.stream`): chunk framing and its failure modes
(checksum corruption, ragged columns, wrong dtypes, bad kind bytes),
the bounded producer/consumer channel (ordering, backpressure, error
propagation, consumer-side cancel), the chunk-emitting tracer against
the batch tracer on a real workload, fault injection at the streaming
faultpoints, and the docs-lint that keeps ``docs/TRACE_FORMAT.md``
honest.
"""

from __future__ import annotations

import importlib.util
import threading
import time
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro import faults, observe
from repro.errors import PipelineError, TraceFormatError
from repro.simulate._native import native_available
from repro.trace import EventTrace
from repro.trace.events import TraceMeta
from repro.trace.stream import (
    ChunkChannel,
    ChunkingTracer,
    TraceChunk,
    column_crc32,
    iter_chunks,
    peak_resident_chunks,
)
from repro.workloads import Workload, run_workload

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(autouse=True)
def clean_process_state():
    """No fault plan and a fresh observe registry around every test."""
    faults.clear_plan()
    observe.reset()
    yield
    faults.clear_plan()
    observe.reset()
    observe.disable()


def build_trace(n_events=100, seed=3):
    """A small mixed trace with deterministic contents."""
    rng = np.random.default_rng(seed)
    trace = EventTrace("stream-test")
    for i in range(n_events):
        roll = rng.integers(0, 3)
        base = int(rng.integers(0, 4096, dtype=np.int64))
        if roll == 0:
            trace.append_install(i % 7, base, base + 8)
        elif roll == 1:
            trace.append_remove(i % 7, base, base + 8)
        else:
            trace.append_write(base, base + 4)
    return trace


def make_chunk(seq=0, n=8):
    kinds = np.full(n, 3, dtype=np.int8)
    col_a = np.arange(n, dtype=np.int64)
    col_b = col_a + 4
    col_c = np.zeros(n, dtype=np.int64)
    return TraceChunk.build(seq, kinds, col_a, col_b, col_c)


class TestTraceChunk:
    def test_build_coerces_and_checksums(self):
        chunk = TraceChunk.build(0, [1, 3, 2], [0, 0x1000, 0],
                                 [0x1000, 0x1004, 0x1000],
                                 [0x1008, 0, 0x1008])
        assert chunk.kinds.dtype == np.int8
        assert chunk.col_a.dtype == np.int32
        assert chunk.n_events == 3
        # The checksums are plain CRC-32 over the raw little-endian bytes
        # (the worked example in docs/TRACE_FORMAT.md section 4).
        assert chunk.checksums[0] == zlib.crc32(bytes([1, 3, 2]))
        assert chunk.checksums == (0x3BA081CA, 0x1C0B5AA1,
                                   0x2A9133E0, 0x0ABDFFC5)
        chunk.verify()

    def test_build_takes_int32_columns_without_a_copy(self):
        chunk = make_chunk()
        again = TraceChunk.build(1, *chunk.columns)
        assert all(np.shares_memory(a, b)
                   for a, b in zip(again.columns, chunk.columns))

    def test_column_crc32_matches_zlib(self):
        column = np.arange(5, dtype=np.int64)
        assert column_crc32(column) == zlib.crc32(column.tobytes()) & 0xFFFFFFFF

    def test_verify_detects_checksum_corruption(self):
        chunk = make_chunk()
        chunk.col_b[2] ^= 0x40  # a bit flip after the checksum was taken
        with pytest.raises(TraceFormatError, match="col_b checksum mismatch"):
            chunk.verify()

    def test_verify_detects_ragged_columns(self):
        chunk = make_chunk()
        bad = replace(chunk, col_c=chunk.col_c[:-1])
        with pytest.raises(TraceFormatError, match="ragged"):
            bad.verify()

    def test_verify_detects_wrong_dtype(self):
        chunk = make_chunk()
        bad = replace(chunk, col_a=chunk.col_a.astype(np.int64))
        with pytest.raises(TraceFormatError, match="dtype"):
            bad.verify()

    def test_verify_detects_bad_kind_byte(self):
        chunk = make_chunk()
        kinds = chunk.kinds.copy()
        kinds[3] = 77
        bad = TraceChunk.build(0, kinds, chunk.col_a, chunk.col_b,
                               chunk.col_c)
        with pytest.raises(TraceFormatError, match="invalid event kind 77"):
            bad.verify()

    def test_format_errors_are_pipeline_errors(self):
        # The acceptance bar is "a clear PipelineError": framing failures
        # must classify as fatal, not transient, in keep-going runs.
        assert issubclass(TraceFormatError, PipelineError)


class TestIterChunks:
    @pytest.mark.parametrize("chunk_events", [1, 7, 64, 1000])
    def test_concatenation_reconstructs_trace(self, chunk_events):
        trace = build_trace(100)
        chunks = list(iter_chunks(trace, chunk_events))
        assert [chunk.seq for chunk in chunks] == list(range(len(chunks)))
        for chunk in chunks:
            chunk.verify()
        columns = trace.as_arrays()
        joined = np.concatenate([chunk.kinds for chunk in chunks])
        assert np.array_equal(joined, columns.kinds)
        for field in ("col_a", "col_b", "col_c"):
            joined = np.concatenate(
                [getattr(chunk, field) for chunk in chunks]
            )
            assert np.array_equal(joined, getattr(columns, field))

    def test_sizes_and_tail(self):
        trace = build_trace(100)
        chunks = list(iter_chunks(trace, 30))
        assert [chunk.n_events for chunk in chunks] == [30, 30, 30, 10]

    def test_empty_trace_yields_no_chunks(self):
        trace = EventTrace("empty")
        assert list(iter_chunks(trace, 10)) == []

    def test_rejects_nonpositive_chunk_events(self):
        with pytest.raises(PipelineError):
            list(iter_chunks(build_trace(10), 0))


class TestChunkChannel:
    def test_in_order_round_trip(self):
        channel = ChunkChannel(capacity=8)
        chunks = [make_chunk(seq) for seq in range(3)]
        for chunk in chunks:
            channel.put(chunk)
        meta = TraceMeta(program="t")
        channel.close(meta=meta)
        received = list(channel)
        assert [chunk.seq for chunk in received] == [0, 1, 2]
        assert channel.meta is meta
        assert channel.chunks_in == 3
        assert channel.events_in == sum(c.n_events for c in chunks)

    def test_put_rejects_out_of_order(self):
        channel = ChunkChannel()
        channel.put(make_chunk(0))
        with pytest.raises(PipelineError, match="out of order"):
            channel.put(make_chunk(2))

    def test_consumer_detects_reordered_stream(self):
        # Bypass put()'s own guard to prove the consumer side checks too.
        channel = ChunkChannel()
        channel._queue.put(make_chunk(1))
        with pytest.raises(PipelineError, match="received out of order"):
            next(iter(channel))

    def test_producer_error_reaches_consumer_after_drain(self):
        channel = ChunkChannel()
        channel.put(make_chunk(0))
        boom = TraceFormatError("injected producer failure")
        channel.close(error=boom)
        iterator = iter(channel)
        assert next(iterator).seq == 0
        with pytest.raises(TraceFormatError, match="injected producer"):
            next(iterator)

    def test_close_twice_and_put_after_close_raise(self):
        channel = ChunkChannel()
        channel.close()
        with pytest.raises(PipelineError, match="closed twice"):
            channel.close()
        with pytest.raises(PipelineError, match="closed"):
            channel.put(make_chunk(0))

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(PipelineError):
            ChunkChannel(capacity=0)

    def test_backpressure_blocks_producer(self):
        channel = ChunkChannel(capacity=1)
        channel.put(make_chunk(0))  # fills the queue
        second_done = threading.Event()

        def produce():
            channel.put(make_chunk(1))  # must block until a get()
            second_done.set()

        producer = threading.Thread(target=produce, daemon=True)
        producer.start()
        assert not second_done.wait(0.1)
        iterator = iter(channel)
        assert next(iterator).seq == 0
        assert second_done.wait(5.0)
        producer.join(5.0)

    def test_cancel_releases_blocked_producer(self):
        channel = ChunkChannel(capacity=1)
        channel.put(make_chunk(0))
        outcome = {}

        def produce():
            try:
                channel.put(make_chunk(1))  # blocks on the full queue
                channel.put(make_chunk(2))  # raises: channel cancelled
            except PipelineError as exc:
                outcome["error"] = exc

        producer = threading.Thread(target=produce, daemon=True)
        producer.start()
        time.sleep(0.05)
        channel.cancel()
        producer.join(5.0)
        assert not producer.is_alive()
        assert "cancelled" in str(outcome["error"])

    def test_counters_and_peak_gauge(self):
        observe.enable()
        channel = ChunkChannel(capacity=8)
        for seq in range(3):
            channel.put(make_chunk(seq, n=5))
        channel.close()
        list(channel)
        snapshot = observe.get_registry().snapshot()
        assert snapshot["counters"]["stream.chunks"] == 3
        assert snapshot["counters"]["stream.events"] == 15
        assert snapshot["gauges"]["stream.peak_resident_chunks"] == 3
        assert peak_resident_chunks() == 3
        # The gauge is process-wide state: observe.reset() must clear it.
        observe.reset()
        assert peak_resident_chunks() == 0

    @pytest.mark.parametrize("engine", [
        "python",
        pytest.param("native", marks=pytest.mark.skipif(
            not native_available(), reason="native kernel unavailable")),
    ])
    def test_simulation_streams_hold_no_chunks(self, engine):
        """Both simulation streams consume each batch at feed: nothing
        is held past delivery, so a feed never moves the peak gauge, and
        the native result equals the scalar reference."""
        from repro.simulate import open_simulation_stream
        from repro.trace.objects import ObjectRegistry
        from repro.sessions.types import SessionDef, ONE_HEAP

        observe.enable()
        observe.reset()
        registry = ObjectRegistry()
        registry.heap("f", ("main", "f"), 16)
        sessions = [SessionDef(0, ONE_HEAP, "s0", (0,))]
        trace = EventTrace(TraceMeta())
        trace.append_install(0, 0, 16)
        for i in range(16):
            trace.append_write(4 * i, 4 * i + 4)
        cols = trace.as_arrays()
        results = []
        for backend in ("python", engine):
            stream = open_simulation_stream(registry, sessions, (4096,),
                                            engine=backend)
            for part in (slice(0, 9), slice(9, None)):
                stream.feed(cols.kinds[part], cols.col_a[part],
                            cols.col_b[part], cols.col_c[part])
            assert peak_resident_chunks() == 0
            results.append(stream.finish(trace.meta, expected_events=17))
        reference, result = results
        assert result.total_writes == reference.total_writes == 16
        assert [c.hits for c in result.counts] == \
            [c.hits for c in reference.counts] == [4]
        observe.reset()


class StreamWorkload(Workload):
    """Tiny but heap- and call-heavy program for tracer equivalence."""

    name = "stream-mini"
    default_scale = 1
    smoke_scale = 1

    def source(self, scale):
        return """
        int g;

        int leaf(int x) {
          int local;
          local = x * 2;
          g = g + local;
          return local;
        }

        int main() {
          int i;
          int *block;
          block = malloc(16);
          for (i = 0; i < 12; i = i + 1) {
            block[i % 4] = leaf(i);
          }
          block = realloc(block, 64);
          free(block);
          return g;
        }
        """


class TestChunkingTracer:
    def test_chunks_reconstruct_batch_trace(self):
        workload = StreamWorkload()
        batch = run_workload(workload, 1)
        chunks = []
        streamed = run_workload(workload, 1, chunk_sink=chunks.append,
                                chunk_events=16)
        # The streamed run returns an *empty* trace whose meta carries
        # the authoritative totals.
        assert len(streamed.trace) == 0
        assert vars(streamed.trace.meta) == vars(batch.trace.meta)
        assert [chunk.seq for chunk in chunks] == list(range(len(chunks)))
        assert len(chunks) > 1
        for chunk in chunks:
            chunk.verify()
        batch_columns = batch.trace.as_arrays()
        for field, batch_column in zip(batch_columns._fields, batch_columns):
            joined = np.concatenate(
                [getattr(chunk, field) for chunk in chunks]
            )
            assert np.array_equal(joined, np.asarray(batch_column)), field
        total = sum(chunk.n_events for chunk in chunks)
        meta = streamed.trace.meta
        assert total == meta.n_writes + meta.n_installs + meta.n_removes
        # Registries must agree object for object.
        assert [vars(obj) for obj in streamed.registry.objects] == \
            [vars(obj) for obj in batch.registry.objects]

    def test_chunk_sizes_approximate_threshold(self):
        chunks = []
        run_workload(StreamWorkload(), 1, chunk_sink=chunks.append,
                     chunk_events=16)
        # Flushing happens per event hook, so chunks may exceed the
        # threshold by one hook's worth of events, never wildly.
        for chunk in chunks[:-1]:
            assert 16 <= chunk.n_events < 16 + 64

    def test_rejects_nonpositive_chunk_events(self):
        with pytest.raises(PipelineError):
            run_workload(StreamWorkload(), 1, chunk_sink=lambda c: None,
                         chunk_events=0)


class TestStreamFaultpoints:
    def test_injected_emit_fault_fires_on_put(self):
        faults.install("stream.emit:fatal")
        channel = ChunkChannel()
        with pytest.raises(PipelineError):
            channel.put(make_chunk(0))

    def test_injected_emit_fault_targets_later_chunk(self):
        faults.install("stream.emit:fatal@3")
        channel = ChunkChannel(capacity=8)
        channel.put(make_chunk(0))
        channel.put(make_chunk(1))
        with pytest.raises(PipelineError):
            channel.put(make_chunk(2))

    def test_injected_spill_fault_aborts_writer(self, tmp_path):
        from repro.trace.tracefile import ChunkedTraceWriter

        faults.install("stream.spill:corrupt")
        dest = tmp_path / "trace.npz"
        with pytest.raises(faults.InjectedCorruption):
            with ChunkedTraceWriter(dest) as writer:
                writer.write_chunk(make_chunk(0))
        # The writer aborted: no partial file published.
        assert not dest.exists()
        assert list(tmp_path.iterdir()) == []


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
