"""Benchmark: streamed (chunked) phase 2 vs whole-trace replay.

The streaming pipeline exists so traces larger than RAM can replay from
disk with bounded memory.  This benchmark measures both sides of that
trade on the same spilled archive, for **both** simulation backends:

* **events/sec** — chunk-at-a-time feeding through
  :class:`~repro.simulate.engine.SimulationStream` /
  :class:`~repro.simulate.native_engine.NativeSimulationStream` vs
  materializing the whole trace and simulating it in one call;
* **peak memory** — ``tracemalloc`` peaks of both paths.  The streamed
  path must stay bounded by a handful of chunks while the whole-trace
  path pays for the full column set, and the
  ``stream.peak_resident_chunks`` gauge must stay within the channel
  bound (the claim ``docs/TRACE_FORMAT.md`` and the ``--stream`` flag
  rest on).

Both backends are truly incremental: each carries state bounded by the
live working set (owned words, touched pages, open windows) from one
chunk to the next.  The memory tests below pin both halves of that
claim — the streamed peak sits far below the whole-trace peak, and on
the native backend it scales with the chunk size, not the trace size —
and the identity test re-spills the same trace at randomized chunk
boundaries to check streamed results stay bit-identical to batch on
both backends.
"""

from __future__ import annotations

import random
import threading
import tracemalloc

import pytest

from repro import observe
from repro.sessions.types import SessionDef, ONE_HEAP, ALL_HEAP_IN_FUNC
from repro.simulate import open_simulation_stream, simulate_sessions
from repro.simulate._native import native_available
from repro.trace import EventTrace, ObjectRegistry, iter_chunks, load_trace
from repro.trace.stream import ChunkChannel, peak_resident_chunks
from repro.trace.tracefile import ChunkedTraceWriter, TraceStreamReader

N_OBJECTS = 40
N_EVENTS = 120_000
BASE = 0x0020_0000
STRIDE = 256
CHUNK_EVENTS = 4_096
CHANNEL_CAPACITY = 4
PAGE_SIZES = (4096, 8192)
needs_native = pytest.mark.skipif(
    not native_available(), reason="native kernel unavailable"
)
ENGINES = ("python", pytest.param("native", marks=needs_native))


def _build_trace(n_events=N_EVENTS):
    registry = ObjectRegistry()
    for _ in range(N_OBJECTS):
        registry.heap("f", ("main", "f"), 32)
    trace = EventTrace("stream-throughput")
    state = 987654321
    live = {}

    def rand(bound):
        nonlocal state
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        return state % bound

    for _ in range(n_events):
        roll = rand(100)
        if roll < 75:
            word = rand(N_OBJECTS * STRIDE // 4)
            address = BASE + word * 4
            trace.append_write(address, address + 4)
        else:
            slot = rand(N_OBJECTS)
            if slot in live:
                begin, end = live.pop(slot)
                trace.append_remove(slot, begin, end)
            else:
                begin = BASE + slot * STRIDE
                end = begin + 4 * (1 + rand(8))
                live[slot] = (begin, end)
                trace.append_install(slot, begin, end)
    for slot, (begin, end) in sorted(live.items()):
        trace.append_remove(slot, begin, end)

    sessions = [
        SessionDef(index, ONE_HEAP, f"one{index}", (index,))
        for index in range(N_OBJECTS)
    ]
    sessions.append(
        SessionDef(N_OBJECTS, ALL_HEAP_IN_FUNC, "all", tuple(range(N_OBJECTS)))
    )
    return trace, registry, sessions


def _spill(trace, registry, path, chunk_events=CHUNK_EVENTS):
    """Write ``trace`` as a chunked archive, ``chunk_events`` per chunk."""
    with ChunkedTraceWriter(path) as writer:
        for chunk in iter_chunks(trace, chunk_events):
            writer.write_chunk(chunk)
        writer.finalize(trace.meta, registry)


@pytest.fixture(scope="module")
def spilled(tmp_path_factory):
    """The synthetic trace spilled once as a chunked archive."""
    trace, registry, sessions = _build_trace()
    path = tmp_path_factory.mktemp("stream-bench") / "trace.npz"
    _spill(trace, registry, path)
    return path, sessions


@pytest.fixture(scope="module")
def spilled_half(tmp_path_factory):
    """The same generator stopped at half the events — the scaling
    baseline for the chunk-size-not-trace-size assertion."""
    trace, registry, sessions = _build_trace(N_EVENTS // 2)
    path = tmp_path_factory.mktemp("stream-bench-half") / "trace.npz"
    _spill(trace, registry, path)
    return path, sessions


def _run_batch(path, sessions, engine="python"):
    trace, registry = load_trace(path)
    return simulate_sessions(trace, registry, sessions, PAGE_SIZES,
                             engine=engine)


def _run_streamed(path, sessions, engine="python"):
    """The pipeline wiring: reader thread -> bounded channel -> engine."""
    with TraceStreamReader(path) as reader:
        stream = open_simulation_stream(
            reader.registry, sessions, PAGE_SIZES, engine=engine
        )
        channel = ChunkChannel(capacity=CHANNEL_CAPACITY)

        def produce():
            try:
                for chunk in reader.chunks():
                    channel.put(chunk)
            except BaseException as exc:
                channel.close(error=exc)
            else:
                channel.close(meta=reader.meta)

        producer = threading.Thread(target=produce, daemon=True)
        producer.start()
        for chunk in channel:
            stream.feed_chunk(chunk, verify=False)
        producer.join()
        return stream.finish(reader.meta, expected_events=reader.n_events)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("mode", ["batch", "stream"])
def test_stream_throughput(benchmark, spilled, mode, engine):
    path, sessions = spilled
    runner = _run_batch if mode == "batch" else _run_streamed
    result = benchmark(runner, path, sessions, engine)
    assert result.total_writes > 0
    assert result.overlap_anomalies == 0
    benchmark.extra_info["events_per_sec"] = (
        N_EVENTS / benchmark.stats.stats.mean
    )


def _assert_same_counts(batch, streamed):
    assert batch.total_writes == streamed.total_writes
    assert batch.overlap_anomalies == streamed.overlap_anomalies
    for cb, cs in zip(batch.counts, streamed.counts):
        assert (cb.installs, cb.removes, cb.hits, cb.misses,
                cb.max_concurrent) == \
            (cs.installs, cs.removes, cs.hits, cs.misses, cs.max_concurrent)
        for size in cb.vm:
            assert (cb.vm[size].protects, cb.vm[size].unprotects,
                    cb.vm[size].active_page_misses) == \
                (cs.vm[size].protects, cs.vm[size].unprotects,
                 cs.vm[size].active_page_misses)


@pytest.mark.parametrize("engine", ENGINES)
def test_streamed_and_batch_results_identical(spilled, engine, tmp_path):
    """Streamed == batch on both backends, including replays of the
    trace re-spilled at randomized chunk boundaries (chunk framing must
    not leak into results)."""
    path, sessions = spilled
    batch = _run_batch(path, sessions, engine)
    _assert_same_counts(batch, _run_streamed(path, sessions, engine))
    trace, registry = load_trace(path)
    rng = random.Random(0xD0C5)
    for attempt in range(2):
        respilled = tmp_path / f"trace-{attempt}.npz"
        _spill(trace, registry, respilled,
               chunk_events=rng.randint(100, 3 * CHUNK_EVENTS))
        _assert_same_counts(
            batch, _run_streamed(respilled, sessions, engine)
        )


@pytest.mark.parametrize("engine", ENGINES)
def test_streamed_peak_memory_is_bounded(spilled, engine):
    """The bounded-memory claim, per backend: streamed replay must peak
    well below the whole-trace path, and the resident-chunk gauge must
    respect the channel bound."""
    path, sessions = spilled

    tracemalloc.start()
    _run_batch(path, sessions, engine)
    _, batch_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    observe.reset()
    observe.enable()
    tracemalloc.start()
    _run_streamed(path, sessions, engine)
    _, stream_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    # Producer may hold one chunk mid-put and the consumer one mid-feed
    # beyond the queued CAPACITY.
    assert 1 <= peak_resident_chunks() <= CHANNEL_CAPACITY + 2
    snapshot = observe.get_registry().snapshot()
    assert snapshot["gauges"]["stream.peak_resident_chunks"] == \
        peak_resident_chunks()
    with TraceStreamReader(path) as reader:
        assert snapshot["counters"]["stream.chunks"] == reader.n_chunks
    observe.reset()
    observe.disable()

    # The whole-trace path materializes every column (plus the engine's
    # whole-trace working arrays); the streamed path holds a few chunks
    # plus working-set-sized carried state.  Require a clear separation,
    # not a tuned ratio.
    assert stream_peak < batch_peak / 2, (
        f"streamed peak {stream_peak} not bounded vs batch {batch_peak}"
    )


@needs_native
def test_streamed_native_peak_scales_with_chunk_not_trace(
    spilled, spilled_half
):
    """Doubling the trace must not move the streamed native peak: memory
    follows the chunk size and the live working set, not trace length.
    ``tracemalloc`` sees the chunks in flight and the column
    marshalling; the kernel's own C heap holds only the working set."""
    path_full, sessions = spilled
    path_half, sessions_half = spilled_half

    def measure(path, sessions):
        tracemalloc.start()
        _run_streamed(path, sessions, "native")
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak

    # Warm-up measurement first: the first run loads the kernel and
    # allocates import-time state that would skew the comparison.
    measure(path_half, sessions_half)
    peak_half = measure(path_half, sessions_half)
    peak_full = measure(path_full, sessions)
    assert peak_full < 1.5 * peak_half, (
        f"streamed native peak grew with trace size: "
        f"{peak_half} (half) -> {peak_full} (full)"
    )
