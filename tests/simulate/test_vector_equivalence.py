"""Differential gate: the native kernel must be bit-identical to the
scalar reference kernel.

The native backend (:mod:`repro.simulate.native_engine`) ports the
scalar kernel's per-event loop to C; nothing in that port is allowed to
change a single counting variable.  This suite enforces that with

* a randomized differential sweep — adversarial traces (overlapping
  installs, removes of non-live objects, open windows at EOF, unaligned
  multi-word writes, tiny and huge page sizes) replayed through both
  backends and compared field by field;
* the documented engine invariants, checked on *both* backends;
* the shell's input checks, on both backends;
* traces saved, then loaded, simulated against the in-memory trace;
* dispatcher tests for :func:`repro.simulate.resolve_engine` and the
  ``engine=`` argument of :func:`repro.simulate.simulate_sessions`.

Native rows skip on hosts without the kernel (no C compiler, or
``REPRO_NATIVE_DISABLE`` set).  The CI ``equivalence`` job runs the
same comparison at full pipeline scale on the five benchmark programs.
"""

import random

import numpy as np
import pytest

from repro import observe
from repro.errors import PipelineError
from repro.observe import profile as observe_profile
from repro.sessions.types import SessionDef, ONE_HEAP, ALL_HEAP_IN_FUNC
from repro.simulate import native_engine, resolve_engine, simulate_sessions
from repro.simulate._native import native_available
from repro.trace import EventTrace, ObjectRegistry, load_trace, save_trace
from repro.trace.events import TraceMeta

needs_native = pytest.mark.skipif(
    not native_available(), reason="native kernel unavailable (no C compiler)"
)
#: Both backends, the native one skipped where the kernel does not load.
BACKENDS = ["python", pytest.param("native", marks=needs_native)]


def simulate_python(trace, registry, sessions, page_sizes):
    return simulate_sessions(trace, registry, sessions, page_sizes,
                             engine="python")


def simulate_native(trace, registry, sessions, page_sizes):
    return simulate_sessions(trace, registry, sessions, page_sizes,
                             engine="native")


#: Page-size configurations the sweep replays every trace under: the
#: production pair, single sizes, and degenerate tiny pages (4-byte
#: pages make every word its own page — maximal transition traffic).
PAGE_SIZE_CONFIGS = ((4096, 8192), (4096,), (4, 64), (16,), (4096, 8192, 16384))


def build_random(seed):
    """One adversarial trace: overlap anomalies, EOF-open windows, all."""
    rng = random.Random(seed)
    n_objects = rng.randint(1, 12)
    registry = ObjectRegistry()
    for _ in range(n_objects):
        registry.heap("f", ("main", "f"), rng.choice([4, 8, 16, 64]))
    trace = EventTrace(f"rand{seed}")
    addr_of = {}
    live = set()
    for _ in range(rng.randint(20, 400)):
        roll = rng.random()
        if roll < 0.35 and len(live) < n_objects:
            object_id = rng.choice(
                [o for o in range(n_objects) if o not in live] or [0]
            )
            base = rng.randrange(0, 600, 2)  # overlaps earlier regions
            size = registry.get(object_id).size_bytes
            addr_of[object_id] = (base, base + size)
            trace.append_install(object_id, base, base + size)
            live.add(object_id)
        elif roll < 0.55:
            if live and rng.random() < 0.8:
                object_id = rng.choice(sorted(live))
                live.discard(object_id)
            else:
                # Remove of a non-live object: exercises the anomaly path.
                object_id = rng.randrange(n_objects)
            begin, end = addr_of.get(object_id, (0, 4))
            trace.append_remove(object_id, begin, end)
        else:
            address = rng.randrange(0, 640)
            if rng.random() < 0.25:
                trace.append_write(address, address + rng.choice([8, 12, 24, 64]))
            else:
                trace.append_write(address, address + 4)
    # Whatever is still live stays open at EOF: exercises the flush path.
    sessions = []
    for index in range(rng.randint(1, 8)):
        members = tuple(
            sorted(rng.sample(range(n_objects), rng.randint(1, n_objects)))
        )
        kind = ONE_HEAP if len(members) == 1 else ALL_HEAP_IN_FUNC
        sessions.append(SessionDef(index, kind, f"s{index}", members))
    return trace, registry, sessions


def assert_identical(expected, actual):
    """Field-by-field equality of two SimulationResults."""
    assert expected.total_writes == actual.total_writes
    assert expected.overlap_anomalies == actual.overlap_anomalies
    assert expected.n_discarded == actual.n_discarded
    assert [s.index for s in expected.sessions] == \
        [s.index for s in actual.sessions]
    assert expected.page_sizes == actual.page_sizes
    assert list(expected.counts) == list(actual.counts)
    for name, column in expected.counts.items():
        assert actual.counts[name].dtype == column.dtype == np.int64, name
        assert actual.counts[name].tolist() == column.tolist(), name


def assert_invariants(result):
    """The documented engine invariants (see engine module docstring)."""
    counts = result.counts
    assert np.all(counts["hits"] + counts["misses"] == result.total_writes)
    assert np.all(counts["hits"] > 0)  # zero-hit sessions are discarded
    # (removes can exceed installs here: the adversarial traces
    # deliberately remove non-live objects, which still counts.)
    for size in result.page_sizes:
        apm = counts[f"active_page_misses_{size}"]
        assert np.all((0 <= apm) & (apm <= counts["misses"]))
        # Every protect window closes — on its 1->0 transition or the
        # defensive EOF flush.
        assert np.array_equal(counts[f"unprotects_{size}"],
                              counts[f"protects_{size}"])


class TestDifferential:
    @needs_native
    @pytest.mark.parametrize("page_sizes", PAGE_SIZE_CONFIGS,
                             ids=lambda sizes: "x".join(map(str, sizes)))
    def test_randomized_sweep_native(self, page_sizes):
        for seed in range(60):
            trace, registry, sessions = build_random(seed)
            result_py = simulate_python(trace, registry, sessions, page_sizes)
            result_nat = simulate_native(trace, registry, sessions,
                                         page_sizes)
            assert_identical(result_py, result_nat)
            assert_invariants(result_nat)

    @needs_native
    def test_empty_trace(self):
        registry = ObjectRegistry()
        registry.heap("f", ("main", "f"), 16)
        trace = EventTrace(TraceMeta(program="empty"))
        sessions = [SessionDef(0, ONE_HEAP, "s0", (0,))]
        result_py = simulate_python(trace, registry, sessions, (4096,))
        result_nat = simulate_native(trace, registry, sessions, (4096,))
        assert_identical(result_py, result_nat)
        assert result_nat.total_writes == 0
        assert result_nat.n_discarded == 1

    @needs_native
    def test_writes_only_no_installs(self):
        """No endpoints at all: every write is a miss on both backends."""
        registry = ObjectRegistry()
        registry.heap("f", ("main", "f"), 16)
        trace = EventTrace(TraceMeta(program="writes"))
        for i in range(10):
            trace.append_write(0x1000 + 4 * i, 0x1004 + 4 * i)
        sessions = [SessionDef(0, ONE_HEAP, "s0", (0,))]
        result_py = simulate_python(trace, registry, sessions, (4096,))
        result_nat = simulate_native(trace, registry, sessions, (4096,))
        assert_identical(result_py, result_nat)
        assert result_nat.total_writes == 10

    @needs_native
    def test_open_window_at_eof_flush(self):
        """A window left open at EOF flushes identically on both backends."""
        registry = ObjectRegistry()
        registry.heap("f", ("main", "f"), 8)
        trace = EventTrace(TraceMeta(program="open"))
        trace.append_install(0, 0x1000, 0x1008)
        trace.append_write(0x1000, 0x1004)   # hit
        trace.append_write(0x1200, 0x1204)   # miss, same page -> raw write
        sessions = [SessionDef(0, ONE_HEAP, "s0", (0,))]
        result_py = simulate_python(trace, registry, sessions, (4096,))
        result_nat = simulate_native(trace, registry, sessions, (4096,))
        assert_identical(result_py, result_nat)
        counts = result_nat.counts
        assert counts["protects_4096"].tolist() == [1]
        # The defensive EOF flush closed it.
        assert counts["unprotects_4096"].tolist() == [1]
        assert counts["active_page_misses_4096"].tolist() == [1]

    @needs_native
    def test_overlap_anomaly_and_open_window(self):
        """Protect windows sharing pages, an overlap anomaly, a multi-word
        write across two objects and a window open at EOF."""
        registry = ObjectRegistry()
        for _ in range(3):
            registry.heap("f", ("main", "f"), 16)
        trace = EventTrace(TraceMeta(program="overlap"))
        trace.append_install(0, 100, 116)
        trace.append_write(104, 108)        # hit on obj 0
        trace.append_write(200, 204)        # miss
        trace.append_install(1, 108, 124)   # overlaps obj 0: anomaly
        trace.append_write(112, 116)        # owner now obj 1
        trace.append_write(100, 124)        # multi-word write, both pages
        trace.append_remove(0, 100, 116)
        trace.append_write(104, 108)
        trace.append_install(2, 0, 16)
        trace.append_write(4, 8)
        trace.append_remove(1, 108, 124)
        trace.append_write(112, 116)        # obj 2 still open at EOF
        sessions = [
            SessionDef(0, ONE_HEAP, "s0", (0,)),
            SessionDef(1, ONE_HEAP, "s1", (1,)),
            SessionDef(2, ALL_HEAP_IN_FUNC, "s2", (0, 1, 2)),
        ]
        scalar = simulate_python(trace, registry, sessions, (4096, 16))
        assert scalar.overlap_anomalies > 0
        assert_identical(scalar, simulate_native(trace, registry, sessions,
                                                 (4096, 16)))


class TestShellChecks:
    """The shell's input checks run before either kernel, so both
    backends reject the same inputs."""

    @pytest.mark.parametrize("engine", BACKENDS)
    def test_mismatched_column_lengths_rejected(self, engine):
        """Regression: ragged columns used to be accepted silently (the
        scalar zip truncated the longer columns)."""
        _, registry, sessions = build_random(7)
        for columns in (([1, 1], [4, 8], [8, 12], [0]),
                        ([1], [4, 8], [8], [0])):
            trace = EventTrace("ragged")
            trace.kinds, trace.col_a, trace.col_b, trace.col_c = columns
            with pytest.raises(PipelineError, match="ragged trace"):
                simulate_sessions(trace, registry, sessions, (4096,),
                                  engine=engine)

    @pytest.mark.parametrize("engine", BACKENDS)
    def test_engine_rejects_bad_page_sizes(self, engine):
        trace, registry, sessions = build_random(7)
        with pytest.raises(PipelineError, match="power of two"):
            simulate_sessions(trace, registry, sessions, (3000,),
                              engine=engine)

    @pytest.mark.parametrize("engine", BACKENDS)
    def test_engine_rejects_empty_sessions(self, engine):
        trace, registry, sessions = build_random(7)
        with pytest.raises(PipelineError, match="no sessions"):
            simulate_sessions(trace, registry, [], (4096,), engine=engine)


class TestShellObservation:
    """The shell observes and samples for both kernels, so a run reports
    the same counters and profile samples whichever kernel ran it."""

    @needs_native
    def test_backends_report_the_same_observations(self):
        trace, registry, sessions = build_random(11)
        was_enabled = observe.is_enabled()
        reports = {}
        for engine in ("python", "native"):
            observe.reset()
            observe.enable()
            observe_profile.enable_profiling(stride=3)
            try:
                simulate_sessions(trace, registry, sessions, (4096, 16),
                                  engine=engine)
                snapshot = observe.get_registry().snapshot()
            finally:
                observe_profile.disable_profiling()
                if not was_enabled:
                    observe.disable()
                observe.reset()
            counters = snapshot["counters"]
            assert counters.pop(f"engine.backend.{engine}") == 1
            reports[engine] = counters
        assert reports["python"] == reports["native"]
        counters = reports["python"]
        assert counters["engine.events"] == len(trace)
        samples = [value for name, value in counters.items()
                   if name.startswith("profile.engine.event.")]
        assert sum(samples) == len(trace.kinds[::3])

    @pytest.mark.parametrize("engine", BACKENDS)
    def test_backend_is_counted_once_per_run(self, engine):
        trace, registry, sessions = build_random(5)
        was_enabled = observe.is_enabled()
        observe.reset()
        observe.enable()
        try:
            for _ in range(2):
                simulate_sessions(trace, registry, sessions, (4096,),
                                  engine=engine)
            counters = observe.get_registry().snapshot()["counters"]
        finally:
            if not was_enabled:
                observe.disable()
            observe.reset()
        assert {name: value for name, value in counters.items()
                if name.startswith("engine.backend.")} == {
            f"engine.backend.{engine}": 2}

    def test_backend_is_not_counted_while_observation_is_off(self):
        trace, registry, sessions = build_random(5)
        was_enabled = observe.is_enabled()
        observe.reset()
        observe.disable()
        try:
            simulate_sessions(trace, registry, sessions, (4096,))
            counters = observe.get_registry().snapshot()["counters"]
        finally:
            if was_enabled:
                observe.enable()
            observe.reset()
        assert not any(name.startswith("engine.backend.")
                       for name in counters)


class TestNoColumnCopy:
    """The native kernel reads the trace's own int8/int32 buffers: a
    copy of a full-scale trace's columns would add tens of MB to a run's
    peak memory."""

    @pytest.mark.parametrize("source", ["appended", "from_arrays", "loaded"])
    def test_columns_are_passed_in_place(self, tmp_path, source):
        trace, registry, _ = build_random(3)
        if source == "from_arrays":
            trace = EventTrace.from_arrays(*trace.as_arrays(), trace.meta)
        elif source == "loaded":
            save_trace(trace, registry, tmp_path / "t.npz")
            trace, _ = load_trace(tmp_path / "t.npz")
        assert native_engine._i8_buffer(trace.kinds)[1] is trace.kinds
        for column in (trace.col_a, trace.col_b, trace.col_c):
            assert native_engine._i32_buffer(column)[1] is column


class TestSavedTraces:
    """A trace saved, then loaded, simulates bit-identically to the
    in-memory trace."""

    @pytest.mark.parametrize("engine", BACKENDS)
    def test_loaded_trace_matches_in_memory_trace(self, tmp_path, engine):
        for seed in range(10):
            trace, registry, sessions = build_random(seed)
            path = tmp_path / f"rand{seed}.npz"
            save_trace(trace, registry, path)
            loaded, loaded_registry = load_trace(path)
            scalar = simulate_python(trace, registry, sessions, (4096, 16))
            result = simulate_sessions(loaded, loaded_registry, sessions,
                                       (4096, 16), engine=engine)
            assert_identical(scalar, result)
            assert_invariants(result)


class TestDispatcher:
    def test_resolve_rejects_unknown(self):
        with pytest.raises(PipelineError):
            resolve_engine("cython")

    def test_resolve_python_is_explicit(self):
        assert resolve_engine("python", n_events=10**9) == "python"

    def test_auto_resolves_native_when_loaded(self):
        # The full availability matrix lives in test_engine_dispatch.py.
        expected = "native" if native_available() else "python"
        assert resolve_engine("auto") == expected

    def test_simulate_sessions_engine_arg(self):
        trace, registry, sessions = build_random(7)
        result_py = simulate_sessions(trace, registry, sessions, (4096,),
                                      engine="python")
        result_auto = simulate_sessions(trace, registry, sessions, (4096,),
                                        engine="auto")
        assert_identical(result_py, result_auto)
        if native_available():
            result_nat = simulate_sessions(trace, registry, sessions,
                                           (4096,), engine="native")
            assert_identical(result_py, result_nat)

    def test_simulate_sessions_rejects_unknown_engine(self):
        trace, registry, sessions = build_random(7)
        with pytest.raises(PipelineError):
            simulate_sessions(trace, registry, sessions, (4096,),
                              engine="fortran")
