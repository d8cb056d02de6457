"""Dispatcher matrix: every ``engine`` request × kernel availability.

``resolve_engine`` has two inputs: the request, and whether the native
kernel loads on this host.  This suite pins the full matrix:

* ``auto`` is native when the kernel loads and ``python`` otherwise,
  whatever the trace size;
* an explicit ``native`` request is a demand — an unavailable kernel
  raises :class:`PipelineError` rather than substituting;
* every request that resolves runs to results identical to the scalar
  reference on 0-, 1- and 2**20-event traces: the trace in memory, and
  the trace as :func:`load_trace` returns it from a saved cache entry.

Availability is simulated by monkeypatching the probe function (for
resolution logic) and via ``REPRO_NATIVE_DISABLE`` (for the real
loader's gate), so the matrix runs identically on hosts with and
without a C toolchain; rows that must really run the kernel skip
without one.
"""

import zipfile

import numpy as np
import pytest

import repro.simulate as sim
from repro import observe
from repro.errors import PipelineError
from repro.sessions.types import SessionDef, ONE_HEAP
from repro.simulate import native_engine, resolve_engine, simulate_sessions
from repro.simulate._native import load_native_library, native_available
from repro.trace import EventTrace, ObjectRegistry, load_trace, save_trace
from repro.trace import tracefile
from repro.trace.events import EventKind, TraceMeta

from test_vector_equivalence import (
    assert_identical,
    build_random,
    simulate_python,
)

SIZES = (0, 1, 1 << 20)

needs_kernel = pytest.mark.skipif(
    not native_available(), reason="native kernel unavailable"
)


@pytest.fixture
def availability(monkeypatch):
    """Force the dispatcher's view of kernel availability."""

    def set_available(native):
        monkeypatch.setattr(sim, "_native_available", lambda: native)

    return set_available


def _writes_trace(n_events):
    """An install followed by ``n_events - 1`` single-word writes that
    cycle over 64 words, a quarter of them inside the watched object."""
    registry = ObjectRegistry()
    registry.heap("f", ("main", "f"), 64)
    kinds = np.full(n_events, int(EventKind.WRITE), np.int8)
    col_a = (np.arange(n_events, dtype=np.int64) % 64) * 4
    col_b = col_a + 4
    col_c = np.zeros(n_events, np.int64)
    if n_events:
        kinds[0] = int(EventKind.INSTALL)
        col_a[0], col_b[0], col_c[0] = 0, 0, 64
    meta = TraceMeta(program=f"writes{n_events}",
                     n_writes=max(n_events - 1, 0),
                     n_installs=min(n_events, 1))
    trace = EventTrace.from_arrays(kinds, col_a, col_b, col_c, meta)
    return trace, registry, [SessionDef(0, ONE_HEAP, "s0", (0,))]


@pytest.fixture(scope="module")
def sized_cases(tmp_path_factory):
    """size -> (trace, registry, sessions, scalar reference result, path
    of the trace saved as a cache entry)."""
    cases = {}
    directory = tmp_path_factory.mktemp("sized")
    for n_events in SIZES:
        trace, registry, sessions = _writes_trace(n_events)
        reference = simulate_python(trace, registry, sessions, (4096, 8192))
        path = directory / f"writes{n_events}.npz"
        save_trace(trace, registry, path)
        cases[n_events] = (trace, registry, sessions, reference, path)
    return cases


def _run_source(source, request_, case):
    """Simulate ``case`` with ``engine=request_``, the trace taken from
    ``source``: in memory, or loaded from its saved entry."""
    trace, registry, sessions, _, path = case
    if source == "loaded":
        trace, registry = load_trace(path)
    return simulate_sessions(trace, registry, sessions, (4096, 8192),
                             engine=request_)


class TestResolveMatrix:
    """resolve_engine over request × availability × size."""

    @pytest.mark.parametrize("n_events", SIZES)
    @pytest.mark.parametrize("native", [True, False])
    @pytest.mark.parametrize("request_", ["auto", "python", "native"])
    def test_matrix(self, availability, request_, native, n_events):
        availability(native)
        if request_ == "native" and not native:
            with pytest.raises(PipelineError, match="native.*unavailable"):
                resolve_engine(request_, n_events=n_events)
            return
        expected = {
            "auto": "native" if native else "python",
            "python": "python",
            "native": "native",
        }[request_]
        assert resolve_engine(request_, n_events=n_events) == expected
        assert resolve_engine(request_) == expected

    def test_unknown_engine_rejected(self, availability):
        availability(True)
        with pytest.raises(PipelineError, match="unknown engine"):
            resolve_engine("cython")

    def test_engine_choices(self, availability):
        availability(True)
        assert sim.ENGINE_CHOICES == ("auto", "python", "native")
        with pytest.raises(PipelineError, match="unknown engine"):
            resolve_engine("numpy")


class TestRunMatrix:
    """Each resolvable request runs on the backend it resolves to and
    matches the scalar reference."""

    @pytest.mark.parametrize("n_events", SIZES)
    @pytest.mark.parametrize("source", ["memory", "loaded"])
    @pytest.mark.parametrize("request_,native", [
        pytest.param("auto", True, marks=needs_kernel),
        ("auto", False),
        pytest.param("native", True, marks=needs_kernel),
    ], ids=["auto-kernel", "auto-no-kernel", "native-kernel"])
    def test_matrix(self, availability, sized_cases, request_, native,
                    source, n_events):
        availability(native)
        reference = sized_cases[n_events][3]
        was_enabled = observe.is_enabled()
        observe.reset()
        observe.enable()
        try:
            result = _run_source(source, request_, sized_cases[n_events])
            backends = {
                name: value
                for name, value in observe.get_registry().snapshot()[
                    "counters"].items()
                if name.startswith("engine.backend.")
            }
        finally:
            if not was_enabled:
                observe.disable()
            observe.reset()
        ran = "native" if native else "python"
        assert backends == {f"engine.backend.{ran}": 1}
        assert_identical(reference, result)

    def test_largest_case_spans_several_slices(self, sized_cases):
        """The ``loaded`` rows read each column of the 2**20-event case
        back in more than one reader slice, and get the trace's columns."""
        trace, _, _, _, path = sized_cases[1 << 20]
        with zipfile.ZipFile(path) as archive:
            sizes = {info.filename: info.file_size
                     for info in archive.infolist()}
        for column in ("kinds", "col_a", "col_b", "col_c"):
            assert sizes[column + ".npy"] > 2 * tracefile._SLICE_BYTES
        loaded, _ = load_trace(path)
        for got, want in zip(loaded.as_arrays(), trace.as_arrays()):
            assert np.array_equal(got, want)


class TestRealLoaderGate:
    """The actual loader's availability gate (not the monkeypatched view)."""

    def test_disable_env_forces_unavailable(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        assert not native_available(refresh=True)
        with pytest.raises(PipelineError, match="native"):
            trace, registry, sessions = build_random(1)
            simulate_sessions(trace, registry, sessions, (4096,),
                              engine="native")
        monkeypatch.delenv("REPRO_NATIVE_DISABLE")
        native_available(refresh=True)  # restore the memoized probe

    def test_auto_degrades_when_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        native_available(refresh=True)
        trace, registry, sessions = build_random(1)
        batch = simulate_python(trace, registry, sessions, (4096,))
        result = simulate_sessions(trace, registry, sessions, (4096,),
                                   engine="auto")
        assert_identical(batch, result)
        monkeypatch.delenv("REPRO_NATIVE_DISABLE")
        native_available(refresh=True)

    @needs_kernel
    def test_native_pass_raises_when_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        native_available(refresh=True)
        try:
            with pytest.raises(PipelineError, match="unavailable"):
                native_engine.native_pass([], 1, (4096,), [], [], [], [])
        finally:
            monkeypatch.delenv("REPRO_NATIVE_DISABLE")
            native_available(refresh=True)


class _FailingFeed:
    """The loaded library with ``engine_feed`` reporting out of memory
    and ``engine_free`` counted."""

    def __init__(self, lib):
        self._lib = lib
        self.frees = 0

    def __getattr__(self, name):
        return getattr(self._lib, name)

    def engine_feed(self, *args):
        return 1

    def engine_free(self, handle):
        self.frees += 1
        self._lib.engine_free(handle)


@needs_kernel
def test_failed_feed_frees_the_engine_state(monkeypatch):
    """A kernel error raises PipelineError and still frees the C state,
    exactly once."""
    failing = _FailingFeed(load_native_library())
    monkeypatch.setattr(native_engine, "load_native_library",
                        lambda: failing)
    trace, registry, sessions = build_random(3)
    with pytest.raises(PipelineError, match="out of memory"):
        simulate_sessions(trace, registry, sessions, (4096,),
                          engine="native")
    assert failing.frees == 1
