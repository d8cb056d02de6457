"""Guard: observation, when *disabled*, must not tax the engine.

The observability layer's contract is that the hot layers record
run-level summaries only — never per-event work — so the disabled path
through :func:`repro.simulate.simulate_sessions` costs one flag check
per call.  This benchmark enforces that contract two ways:

* **structurally** — a disabled run must leave the global registry
  untouched (catches accidental always-on recording), and an enabled run
  must produce the documented counters;
* **by timing** — min-of-N interleaved runs of the shipped engine with
  observation disabled are compared against the same engine with its
  ``observe`` binding replaced by an inert stub (the closest executable
  stand-in for "instrumentation compiled out"); the ratio must stay
  under 1.03, i.e. <3% disabled-path overhead.

If a future change instruments the event loop itself, the timing ratio
blows past the bound and this test fails.
"""

from __future__ import annotations

import time

import pytest

from repro import observe
from repro.observe import profile as observe_profile
from repro.simulate import engine as engine_module
from repro.simulate import native_engine as native_engine_module
from repro.simulate import simulate_sessions
from repro.simulate._native import native_available

from test_engine_throughput import _build_trace

N_TIMING_ROUNDS = 5
MAX_DISABLED_OVERHEAD = 1.03

#: backend name -> the module whose ``observe`` binding the engine reads.
_BACKEND_MODULES = {
    "python": engine_module,
    "native": native_engine_module,
}

ENGINES = [
    "python",
    pytest.param("native", marks=pytest.mark.skipif(
        not native_available(), reason="native kernel unavailable")),
]


class _InertObserve:
    """Stand-in for the observe module with observation compiled out."""

    @staticmethod
    def is_enabled() -> bool:
        return False


@pytest.fixture()
def quiet_registry():
    """Fresh, disabled observation state; restore whatever was before."""
    was_enabled = observe.is_enabled()
    observe.disable()
    observe.reset()
    yield observe.get_registry()
    if was_enabled:
        observe.enable()
    observe.reset()


@pytest.mark.parametrize("engine", ENGINES)
def test_disabled_run_records_nothing(quiet_registry, engine):
    trace, registry, sessions = _build_trace()
    simulate_sessions(trace, registry, sessions, (4096, 8192), engine=engine)
    snapshot = quiet_registry.snapshot()
    assert snapshot["counters"] == {}
    assert snapshot["histograms"] == {}
    assert snapshot["spans"] == []


@pytest.mark.parametrize("engine", ENGINES)
def test_disabled_profiling_records_nothing(quiet_registry, engine):
    """The sampling profiler shares the disabled-path contract."""
    observe_profile.disable_profiling()
    observe_profile.reset_profile()
    trace, registry, sessions = _build_trace()
    simulate_sessions(trace, registry, sessions, (4096, 8192), engine=engine)
    assert observe_profile.get_profiler().engine_events == {}


@pytest.mark.parametrize("engine", ENGINES)
def test_enabled_profiling_samples_the_event_mix(quiet_registry, engine):
    trace, registry, sessions = _build_trace()
    observe_profile.enable_profiling(stride=100)
    observe_profile.reset_profile()
    try:
        simulate_sessions(trace, registry, sessions, (4096, 8192),
                          engine=engine)
    finally:
        samples = dict(observe_profile.get_profiler().engine_events)
        observe_profile.disable_profiling()
        observe_profile.reset_profile()
    assert sum(samples.values()) == len(trace.kinds[::100])


@pytest.mark.parametrize("engine", ENGINES)
def test_enabled_run_records_engine_counters(quiet_registry, engine):
    """Both backends report the same run-level counters — and the same
    ``engine.events_per_sec`` histogram — so manifests from either are
    directly comparable by ``diff``/``trend``."""
    trace, registry, sessions = _build_trace()
    observe.enable()
    try:
        result = simulate_sessions(trace, registry, sessions, (4096, 8192),
                                   engine=engine)
    finally:
        observe.disable()
    snapshot = quiet_registry.snapshot()
    counters = snapshot["counters"]
    assert counters["engine.runs"] == 1
    assert counters["engine.events"] == len(trace)
    assert counters["engine.writes"] == result.total_writes
    assert counters["engine.sessions_studied"] == len(result.sessions)
    assert snapshot["notes"]["engine.backend"] == [engine]
    assert quiet_registry.histogram("engine.events_per_sec").count == 1


@pytest.mark.parametrize("engine", ENGINES)
def test_disabled_events_record_nothing(quiet_registry, engine):
    """The flight recorder shares the disabled-path contract: with events
    off, ``emit`` is one flag check and the ring stays empty."""
    observe.disable_events()
    recorder = observe.get_recorder()
    before = len(recorder.entries())
    trace, registry, sessions = _build_trace()
    simulate_sessions(trace, registry, sessions, (4096, 8192), engine=engine)
    observe.emit_event("cache.hit", kind="trace")
    assert len(recorder.entries()) == before
    assert observe.events_summary() is None


@pytest.mark.parametrize("engine", ENGINES)
def test_enabled_events_stay_out_of_the_hot_loop(quiet_registry, engine):
    """Events mark pipeline boundaries, never per-event engine work: an
    engine run with the recorder armed must emit zero events."""
    observe.enable_events()
    try:
        trace, registry, sessions = _build_trace()
        simulate_sessions(trace, registry, sessions, (4096, 8192),
                          engine=engine)
        assert observe.get_recorder().entries() == []
    finally:
        observe.disable_events()


@pytest.mark.parametrize("engine", ENGINES)
def test_disabled_path_overhead_under_3_percent(quiet_registry, monkeypatch,
                                                engine):
    trace, registry, sessions = _build_trace()
    backend_module = _BACKEND_MODULES[engine]

    def timed_run() -> float:
        start = time.perf_counter()
        simulate_sessions(trace, registry, sessions, (4096, 8192),
                          engine=engine)
        return time.perf_counter() - start

    # Warm up allocator/caches so neither variant pays first-run costs.
    timed_run()

    disabled_times, stubbed_times = [], []
    for _ in range(N_TIMING_ROUNDS):
        monkeypatch.setattr(backend_module, "observe", _InertObserve)
        stubbed_times.append(timed_run())
        monkeypatch.setattr(backend_module, "observe", observe)
        disabled_times.append(timed_run())

    ratio = min(disabled_times) / min(stubbed_times)
    assert ratio < MAX_DISABLED_OVERHEAD, (
        f"[{engine}] disabled-path observe overhead {100 * (ratio - 1):.2f}% "
        f"exceeds {100 * (MAX_DISABLED_OVERHEAD - 1):.0f}% "
        f"(disabled {min(disabled_times):.4f}s vs stubbed {min(stubbed_times):.4f}s)"
    )
