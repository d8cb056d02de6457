"""Guard: observation, when *disabled*, must not tax the engine.

The observability layer's contract is that the hot layers record
run-level summaries only — never per-event work — so the disabled path
through :func:`repro.simulate.simulate_sessions` costs one flag check
per call.  This benchmark enforces that contract three ways:

* **structurally** — a disabled run must leave the global registry
  untouched (catches accidental always-on recording), and an enabled run
  must produce the documented counters;
* **by counting** — a disabled run makes the same small number of
  ``observe`` calls whatever the trace length (it counts them through a
  forwarding stand-in for the module), so per-event recording cannot
  hide in timing noise;
* **by timing** — interleaved runs (thread CPU time) of the shipped
  engine with observation disabled are compared against the same
  engine with its ``observe`` binding replaced by an inert stub (the
  closest executable stand-in for "instrumentation compiled out"); the
  median ratio of runs timed side by side must stay under 1.03, i.e.
  <3% disabled-path overhead.  Each engine times a trace sized for a run of about ten
  milliseconds (``TIMED_EVENTS``), so two runs timed side by side see
  the same host speed, and many such pairs make the median steady.

If a future change instruments the event loop itself, the count grows
with the trace and the timing ratio blows past the bound, and this test
fails.
"""

from __future__ import annotations

import dataclasses
import statistics
import time

import numpy as np
import pytest

from repro import observe
from repro import simulate as simulate_module
from repro.observe import profile as observe_profile
from repro.simulate import simulate_sessions
from repro.simulate._native import native_available
from repro.trace import EventTrace

from test_engine_throughput import N_EVENTS, _build_trace

N_TIMING_ROUNDS = 101
MAX_DISABLED_OVERHEAD = 1.03
#: Events of the timed trace, per engine: a run of about ten
#: milliseconds (see the module docstring).
TIMED_EVENTS = {"python": N_EVENTS // 16, "native": 2 * N_EVENTS}
#: ``observe`` calls a disabled run may make (flag checks at the
#: run's boundaries), whatever the trace length.
MAX_DISABLED_OBSERVE_CALLS = 4

#: The module whose ``observe`` binding a run reads, whichever backend
#: runs: the shell, which observes for both kernels.
_OBSERVING_MODULE = simulate_module

ENGINES = [
    "python",
    pytest.param("native", marks=pytest.mark.skipif(
        not native_available(), reason="native kernel unavailable")),
]


def _repeated(trace, times):
    """``trace``'s events ``times`` over (every window of the benchmark
    trace closes within it, so the copies are independent)."""
    columns = [np.tile(column, times) for column in trace.as_arrays()]
    meta = dataclasses.replace(
        trace.meta, n_writes=trace.meta.n_writes * times,
        n_installs=trace.meta.n_installs * times,
        n_removes=trace.meta.n_removes * times)
    return EventTrace.from_arrays(*columns, meta)


def _timed_trace(engine):
    events = TIMED_EVENTS[engine]
    if events <= N_EVENTS:
        return _build_trace(events)
    trace, registry, sessions = _build_trace()
    return _repeated(trace, events // N_EVENTS), registry, sessions


class _CountingObserve:
    """Forwards to the observe module and counts the calls made through it."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        target = getattr(observe, name)
        if not callable(target):
            return target

        def counted(*args, **kwargs):
            self.calls += 1
            return target(*args, **kwargs)

        return counted


class _InertObserve:
    """Stand-in for the observe module with observation compiled out."""

    @staticmethod
    def is_enabled() -> bool:
        return False


def _profile_samples(registry):
    """The engine's sampled event kinds: its ``profile.*`` counters."""
    return {
        name: value for name, value in registry.snapshot()["counters"].items()
        if name.startswith("profile.engine.event.")
    }


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
    trace, registry, sessions = _build_trace()
    observe.enable()
    try:
        simulate_sessions(trace, registry, sessions, (4096, 8192),
                          engine=engine)
    finally:
        observe.disable()
    assert _profile_samples(quiet_registry) == {}


@pytest.mark.parametrize("engine", ENGINES)
def test_enabled_profiling_samples_the_event_mix(quiet_registry, engine):
    trace, registry, sessions = _build_trace()
    observe.enable()
    observe_profile.enable_profiling(stride=100)
    try:
        simulate_sessions(trace, registry, sessions, (4096, 8192),
                          engine=engine)
    finally:
        observe_profile.disable_profiling()
        observe.disable()
    samples = _profile_samples(quiet_registry)
    assert sum(samples.values()) == len(trace.kinds[::100])


@pytest.mark.parametrize("engine", ENGINES)
def test_enabled_run_records_engine_counters(quiet_registry, engine):
    """Both backends report the same run-level counters — and the same
    ``engine.events_per_sec`` histogram — so manifests from either are
    directly comparable by ``show A.json B.json``."""
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
    assert counters[f"engine.backend.{engine}"] == 1
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
def test_disabled_path_makes_constant_observe_calls(quiet_registry, monkeypatch,
                                                    engine):
    trace, registry, sessions = _build_trace()
    calls = []
    for events in (trace, _repeated(trace, 4)):
        counting = _CountingObserve()
        monkeypatch.setattr(_OBSERVING_MODULE, "observe", counting)
        simulate_sessions(events, registry, sessions, (4096, 8192), engine=engine)
        calls.append(counting.calls)
    assert calls[0] == calls[1] <= MAX_DISABLED_OBSERVE_CALLS


@pytest.mark.parametrize("engine", ENGINES)
def test_disabled_path_overhead_under_3_percent(quiet_registry, monkeypatch,
                                                engine):
    trace, registry, sessions = _timed_trace(engine)

    def timed_run() -> float:
        # CPU time of this thread, which runs the whole engine (the
        # native kernel included): it leaves out the time the host gives
        # to other work, which wall time counts.
        start = time.thread_time()
        simulate_sessions(trace, registry, sessions, (4096, 8192),
                          engine=engine)
        return time.thread_time() - start

    # Warm up allocator/caches so neither variant pays first-run costs.
    timed_run()

    # Each round times the two variants back to back, in alternating
    # order, and the guard reads the median of the rounds' ratios: the
    # host's speed drifts over seconds, so only runs timed side by side
    # compare, and one disturbed round cannot decide the outcome.
    ratios = []
    for round_ in range(N_TIMING_ROUNDS):
        times = {}
        for variant in ((_InertObserve, observe) if round_ % 2 else (observe, _InertObserve)):
            monkeypatch.setattr(_OBSERVING_MODULE, "observe", variant)
            times[variant] = timed_run()
        ratios.append(times[observe] / times[_InertObserve])

    ratio = statistics.median(ratios)
    assert ratio < MAX_DISABLED_OVERHEAD, (
        f"[{engine}] disabled-path observe overhead {100 * (ratio - 1):.2f}% "
        f"exceeds {100 * (MAX_DISABLED_OVERHEAD - 1):.0f}% "
        f"(median of {N_TIMING_ROUNDS} paired ratios {sorted(round(r, 3) for r in ratios)})"
    )
