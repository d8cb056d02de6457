"""Guard: fault injection, when *disabled*, must not tax the pipeline.

The fault-injection layer's contract mirrors ``repro.observe``'s: with
no plan installed a :func:`repro.faults.faultpoint` is a single module-
global ``None`` check, and no faultpoint lives anywhere near the
per-event engine loop.  This benchmark enforces that contract three
ways:

* **structurally** — the simulation engines must contain no faultpoint
  call at all (a per-event hook would be a per-event tax no flag check
  can hide), and a disabled hit must leave the observe registry
  untouched;
* **by micro-timing** — a disabled faultpoint call must stay within an
  order of magnitude of an inert no-op function call;
* **end-to-end** — min-of-N warm-cache pipeline loads with the fault
  machinery in place are compared against the same loads with every
  ``faultpoint`` binding replaced by an inert stub; the ratio must stay
  under 1.03, i.e. <3% disabled-path overhead.  Each sample times
  repeated loads for at least ``MIN_SAMPLE_SECONDS``.
"""

from __future__ import annotations

import inspect
import time

import pytest

from repro import faults, observe
from repro.experiments import pipeline as pipeline_module
from repro.experiments import store as store_module
from repro.experiments.pipeline import ExperimentConfig, load_program_data
from repro.faults import faultpoint
from repro.simulate import engine as engine_module
from repro.simulate import native_engine as native_engine_module
from repro.trace import shared as shared_module
from repro.trace import tracefile as tracefile_module

N_TIMING_ROUNDS = 5
MAX_DISABLED_OVERHEAD = 1.03
#: A timed sample repeats the warm load until it lasts this long, so one
#: scheduler hiccup cannot decide a sub-millisecond sample.
MIN_SAMPLE_SECONDS = 0.05
PROGRAM = "qcd"

#: every module that calls faultpoint() on the pipeline's hot-ish paths.
_HOOKED_MODULES = (pipeline_module, tracefile_module, store_module)


def _inert_faultpoint(name, program=None, **ctx):
    """Stand-in for a faultpoint compiled out entirely."""


@pytest.fixture()
def no_plan():
    faults.clear_plan()
    yield
    faults.clear_plan()


@pytest.mark.parametrize("module", [
    engine_module, native_engine_module, shared_module,
])
def test_engines_carry_no_faultpoints(module):
    """Faultpoints belong on recovery boundaries (cache, I/O, workers),
    never inside the per-event simulation loop — nor in the native
    kernel's marshalling layer or the shm data plane."""
    assert "faultpoint" not in inspect.getsource(module)


def test_disabled_faultpoint_records_nothing(no_plan):
    was_enabled = observe.is_enabled()
    observe.reset()
    observe.enable()
    try:
        for _ in range(1000):
            faultpoint("cache.read", program=PROGRAM)
        snapshot = observe.get_registry().snapshot()
    finally:
        if not was_enabled:
            observe.disable()
        observe.reset()
    assert snapshot["counters"] == {}
    assert snapshot["notes"] == {}


def test_disabled_faultpoint_micro_cost(no_plan):
    """A disabled hit is one global check — bounded against a no-op."""
    calls = 100_000

    def timed(func) -> float:
        start = time.perf_counter()
        for _ in range(calls):
            func("cache.read", program=PROGRAM)
        return time.perf_counter() - start

    timed(faultpoint), timed(_inert_faultpoint)  # warm-up
    disabled = min(timed(faultpoint) for _ in range(N_TIMING_ROUNDS))
    inert = min(timed(_inert_faultpoint) for _ in range(N_TIMING_ROUNDS))
    assert disabled < inert * 10, (
        f"disabled faultpoint {1e9 * disabled / calls:.0f}ns/call vs "
        f"no-op {1e9 * inert / calls:.0f}ns/call"
    )


def test_disabled_path_overhead_under_3_percent(no_plan, tmp_path,
                                                monkeypatch):
    config = ExperimentConfig(
        programs=(PROGRAM,), scale="smoke", cache_dir=tmp_path
    )
    load_program_data(PROGRAM, config)  # warm the cache and the caches

    def timed_run() -> float:
        """Seconds per warm load, over at least MIN_SAMPLE_SECONDS."""
        loads, start = 0, time.perf_counter()
        while True:
            load_program_data(PROGRAM, config)
            loads += 1
            elapsed = time.perf_counter() - start
            if elapsed >= MIN_SAMPLE_SECONDS:
                return elapsed / loads

    hooked_times, stubbed_times = [], []
    for _ in range(N_TIMING_ROUNDS):
        for module in _HOOKED_MODULES:
            monkeypatch.setattr(module, "faultpoint", _inert_faultpoint)
        stubbed_times.append(timed_run())
        for module in _HOOKED_MODULES:
            monkeypatch.setattr(module, "faultpoint", faultpoint)
        hooked_times.append(timed_run())

    ratio = min(hooked_times) / min(stubbed_times)
    assert ratio < MAX_DISABLED_OVERHEAD, (
        f"disabled-path faultpoint overhead {100 * (ratio - 1):.2f}% exceeds "
        f"{100 * (MAX_DISABLED_OVERHEAD - 1):.0f}% "
        f"(hooked {min(hooked_times):.4f}s vs stubbed {min(stubbed_times):.4f}s)"
    )
