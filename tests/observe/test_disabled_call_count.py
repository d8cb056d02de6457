"""Guard: with observation and faults off, a run calls into them O(1) times.

The <3% timing guards under ``benchmarks/`` bound what the disabled path
costs, but they read host noise.  This check counts instead: every
Python call into a function defined under ``repro/observe/`` or
``repro/faults/`` made during :func:`load_program_data` is counted (a
``sys.setprofile`` hook filtered on ``co_filename``), at a program's
``smoke_scale`` and at twice it.  A per-event, per-instruction or
per-drain call makes the larger run count more; so the counts must be
equal, with the trace cache off and on: a trace save writes a fixed
set of members and passes a fixed number of faultpoints, whatever the
trace's length.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import Counter

import pytest

from repro import faults, observe
from repro.experiments.pipeline import ExperimentConfig, load_program_data
from repro.workloads import WORKLOADS

pytestmark = pytest.mark.observe

_ROOTS = tuple(
    os.path.dirname(package.__file__) + os.sep for package in (observe, faults)
)


@pytest.fixture(autouse=True)
def everything_off():
    """Observation, the flight recorder, the profiler and faults off."""
    was_enabled = observe.is_enabled()
    plan = faults.active_plan()
    observe.disable()
    observe.disable_events()
    observe.disable_profiling()
    faults.clear_plan()
    yield
    if was_enabled:
        observe.enable()
    if plan is not None:
        faults.install_plan(plan)


def _count_calls(name, scale, cache_dir, use_cache):
    """``{"file.py:function": calls}`` into observe/faults for one load."""
    calls = Counter()
    lock = threading.Lock()  # the trace writer thread counts too

    def profiler(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(_ROOTS):
                key = f"{os.path.basename(code.co_filename)}:{code.co_name}"
                with lock:
                    calls[key] += 1

    config = ExperimentConfig(programs=(name,), scale=scale,
                              cache_dir=cache_dir, use_cache=use_cache)
    previous = sys.getprofile(), threading.getprofile()
    threading.setprofile(profiler)
    sys.setprofile(profiler)
    try:
        load_program_data(name, config)
    finally:
        sys.setprofile(previous[0])
        threading.setprofile(previous[1])
    return calls


@pytest.mark.parametrize("name", ["gcc", "bps"])
def test_uncached_run_makes_the_same_calls_at_twice_the_scale(tmp_path, name):
    smoke = WORKLOADS[name].smoke_scale
    small = _count_calls(name, smoke, tmp_path, use_cache=False)
    large = _count_calls(name, 2 * smoke, tmp_path, use_cache=False)
    assert small, "the hook counted nothing"
    # The two one-sided differences name the functions whose counts moved.
    assert (large - small, small - large) == (Counter(), Counter())


def test_cold_cache_run_makes_the_same_calls_at_twice_the_scale(tmp_path):
    """qcd saves its trace to the cold cache at both scales."""
    name = "qcd"
    smoke = WORKLOADS[name].smoke_scale
    counts = []
    for scale in (smoke, 2 * smoke):
        cache_dir = tmp_path / str(scale)
        counts.append(_count_calls(name, scale, cache_dir, use_cache=True))
        assert len(list(cache_dir.glob(f"{name}-*.npz"))) == 1
    small, large = counts
    assert small["runtime.py:faultpoint"] > 0
    assert (large - small, small - large) == (Counter(), Counter())
