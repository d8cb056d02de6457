"""The pipeline writes its trace cache entry on a writer thread.

On a trace-cache miss :func:`load_program_data` starts ``save_trace`` on
a second thread and simulates while it runs, joining the writer before
the sim payload is published.  The write must fail exactly as the serial
write did: an ``OSError`` is a read-only note and the run goes on, any
other error fails (or retries) the task with no sim payload published,
and no attempt leaves a temporary file behind.
"""

from __future__ import annotations

import threading
import time
import zipfile

import pytest

from repro import faults, observe
from repro.errors import TraceRangeError
from repro.experiments import pipeline
from repro.experiments.pipeline import (
    ExperimentConfig,
    load_experiment_data,
    load_program_data,
)
from repro.experiments.store import SIM_SUFFIX
from repro.faults import InjectedCorruption, classify_failure
from repro.trace import save_trace, tracefile
from repro.trace.tracer import Tracer
from repro.workloads import WORKLOADS, run_workload
from tests.conftest import same_counts

PROGRAM = "qcd"  # heapless and quick at smoke scale


@pytest.fixture()
def config(tmp_path):
    return ExperimentConfig(programs=(PROGRAM,), scale="smoke",
                            cache_dir=tmp_path)


@pytest.fixture(scope="module")
def clean(tmp_path_factory):
    """A fault-free run's program data."""
    cache = tmp_path_factory.mktemp("clean")
    return load_program_data(
        PROGRAM, ExperimentConfig(programs=(PROGRAM,), scale="smoke",
                                  cache_dir=cache))


@pytest.fixture()
def observing():
    was_enabled = observe.is_enabled()
    observe.reset()
    observe.enable()
    yield observe.get_registry()
    if not was_enabled:
        observe.disable()
    observe.reset()


@pytest.fixture()
def plan():
    """Install a fault plan for one test; cleared afterwards."""
    yield faults.install
    faults.clear_plan()


def entries(config, suffix):
    return sorted(p.name for p in config.cache_dir.iterdir()
                  if p.name.endswith(suffix))


def assert_no_tmp(config):
    assert entries(config, ".tmp") == []


def assert_same_result(data, clean):
    assert vars(data.meta) == vars(clean.meta)
    got, want = dict(vars(data.result)), dict(vars(clean.result))
    assert same_counts(got.pop("counts"), want.pop("counts"))
    assert got == want


class TestWriteErrors:
    @pytest.mark.parametrize("spec", [
        "trace.save:oserror",   # before the temporary file is made
        "io.write:oserror@1",   # before the column members
        "io.write:oserror@2",   # before the footer, after every column
    ])
    def test_oserror_is_a_readonly_note_and_the_sim_is_published(
            self, config, clean, observing, plan, spec):
        plan(spec)
        data = load_program_data(PROGRAM, config)
        assert_same_result(data, clean)
        (readonly,) = observing.notes["cache.readonly"]
        assert readonly.endswith(".npz")
        assert "cache.trace.written" not in observing.notes
        assert entries(config, ".npz") == []
        assert len(entries(config, SIM_SUFFIX)) == 1
        assert_no_tmp(config)

    def test_other_error_fails_the_attempt_before_the_sim_publish(
            self, config, plan):
        plan("trace.save:corrupt")
        with pytest.raises(InjectedCorruption):
            load_program_data(PROGRAM, config)
        assert entries(config, ".npz") == []
        assert entries(config, SIM_SUFFIX) == []
        assert_no_tmp(config)

    def test_other_error_is_retried(self, config, clean, observing, plan):
        plan("trace.save:corrupt@1")
        data = load_experiment_data(config, retries=1)
        assert_same_result(data[PROGRAM], clean)
        assert observing.counter("retry.attempts").value == 1
        assert len(entries(config, ".npz")) == 1
        assert_no_tmp(config)

    def test_other_error_fails_when_retries_run_out(self, config, plan):
        plan("trace.save:corrupt")
        with pytest.raises(InjectedCorruption):
            load_experiment_data(config, retries=0)
        assert entries(config, SIM_SUFFIX) == []
        assert_no_tmp(config)

    def test_range_error_is_fatal(self, config, observing, monkeypatch):
        # A store whose end, 2**31, is outside the int32 trace columns:
        # the tracer's drain refuses it.
        begin = Tracer.begin

        def begin_with_a_wide_store(tracer):
            begin(tracer)
            tracer.log.append((1 << 31) - 4)

        monkeypatch.setattr(Tracer, "begin", begin_with_a_wide_store)
        with pytest.raises(TraceRangeError, match="outside int32") as caught:
            load_experiment_data(config, retries=2)
        assert classify_failure(caught.value) == "fatal"
        assert "retry.attempts" not in observing.counters
        assert entries(config, ".npz") == []
        assert entries(config, SIM_SUFFIX) == []
        assert_no_tmp(config)


class TestInterrupts:
    def test_interrupt_during_the_write_leaves_no_tmp(
            self, config, monkeypatch):
        simulate = pipeline.simulate_sessions

        def interrupted(*args, **kwargs):
            # Wait until the writer has its temporary file (or is done).
            deadline = time.monotonic() + 30
            while not (entries(config, ".tmp") or entries(config, ".npz")):
                assert time.monotonic() < deadline
                time.sleep(0.001)
            simulate(*args, **kwargs)
            raise KeyboardInterrupt

        monkeypatch.setattr(pipeline, "simulate_sessions", interrupted)
        with pytest.raises(KeyboardInterrupt):
            load_program_data(PROGRAM, config)
        assert_no_tmp(config)
        assert entries(config, SIM_SUFFIX) == []
        # The write ran to its end: the entry is whole and loads.
        (entry,) = entries(config, ".npz")
        tracefile.load_trace(config.cache_dir / entry)

    def test_interrupt_while_joining_waits_for_the_write(
            self, config, monkeypatch):
        started = []
        real_join = threading.Thread.join

        def join_once_interrupted(thread, *args, **kwargs):
            if thread.name.startswith("save-") and not started:
                started.append(thread)
                raise KeyboardInterrupt
            return real_join(thread, *args, **kwargs)

        monkeypatch.setattr(threading.Thread, "join", join_once_interrupted)
        with pytest.raises(KeyboardInterrupt):
            load_program_data(PROGRAM, config)
        assert not started[0].is_alive()
        assert_no_tmp(config)
        assert entries(config, SIM_SUFFIX) == []


def test_save_wait_is_observed(config, observing):
    load_program_data(PROGRAM, config)
    histogram = observing.histogram("trace.save_wait_s")
    assert histogram.count == 1
    assert histogram.values[0] >= 0
    # A warm run writes nothing and waits for nothing.
    (sim,) = entries(config, SIM_SUFFIX)
    (config.cache_dir / sim).unlink()
    load_program_data(PROGRAM, config)
    assert histogram.count == 1


def test_entry_equals_a_synchronous_save(config, tmp_path_factory):
    load_program_data(PROGRAM, config)
    (entry,) = entries(config, ".npz")
    workload = WORKLOADS[PROGRAM]
    run = run_workload(workload, workload.smoke_scale)
    reference = tmp_path_factory.mktemp("sync") / "trace.npz"
    save_trace(run.trace, run.registry, reference)
    with zipfile.ZipFile(config.cache_dir / entry) as got, \
            zipfile.ZipFile(reference) as want:
        assert got.namelist() == want.namelist()
        for name in want.namelist():
            assert got.read(name) == want.read(name), name
