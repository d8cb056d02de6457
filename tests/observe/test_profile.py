"""Tests for the 1-in-N sampling profiler (repro.observe.profile).

The registry's ``profile.*`` counters are the one store of the samples,
so every sampling test runs with observation on."""

from __future__ import annotations

import pytest

from repro import observe
from repro.machine import isa
from repro.observe import profile as observe_profile
from repro.observe.manifest import RunManifest
from repro.observe.report import render_manifest
from repro.sessions.types import ONE_HEAP, SessionDef
from repro.simulate import simulate_sessions
from repro.trace.events import EventKind, EventTrace
from repro.trace.objects import ObjectRegistry

from tests.conftest import run_minic

pytestmark = pytest.mark.observe


@pytest.fixture
def profiling(observing):
    """Observe with profiling at a tiny stride; yields the sample counters."""
    observe_profile.enable_profiling(stride=10)
    yield lambda prefix: _samples(observing, prefix)
    observe_profile.disable_profiling()


def _samples(registry, prefix):
    """name -> samples of the ``profile.*`` counters under ``prefix``."""
    return {
        name[len(prefix):]: value
        for name, value in registry.snapshot()["counters"].items()
        if name.startswith(prefix)
    }


CPU = "profile.cpu.opcode."
ENGINE = "profile.engine.event."


LOOP_SOURCE = """
int main() {
    int total; int i;
    total = 0;
    for (i = 0; i < 2000; i = i + 1) { total = total + i; }
    return total;
}
"""


class TestStrides:
    def test_disabled_by_default(self):
        assert not observe_profile.is_profiling()
        assert observe_profile.cpu_sample_stride() == 0
        assert observe_profile.engine_sample_stride() == 0

    def test_enable_sets_both_strides(self, profiling):
        assert observe_profile.is_profiling()
        assert observe_profile.cpu_sample_stride() == 10
        assert observe_profile.engine_sample_stride() == 10

    def test_bad_stride_rejected(self):
        with pytest.raises(ValueError):
            observe_profile.enable_profiling(stride=0)


def _table_rows(report, title):
    """``(name, samples, estimate)`` rows of one rendered profile table."""
    lines = report.split(title, 1)[1].split("\n\n", 1)[0].splitlines()[2:]
    rows = []
    for line in lines:
        name, samples, estimate, _ = line.split()
        rows.append((name, int(samples.replace(",", "")),
                     int(estimate.replace(",", ""))))
    return rows


class TestCpuSampling:
    def test_disabled_run_records_no_samples(self, observing):
        run_minic(LOOP_SOURCE)
        assert _samples(observing, CPU) == {}

    def test_unobserved_run_records_no_samples(self):
        before = observe.get_registry().snapshot()["counters"]
        observe_profile.enable_profiling(stride=10)
        try:
            run_minic(LOOP_SOURCE)
        finally:
            observe_profile.disable_profiling()
        assert observe.get_registry().snapshot()["counters"] == before

    def test_sampled_opcode_counts_approximate_the_mix(self, profiling):
        assert run_minic(LOOP_SOURCE) == sum(range(2000))
        samples = profiling(CPU)
        assert samples, "profiling run recorded no opcode samples"
        # The loop executes >10k instructions; 1-in-10 sampling should
        # land roughly instructions/10 samples in total.
        total = sum(samples.values())
        assert total > 500
        # The loop body is adds/compares/branches; ADD must be sampled.
        assert samples.get(isa.OPCODE_NAMES[isa.ADD], 0) > 0

    def test_top_opcodes_report_names_and_estimates(self, profiling):
        run_minic(LOOP_SOURCE)
        report = render_manifest(RunManifest.from_registry(), top_n=5)
        top = _table_rows(report, "CPU opcodes")
        assert 0 < len(top) <= 5
        assert all(estimate == count * 10 for _, count, estimate in top)
        samples = profiling(CPU)
        assert [count for _, count, _ in top] == sorted(
            samples.values(), reverse=True)[:len(top)]
        assert all(samples[name] == count for name, count, _ in top)

    def test_stride_gauge_recorded(self, profiling, observing):
        run_minic(LOOP_SOURCE)
        assert observing.snapshot()["gauges"]["profile.cpu.stride"] == 10


def _engine_inputs(n_writes=600):
    """A tiny install/write/remove trace over one monitored object."""
    registry = ObjectRegistry()
    obj = registry.heap("f", ("main", "f"), 32)
    trace = EventTrace("profile-test")
    trace.append_install(obj.id, 1 << 16, (1 << 16) + 32)
    for i in range(n_writes):
        address = (1 << 16) + 4 * (i % 8)
        trace.append_write(address, address + 4)
    trace.append_remove(obj.id, 1 << 16, (1 << 16) + 32)
    sessions = [SessionDef(0, ONE_HEAP, "one", (obj.id,))]
    return trace, registry, sessions


class TestEngineSampling:
    def test_engine_event_mix_sampled(self, profiling):
        trace, registry, sessions = _engine_inputs()
        simulate_sessions(trace, registry, sessions, (4096,))
        samples = profiling(ENGINE)
        assert samples
        assert EventKind.WRITE.name in samples
        total = sum(samples.values())
        # len(trace) events sampled 1-in-10 via an extended slice.
        assert total == len(trace.kinds[::10])

    def test_disabled_engine_records_nothing(self, observing):
        trace, registry, sessions = _engine_inputs()
        simulate_sessions(trace, registry, sessions, (4096,))
        assert _samples(observing, ENGINE) == {}


class TestReportAndReset:
    def test_render_without_samples(self, observing):
        run_minic(LOOP_SOURCE)
        report = render_manifest(RunManifest.from_registry())
        assert "Sampling profile" not in report

    def test_render_with_samples(self, profiling):
        run_minic(LOOP_SOURCE)
        report = render_manifest(RunManifest.from_registry(), top_n=3)
        assert "Sampling profile" in report
        assert "CPU opcodes" in report
        assert "1-in-10 sampled" in report
        assert "%" in report
        assert len(_table_rows(report, "CPU opcodes")) == 3

    def test_observe_reset_clears_samples(self, profiling):
        run_minic(LOOP_SOURCE)
        assert profiling(CPU)
        observe.reset()
        assert profiling(CPU) == {}
        assert observe_profile.is_profiling()  # enablement untouched
