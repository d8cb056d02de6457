"""Tests for the five benchmark workloads (run at smoke scale).

Each workload must run to completion, self-check, and exhibit the
session-type profile the paper reports for its original (Table 1):
ctex and qcd allocate no heap; bps churns thousands of nodes at full
scale; gcc frees everything it allocates.
"""

import gc

import pytest

from repro.machine.memory import Memory
from repro.sessions import discover_sessions
from repro.simulate import simulate_sessions
from repro.workloads import WORKLOADS, get_workload, run_workload
from repro.workloads.base import Workload
from repro.errors import PipelineError


@pytest.fixture(scope="module")
def smoke_runs():
    return {
        name: run_workload(workload, workload.smoke_scale)
        for name, workload in WORKLOADS.items()
    }


class TestRegistry:
    def test_all_five_programs(self):
        assert set(WORKLOADS) == {"gcc", "ctex", "spice", "qcd", "bps"}

    def test_lookup(self):
        assert get_workload("gcc").name == "gcc"

    def test_unknown_rejected(self):
        with pytest.raises(PipelineError):
            get_workload("doom")


class TestAllWorkloadsRun:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_completes_with_nonzero_checksum(self, smoke_runs, name):
        run = smoke_runs[name]
        assert run.state.halted
        assert run.state.exit_value not in (None, 0)

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_trace_writes_match_cpu_stores(self, smoke_runs, name):
        run = smoke_runs[name]
        assert run.trace.meta.n_writes == run.state.stores

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_install_remove_balanced(self, smoke_runs, name):
        run = smoke_runs[name]
        assert run.trace.meta.n_installs == run.trace.meta.n_removes

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_deterministic(self, name):
        workload = WORKLOADS[name]
        first = run_workload(workload, workload.smoke_scale)
        second = run_workload(workload, workload.smoke_scale)
        assert first.state.exit_value == second.state.exit_value
        assert first.state.instructions == second.state.instructions
        assert list(first.trace) == list(second.trace)

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_write_density_realistic(self, smoke_runs, name):
        """Writes should be a few percent of cycles (section 8 regime)."""
        run = smoke_runs[name]
        density = run.trace.meta.n_writes / run.trace.meta.cycles
        assert 0.01 < density < 0.08


class TestSessionProfiles:
    def test_ctex_and_qcd_have_no_heap(self, smoke_runs):
        for name in ("ctex", "qcd"):
            kinds = {obj.kind for obj in smoke_runs[name].registry.objects}
            assert "heap" not in kinds

    def test_gcc_spice_bps_have_heap(self, smoke_runs):
        for name in ("gcc", "spice", "bps"):
            kinds = {obj.kind for obj in smoke_runs[name].registry.objects}
            assert "heap" in kinds

    def test_bps_heap_dominated(self, smoke_runs):
        registry = smoke_runs["bps"].registry
        heap = len(registry.by_kind("heap"))
        others = len(registry.objects) - heap
        assert heap > others

    def test_ctex_heavy_on_globals(self, smoke_runs):
        registry = smoke_runs["ctex"].registry
        assert len(registry.by_kind("global")) >= 20

    def test_every_session_type_appears_somewhere(self, smoke_runs):
        kinds = set()
        for run in smoke_runs.values():
            result = simulate_sessions(
                run.trace, run.registry, discover_sessions(run.registry), (4096,)
            )
            kinds.update(session.kind for session in result.sessions)
        assert kinds == {
            "OneLocalAuto", "AllLocalInFunc", "OneGlobalStatic",
            "OneHeap", "AllHeapInFunc",
        }

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_no_overlap_anomalies(self, smoke_runs, name):
        run = smoke_runs[name]
        result = simulate_sessions(
            run.trace, run.registry, discover_sessions(run.registry), (4096,)
        )
        assert result.overlap_anomalies == 0


class TestWorkloadInterface:
    def test_base_class_requires_source(self):
        with pytest.raises(NotImplementedError):
            Workload().source(1)

    def test_checks_reject_garbage(self):
        class Broken(Workload):
            name = "broken"

            def source(self, scale):
                # void main returns no value, tripping the base check.
                return "void main() { }"

        with pytest.raises(PipelineError):
            run_workload(Broken(), 1)



def test_finished_machine_is_freed_without_the_collector(monkeypatch):
    # The phase-1 machine (CPU, runtime, memory, image and the fast
    # path's function tables) must hold no reference cycle: it is freed
    # when the run returns, and the collector finds none of it.
    import weakref

    machines = []
    init = Memory.__init__

    def recording_init(memory, *args, **kwargs):
        init(memory, *args, **kwargs)
        machines.append(weakref.ref(memory))

    monkeypatch.setattr(Memory, "__init__", recording_init)
    workload = WORKLOADS["qcd"]
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run_workload(workload, workload.smoke_scale)
        gc.collect()
        collected = {type(obj).__name__ for obj in gc.garbage}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert not collected & {"Cpu", "Runtime", "Memory", "LoadedProgram"}
    assert len(machines) == 1 and machines[0]() is None
