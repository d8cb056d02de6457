"""Tests for the simulated OS: fault delivery, mprotect, timers."""

import pytest

from repro.errors import BadSyscall, UnhandledFault
from repro.machine import Cpu, Memory
from repro.machine.paging import Protection
from repro.machine.traps import TrapFrame, TrapKind
from repro.sim_os import Signal, SimOs, signal_for_trap
from repro.sim_os.costs import SPARCSTATION_2, KernelCosts
from repro.units import us_to_cycles


@pytest.fixture
def os_and_cpu():
    cpu = Cpu(Memory())
    return SimOs(cpu), cpu


class TestSignalMapping:
    def test_write_fault_is_sigsegv(self):
        assert signal_for_trap(TrapKind.WRITE_FAULT) is Signal.SIGSEGV

    def test_trap_instr_is_sigtrap(self):
        assert signal_for_trap(TrapKind.TRAP_INSTR) is Signal.SIGTRAP

    def test_monitor_fault_is_sigmon(self):
        assert signal_for_trap(TrapKind.MONITOR_FAULT) is Signal.SIGMON


class TestDelivery:
    def test_handler_receives_frame(self, os_and_cpu):
        os, cpu = os_and_cpu
        seen = []
        os.sigaction(Signal.SIGSEGV, lambda frame, c: seen.append(frame))
        frame = TrapFrame(TrapKind.WRITE_FAULT, pc=7, address=0x100, value=1)
        os.deliver(frame, cpu)
        assert seen == [frame]
        assert os.counters["faults_delivered"] == 1

    def test_unhandled_fault_raises(self, os_and_cpu):
        os, cpu = os_and_cpu
        with pytest.raises(UnhandledFault):
            os.deliver(TrapFrame(TrapKind.WRITE_FAULT, pc=0, address=0), cpu)

    def test_removing_handler(self, os_and_cpu):
        os, cpu = os_and_cpu
        os.sigaction(Signal.SIGTRAP, lambda frame, c: None)
        os.sigaction(Signal.SIGTRAP, None)
        with pytest.raises(UnhandledFault):
            os.deliver(TrapFrame(TrapKind.TRAP_INSTR, pc=0, address=0), cpu)

    @pytest.mark.parametrize(
        "kind,cost_attr",
        [
            (TrapKind.MONITOR_FAULT, "monitor_fault_delivery"),
            (TrapKind.WRITE_FAULT, "write_fault_delivery"),
            (TrapKind.TRAP_INSTR, "trap_delivery"),
        ],
    )
    def test_delivery_charges_calibrated_cost(self, os_and_cpu, kind, cost_attr):
        os, cpu = os_and_cpu
        os.sigaction(signal_for_trap(kind), lambda frame, c: None)
        before = cpu.cycles
        os.deliver(TrapFrame(kind, pc=0, address=0x200), cpu)
        assert cpu.cycles - before == getattr(os.costs, cost_attr)


class TestRoutes:
    """``sigaction`` rebuilds the kind -> (handler, cost) route table."""

    def test_replacing_handler_after_a_delivery_takes_the_next_trap(self, os_and_cpu):
        os, cpu = os_and_cpu
        first, second = [], []
        os.sigaction(Signal.SIGSEGV, lambda frame, c: first.append(frame.pc))
        os.deliver(TrapFrame(TrapKind.WRITE_FAULT, pc=1, address=0x100), cpu)
        os.sigaction(Signal.SIGSEGV, lambda frame, c: second.append(frame.pc))
        os.deliver(TrapFrame(TrapKind.WRITE_FAULT, pc=2, address=0x100), cpu)
        assert first == [1]
        assert second == [2]
        assert os.counters["faults_delivered"] == 2

    def test_removed_handler_raises_with_the_kind_and_the_address(self, os_and_cpu):
        os, cpu = os_and_cpu
        os.sigaction(Signal.SIGTRAP, lambda frame, c: None)
        os.deliver(TrapFrame(TrapKind.TRAP_INSTR, pc=0, address=0), cpu)
        os.sigaction(Signal.SIGTRAP, None)
        before = cpu.cycles
        with pytest.raises(UnhandledFault) as info:
            os.deliver(TrapFrame(TrapKind.TRAP_INSTR, pc=3, address=0x40), cpu)
        assert str(info.value) == (
            "SIGTRAP (from trap_instr) at pc=3, address=64: no handler installed"
        )
        assert cpu.cycles == before
        assert os.counters["faults_delivered"] == 1

    def test_sigtrap_serves_trap_instructions_and_breakpoints(self):
        cpu = Cpu(Memory())
        os = SimOs(cpu, KernelCosts(trap_delivery=us_to_cycles(7)))
        seen = []
        os.sigaction(Signal.SIGTRAP, lambda frame, c: seen.append(frame.kind))
        for kind in (TrapKind.TRAP_INSTR, TrapKind.BREAKPOINT):
            before = cpu.cycles
            os.deliver(TrapFrame(kind, pc=0, address=0x200), cpu)
            assert cpu.cycles - before == us_to_cycles(7)
        assert seen == [TrapKind.TRAP_INSTR, TrapKind.BREAKPOINT]

    def test_sigsegv_handler_never_receives_a_trap_instruction(self, os_and_cpu):
        os, cpu = os_and_cpu
        seen = []
        os.sigaction(Signal.SIGSEGV, lambda frame, c: seen.append(frame))
        with pytest.raises(UnhandledFault, match="SIGTRAP"):
            os.deliver(TrapFrame(TrapKind.TRAP_INSTR, pc=0, address=0x200), cpu)
        assert seen == []
        assert os.counters["faults_delivered"] == 0


class TestEmulate:
    def test_emulate_performs_store(self, os_and_cpu):
        os, cpu = os_and_cpu
        frame = TrapFrame(
            TrapKind.WRITE_FAULT, pc=0, address=0x0010_0000, value=9,
            store_operands=(0x0010_0000, 9),
        )
        os.emulate(frame, cpu)
        assert cpu.memory.load_word(0x0010_0000) == 9
        assert os.counters["stores_emulated"] == 1

    def test_emulate_charges_cost(self, os_and_cpu):
        os, cpu = os_and_cpu
        frame = TrapFrame(
            TrapKind.TRAP_INSTR, pc=0, address=0x0010_0000, value=1,
            store_operands=(0x0010_0000, 1),
        )
        before = cpu.cycles
        os.emulate(frame, cpu)
        assert cpu.cycles - before == os.costs.emulate_store

    def test_emulate_without_operands_rejected(self, os_and_cpu):
        os, cpu = os_and_cpu
        with pytest.raises(BadSyscall):
            os.emulate(TrapFrame(TrapKind.WRITE_FAULT, pc=0, address=0x100), cpu)


class TestMprotect:
    def test_protect_sets_pages(self, os_and_cpu):
        os, cpu = os_and_cpu
        os.mprotect(0x0010_0000, 8192, Protection.READ)
        assert cpu.page_table.is_write_protected(0x0010_0000)
        assert cpu.page_table.is_write_protected(0x0010_1000)
        assert not cpu.page_table.is_write_protected(0x0010_2000)

    def test_unprotect_clears_pages(self, os_and_cpu):
        os, cpu = os_and_cpu
        os.mprotect(0x0010_0000, 4096, Protection.READ)
        os.mprotect(0x0010_0000, 4096, Protection.READ_WRITE)
        assert not cpu.page_table.is_write_protected(0x0010_0000)

    def test_asymmetric_costs_per_appendix_a3(self, os_and_cpu):
        """Unprotecting is much slower than protecting (paper A.3)."""
        os, cpu = os_and_cpu
        before = cpu.cycles
        os.mprotect(0x0010_0000, 4096, Protection.READ)
        protect_cost = cpu.cycles - before
        before = cpu.cycles
        os.mprotect(0x0010_0000, 4096, Protection.READ_WRITE)
        unprotect_cost = cpu.cycles - before
        assert protect_cost == us_to_cycles(80)
        assert unprotect_cost == us_to_cycles(299)

    def test_zero_length_rejected(self, os_and_cpu):
        os, _ = os_and_cpu
        with pytest.raises(BadSyscall):
            os.mprotect(0x0010_0000, 0, Protection.READ)

    def test_protect_pages_empty_list_free(self, os_and_cpu):
        os, cpu = os_and_cpu
        before = cpu.cycles
        os.protect_pages([], Protection.READ)
        assert cpu.cycles == before
        assert os.counters["mprotect_calls"] == 0


class TestTimer:
    def test_cumulative_intervals(self, os_and_cpu):
        os, cpu = os_and_cpu
        timer = os.getrusage_timer()
        timer.on()
        cpu.cycles += 100
        timer.off()
        cpu.cycles += 999  # not timed
        timer.on()
        cpu.cycles += 50
        timer.off()
        assert timer.cycles == 150

    def test_running_timer_reads_live(self, os_and_cpu):
        os, cpu = os_and_cpu
        timer = os.getrusage_timer()
        timer.on()
        cpu.cycles += 40
        assert timer.cycles == 40

    def test_double_on_is_idempotent(self, os_and_cpu):
        os, cpu = os_and_cpu
        timer = os.getrusage_timer()
        timer.on()
        timer.on()
        cpu.cycles += 10
        timer.off()
        assert timer.cycles == 10

    def test_microseconds_conversion(self, os_and_cpu):
        os, cpu = os_and_cpu
        timer = os.getrusage_timer()
        timer.on()
        cpu.cycles += 40
        timer.off()
        assert timer.microseconds == 1.0


class TestCalibration:
    """The kernel cost model must reproduce the paper's composites."""

    def test_nh_composite_is_131us(self):
        assert SPARCSTATION_2.nh_fault_handler == us_to_cycles(131)

    def test_tp_composite_is_102us(self):
        assert SPARCSTATION_2.tp_fault_handler == us_to_cycles(102)

    def test_vm_composite_is_561us(self):
        assert SPARCSTATION_2.vm_fault_handler == us_to_cycles(561)

    def test_custom_cost_model(self):
        costs = KernelCosts(trap_delivery=100, emulate_store=50)
        assert costs.tp_fault_handler == 150
