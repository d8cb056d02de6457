"""TrapPatch WMS: every store replaced by a trap (paper section 3.3).

The program must be compiled through
:func:`repro.minic.instrument.apply_trap_patch`, which rewrites every
``ST`` into a ``TRAP`` carrying the original operands — the gdb/dbx
approach, reusing the control-breakpoint trap machinery.  The handler
looks up the target address, emulates the original store, and notifies
on a hit.  Every write in the program pays the trap, hit or miss.

Pays it in simulated cycles, that is: with a :class:`BitmapMonitorMap`
the WMS registers its miss with :meth:`SimOs.register_miss
<repro.sim_os.SimOs.register_miss>`, and the CPU's watched compiled
code charges, counts and emulates a miss in place, so only hits reach
:meth:`TrapPatchWms._handle_trap` there.
"""

from __future__ import annotations

from typing import Callable

from repro.core.monitor_map import BitmapMonitorMap, MonitorMap
from repro.core.wms import Monitor, WriteMonitorService
from repro.machine.cpu import Cpu
from repro.machine.traps import TrapFrame, TrapKind
from repro.models.timing import SPARCSTATION_2_TIMING, TimingVariables
from repro.sim_os import Signal, SimOs


class TrapPatchWms(WriteMonitorService):
    """Live WMS for trap-patched programs."""

    strategy = "trap"

    def __init__(
        self,
        cpu: Cpu,
        os: SimOs,
        timing: TimingVariables = SPARCSTATION_2_TIMING,
        map_factory: Callable[[], MonitorMap] = BitmapMonitorMap,
    ) -> None:
        super().__init__()
        self.cpu = cpu
        self.os = os
        self.timing = timing
        self.map = map_factory()
        os.sigaction(Signal.SIGTRAP, self._handle_trap)
        if type(self.map) is BitmapMonitorMap and \
                type(self)._handle_trap is TrapPatchWms._handle_trap:
            # A miss of _handle_trap, run in place by the watched compiled
            # code until the SIGTRAP route changes (detach included).
            os.register_miss(TrapKind.TRAP_INSTR, self.map._words, None,
                             timing.software_lookup_cycles, self._count_miss)

    def _activate(self, monitor: Monitor) -> None:
        self.cpu.cycles += self.timing.software_update_cycles
        self.map.install(monitor)

    def _deactivate(self, monitor: Monitor) -> None:
        self.cpu.cycles += self.timing.software_update_cycles
        self.map.remove(monitor)

    def _handle_trap(self, frame: TrapFrame, cpu: Cpu) -> None:
        self.stats.checks += 1
        begin = frame.address
        end = begin + 4
        cpu.cycles += self.timing.software_lookup_cycles
        hit_monitors = self.map.lookup(begin, end)
        self.os.emulate(frame, cpu)
        if hit_monitors:
            self._notify(begin, end, frame.pc, hit_monitors, frame.value)

    def detach(self) -> None:
        self.active.clear()
        self.os.sigaction(Signal.SIGTRAP, None)
