"""NativeHardware WMS: hardware monitor registers (paper section 3.1).

Each installed monitor occupies one hardware register; a store that hits
a register raises a monitor fault *after* the write completes, which the
kernel delivers as a SIGMON-style signal.  Installing and removing
monitors is free (the registers are user-accessible, paper section 7.1.1),
but the register file is tiny: installing more concurrent monitors than
registers raises :class:`~repro.errors.MonitorRegisterExhausted` — the
strategy's fundamental limitation.
"""

from __future__ import annotations

from typing import Dict

from repro.core.wms import Monitor, WriteMonitorService
from repro.machine.cpu import Cpu
from repro.machine.traps import TrapFrame
from repro.sim_os import Signal, SimOs


class NativeHardwareWms(WriteMonitorService):
    """Live WMS backed by the CPU's monitor register file."""

    strategy = "native"

    def __init__(self, cpu: Cpu, os: SimOs) -> None:
        super().__init__()
        self.cpu = cpu
        self.os = os
        self._register_of: Dict[Monitor, int] = {}
        os.sigaction(Signal.SIGMON, self._handle_fault)

    def _activate(self, monitor: Monitor) -> None:
        index = self.cpu.monitor_registers.allocate(monitor.begin, monitor.end)
        self._register_of[monitor] = index

    def _deactivate(self, monitor: Monitor) -> None:
        index = self._register_of.pop(monitor)
        self.cpu.monitor_registers.release(index)

    def _handle_fault(self, frame: TrapFrame, cpu: Cpu) -> None:
        # The write has already completed (write monitor, not barrier).
        self.stats.checks += 1
        begin = frame.address
        end = begin + 4
        hit_monitors = tuple(
            monitor for monitor in self._register_of if monitor.intersects(begin, end)
        )
        self._notify(begin, end, frame.pc, hit_monitors, frame.value)

    def detach(self) -> None:
        for index in self._register_of.values():
            self.cpu.monitor_registers.release(index)
        self._register_of.clear()
        self.active.clear()
        self.os.sigaction(Signal.SIGMON, None)
