"""VirtualMemory WMS: page protection + write faults (paper section 3.2).

Installing a monitor write-protects the pages it resides on.  A store to
a protected page faults; the user-level handler looks the address up in
the monitor map, unprotects the page, emulates the faulting store,
reprotects the page, and — on a hit — delivers the notification.

The WMS mapping itself lives (conceptually) write-protected in the
debuggee's address space, so every install/remove pays an
unprotect/update/reprotect dance on the mapping's page (section 3.4 and
the Figure-4 model); the dance is charged to the simulated clock.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.core.monitor_map import BitmapMonitorMap, MonitorMap
from repro.core.wms import Monitor, WriteMonitorService
from repro.machine.cpu import Cpu
from repro.machine.paging import Protection
from repro.machine.traps import TrapFrame
from repro.models.timing import SPARCSTATION_2_TIMING, TimingVariables
from repro.sim_os import Signal, SimOs


class VirtualMemoryWms(WriteMonitorService):
    """Live WMS backed by the paging unit."""

    strategy = "vm"

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
        #: page number -> count of active monitors resident on it.
        self.page_monitor_count: Dict[int, int] = {}
        os.sigaction(Signal.SIGSEGV, self._handle_fault)

    # -- install/remove -----------------------------------------------------

    def _structure_dance(self) -> None:
        """Unprotect, update, reprotect the WMS mapping's own page."""
        costs = self.os.costs
        self.cpu.cycles += (
            costs.unprotect_page
            + self.timing.software_update_cycles
            + costs.protect_page
        )

    def _activate(self, monitor: Monitor) -> None:
        self._structure_dance()
        self.map.install(monitor)
        newly_protected = []
        for page in self.cpu.page_table.pages_of_range(monitor.begin, monitor.end):
            count = self.page_monitor_count.get(page, 0)
            self.page_monitor_count[page] = count + 1
            if count == 0:
                newly_protected.append(page)
        if newly_protected:
            self.os.protect_pages(newly_protected, Protection.READ)

    def _deactivate(self, monitor: Monitor) -> None:
        self._structure_dance()
        self.map.remove(monitor)
        newly_unprotected = []
        for page in self.cpu.page_table.pages_of_range(monitor.begin, monitor.end):
            count = self.page_monitor_count[page] - 1
            if count == 0:
                del self.page_monitor_count[page]
                newly_unprotected.append(page)
            else:
                self.page_monitor_count[page] = count
        if newly_unprotected:
            self.os.protect_pages(newly_unprotected, Protection.READ_WRITE)

    # -- fault handling -------------------------------------------------------

    def _handle_fault(self, frame: TrapFrame, cpu: Cpu) -> None:
        self.stats.checks += 1
        begin = frame.address
        end = begin + 4
        cpu.cycles += self.timing.software_lookup_cycles
        hit_monitors = self.map.lookup(begin, end)
        # Continue past the faulting instruction: unprotect, emulate,
        # reprotect (paper section 3.2).
        self.os.emulate_on_protected_page(
            frame, cpu, begin >> cpu.page_table.page_shift, self.page_monitor_count
        )
        if hit_monitors:
            self._notify(begin, end, frame.pc, hit_monitors, frame.value)

    def detach(self) -> None:
        if self.page_monitor_count:
            self.os.protect_pages(
                list(self.page_monitor_count), Protection.READ_WRITE
            )
        self.page_monitor_count.clear()
        self.active.clear()
        self.os.sigaction(Signal.SIGSEGV, None)
