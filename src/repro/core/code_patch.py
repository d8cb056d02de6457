"""CodePatch WMS: inline check before every store (paper section 3.3).

The program must be compiled through
:func:`repro.minic.instrument.apply_code_patch`, which inserts a ``CHK``
before every ``ST``: the two-instruction sequence (address to a register
+ call) the paper describes for SPARC.  The check subroutine — this
class's :meth:`_check` — performs the software lookup with *no kernel
involvement*, which is why CodePatch is the fast software strategy.

Because every write is checked anyway, keeping the WMS mapping in the
debuggee's address space needs no extra protection mechanism
(section 3.4); installs and removes pay only the software update.

A miss is the common check, and it is cheap in the paper: a few inline
instructions.  With a :class:`BitmapMonitorMap`, :class:`CodePatchWms`
registers what its miss charges and counts as the CPU's
:class:`~repro.machine.cpu.MissPath` for ``CHK``, and the CPU's watched
compiled code runs it in place: only hits call :meth:`CodePatchWms._check`
there.  A subclass that overrides ``_check`` (such as
:class:`OptimizedCodePatchWms`) registers none.
"""

from __future__ import annotations

from typing import Callable

from repro.core.monitor_map import BitmapMonitorMap, MonitorMap
from repro.core.wms import Monitor, WriteMonitorService
from repro.machine import isa
from repro.machine.cpu import CHECK_MISS, Cpu, MissPath
from repro.models.timing import SPARCSTATION_2_TIMING, TimingVariables


class CodePatchWms(WriteMonitorService):
    """Live WMS for code-patched programs."""

    strategy = "code"

    def __init__(
        self,
        cpu: Cpu,
        timing: TimingVariables = SPARCSTATION_2_TIMING,
        map_factory: Callable[[], MonitorMap] = BitmapMonitorMap,
    ) -> None:
        super().__init__()
        self.cpu = cpu
        self.timing = timing
        self.map = map_factory()
        cpu.check_hook = self._check
        if type(self.map) is BitmapMonitorMap and type(self)._check is CodePatchWms._check:
            # A miss of _check, run in place by the watched compiled code.
            cpu.miss_paths[CHECK_MISS] = MissPath(
                cpu.check_hook, self.map._words, None,
                timing.software_lookup_cycles, self._count_miss)

    def _activate(self, monitor: Monitor) -> None:
        self.cpu.cycles += self.timing.software_update_cycles
        self.map.install(monitor)

    def _deactivate(self, monitor: Monitor) -> None:
        self.cpu.cycles += self.timing.software_update_cycles
        self.map.remove(monitor)

    def _check(self, address: int, pc: int, cpu: Cpu) -> None:
        """The WMS check subroutine invoked by each CHK instruction.

        The notification precedes the store itself by one instruction
        (the CHK sits immediately before the ST), but the value being
        written is already sitting in the store's source register, so
        the subroutine recovers it for the notification.
        """
        self.stats.checks += 1
        cpu.cycles += self.timing.software_lookup_cycles
        hit_monitors = self.map.lookup(address, address + 4)
        if hit_monitors:
            value = None
            store = cpu.loaded_program.code[pc + 1]
            if store[0] == isa.ST and cpu.frames:
                value = cpu.frames[-1].regs[store[3]]
            self._notify(address, address + 4, pc, hit_monitors, value)

    def detach(self) -> None:
        self.active.clear()
        self.cpu.check_hook = None
        self.cpu.miss_paths[CHECK_MISS] = None


class OptimizedCodePatchWms(CodePatchWms):
    """CodePatch with the paper's section-9 loop optimization.

    "A preliminary check outside the loop may be applied for write
    instructions whose target is a loop-invariant memory range.  If the
    preliminary check determines that the instruction will be a monitor
    hit, the loop body can be dynamically patched so that each iteration
    correctly results in a monitor notification."

    Mechanically: each check site (identified by its pc) caches the
    outcome of its last full lookup.  While the monitor set is unchanged
    (epoch check) and the site keeps writing the same address — the
    loop-invariant-target case — a cached *miss* costs only the residual
    patched-out sequence (:data:`CACHED_MISS_CYCLES`) instead of a full
    ``SoftwareLookup``.  Hits always notify, as correctness requires.

    Installing or removing any monitor bumps the epoch, invalidating all
    site caches — the conservative equivalent of re-patching the loops.
    """

    #: Cycles for a site whose check has been patched out (the preliminary
    #: check outside the loop already proved it a miss): a compare+branch.
    CACHED_MISS_CYCLES = 2

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._epoch = 0
        #: pc -> (address, epoch) of the last full-lookup miss.
        self._site_cache: dict = {}
        self.stats_cached_misses = 0

    def _activate(self, monitor: Monitor) -> None:
        super()._activate(monitor)
        self._epoch += 1

    def _deactivate(self, monitor: Monitor) -> None:
        super()._deactivate(monitor)
        self._epoch += 1

    def _check(self, address: int, pc: int, cpu: Cpu) -> None:
        cached = self._site_cache.get(pc)
        if cached is not None and cached[0] == address and cached[1] == self._epoch:
            cpu.cycles += self.CACHED_MISS_CYCLES
            self.stats.checks += 1
            self.stats_cached_misses += 1
            return
        self.stats.checks += 1
        cpu.cycles += self.timing.software_lookup_cycles
        hit_monitors = self.map.lookup(address, address + 4)
        if hit_monitors:
            value = None
            store = cpu.loaded_program.code[pc + 1]
            if store[0] == isa.ST and cpu.frames:
                value = cpu.frames[-1].regs[store[3]]
            self._notify(address, address + 4, pc, hit_monitors, value)
        else:
            self._site_cache[pc] = (address, self._epoch)
