"""The simulated OS: fault delivery, mprotect, and timers.

:class:`SimOs` binds a :class:`~repro.machine.cpu.Cpu` and its page table
together and provides the user-level services the write-monitor strategies
build on.  All kernel work is charged to the CPU's cycle counter using the
calibrated :class:`~repro.sim_os.costs.KernelCosts`, so overheads observed
in live runs are directly comparable to the paper's analytical models.

Every trap-patched store, write fault and monitor fault passes through
:meth:`SimOs.deliver`, so the delivery path is kept short:
:meth:`SimOs.sigaction` rebuilds a route table from trap kind to
``(handler, delivery cycles)``, and a delivery is one probe of it.
The VirtualMemory strategy's continue-past-fault sequence (unprotect
the page, emulate the store, reprotect the page) is one service,
:meth:`SimOs.emulate_on_protected_page`, that charges and counts what
the separate ``protect_pages`` and ``emulate`` calls would.
"""

from __future__ import annotations

from typing import Callable, Container, Dict, Optional, Tuple

from repro.errors import BadSyscall, UnhandledFault
from repro.machine.cpu import Cpu
from repro.machine.paging import PageTable, Protection
from repro.machine.traps import TrapFrame, TrapKind
from repro.sim_os.costs import SPARCSTATION_2, KernelCosts
from repro.sim_os.signals import Signal, signal_for_trap
from repro.units import cycles_to_us

Handler = Callable[[TrapFrame, Cpu], None]

# Bound once: an Enum member lookup through its class runs Python code.
_READ = Protection.READ


class RusageTimer:
    """getrusage-style cumulative timer over simulated cycles.

    Multiple on/off intervals accumulate, matching the paper's
    ``TimerOn()``/``TimerOff()`` microbenchmark idiom (Appendix A).
    """

    def __init__(self, cpu: Cpu) -> None:
        self._cpu = cpu
        self._accumulated = 0
        self._started_at: Optional[int] = None

    def on(self) -> None:
        """Start (or resume) timing."""
        if self._started_at is None:
            self._started_at = self._cpu.cycles

    def off(self) -> None:
        """Stop timing, accumulating the elapsed interval."""
        if self._started_at is not None:
            self._accumulated += self._cpu.cycles - self._started_at
            self._started_at = None

    @property
    def cycles(self) -> int:
        """Total accumulated cycles."""
        if self._started_at is not None:
            return self._accumulated + (self._cpu.cycles - self._started_at)
        return self._accumulated

    @property
    def microseconds(self) -> float:
        """Total accumulated time in modeled microseconds."""
        return cycles_to_us(self.cycles)


class SimOs:
    """Kernel services for one simulated process.

    Parameters
    ----------
    cpu:
        The CPU to serve; this constructor installs itself as the CPU's
        trap sink.
    costs:
        Kernel cost model (defaults to the SPARCstation 2 calibration).
    """

    def __init__(self, cpu: Cpu, costs: KernelCosts = SPARCSTATION_2) -> None:
        self.cpu = cpu
        self.costs = costs
        self.page_table: PageTable = cpu.page_table
        self._handlers: Dict[Signal, Handler] = {}
        #: Trap kind -> (handler, delivery cycles), for each kind whose
        #: signal has a handler; rebuilt by :meth:`sigaction`.
        self._routes: Dict[TrapKind, Tuple[Handler, int]] = {}
        #: Syscall/statistics counters, by name.
        self.counters: Dict[str, int] = {
            "mprotect_calls": 0,
            "pages_protected": 0,
            "pages_unprotected": 0,
            "faults_delivered": 0,
            "stores_emulated": 0,
        }
        #: Delivery cycles per trap kind.
        self._delivery_cost: Dict[TrapKind, int] = {
            TrapKind.MONITOR_FAULT: costs.monitor_fault_delivery,
            TrapKind.WRITE_FAULT: costs.write_fault_delivery,
            TrapKind.TRAP_INSTR: costs.trap_delivery,
            TrapKind.BREAKPOINT: costs.trap_delivery,
        }
        cpu.trap_sink = self.deliver

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------

    def sigaction(self, signal: Signal, handler: Optional[Handler]) -> None:
        """Install (or, with None, remove) a user-level signal handler.

        Rebuilds the route table, so the next trap of every kind that
        maps to ``signal`` reaches ``handler``.
        """
        handlers = self._handlers
        if handler is None:
            handlers.pop(signal, None)
        else:
            handlers[signal] = handler
        self._routes = {
            kind: (handlers[signal_for_trap(kind)], cost)
            for kind, cost in self._delivery_cost.items()
            if signal_for_trap(kind) in handlers
        }

    def deliver(self, frame: TrapFrame, cpu: Cpu) -> None:
        """Kernel entry point: deliver a hardware trap as a signal.

        Charges the delivery cost for the trap kind, then runs the user
        handler; both come from one probe of the route table.  The
        handler's own work (mprotect calls, emulation) is charged by the
        services it invokes.
        """
        route = self._routes.get(frame.kind)
        if route is None:
            raise UnhandledFault(
                f"{signal_for_trap(frame.kind).value} (from {frame.kind.value}) "
                f"at pc={frame.pc}, address={frame.address!r}: no handler installed"
            )
        handler, cost = route
        cpu.cycles += cost
        self.counters["faults_delivered"] += 1
        handler(frame, cpu)

    def emulate(self, frame: TrapFrame, cpu: Cpu) -> None:
        """Emulate the faulting store from a handler (charges cycles)."""
        if frame.store_operands is None:
            raise BadSyscall("trap frame has no store to emulate")
        address, value = frame.store_operands
        cpu.cycles += self.costs.emulate_store
        self.counters["stores_emulated"] += 1
        cpu.emulate_store(address, value)

    # ------------------------------------------------------------------
    # Virtual memory
    # ------------------------------------------------------------------

    def mprotect(self, begin: int, length: int, prot: Protection) -> None:
        """Change protection of all pages covering ``[begin, begin+length)``.

        Costs are charged per page, asymmetrically, per Appendix A.3:
        protecting is a synchronous PTE update; unprotecting takes the
        slower lazy-update path.
        """
        if length <= 0:
            raise BadSyscall(f"mprotect with non-positive length {length}")
        pages = self.page_table.pages_of_range(begin, begin + length)
        self.counters["mprotect_calls"] += 1
        if prot is Protection.READ:
            self.page_table.protect(pages)
            count = len(pages)
            self.counters["pages_protected"] += count
            self.cpu.cycles += count * self.costs.protect_page
        else:
            self.page_table.unprotect(pages)
            count = len(pages)
            self.counters["pages_unprotected"] += count
            self.cpu.cycles += count * self.costs.unprotect_page

    def emulate_on_protected_page(
        self, frame: TrapFrame, cpu: Cpu, page: int, monitored: Container[int]
    ) -> None:
        """Continue past a write fault on ``page``: unprotect the page,
        emulate the faulting store, and protect the page again if it is
        still in ``monitored`` (paper section 3.2).

        Charges and counts exactly what ``protect_pages([page],
        READ_WRITE)``, :meth:`emulate` and, on a reprotect,
        ``protect_pages([page], READ)`` would, in that order.  The
        reprotect is decided after the store, so a handler the store
        runs can still release the page.
        """
        counters, costs = self.counters, self.costs
        protected = self.page_table.write_protected
        counters["mprotect_calls"] += 1
        protected.discard(page)
        counters["pages_unprotected"] += 1
        cpu.cycles += costs.unprotect_page
        self.emulate(frame, cpu)
        if page in monitored:
            counters["mprotect_calls"] += 1
            protected.add(page)
            counters["pages_protected"] += 1
            cpu.cycles += costs.protect_page

    def protect_pages(self, pages, prot: Protection) -> None:
        """mprotect by explicit page numbers (used by the VM strategy)."""
        pages = list(pages)
        if not pages:
            return
        self.counters["mprotect_calls"] += 1
        if prot is _READ:
            self.page_table.protect(pages)
            self.counters["pages_protected"] += len(pages)
            self.cpu.cycles += len(pages) * self.costs.protect_page
        else:
            self.page_table.unprotect(pages)
            self.counters["pages_unprotected"] += len(pages)
            self.cpu.cycles += len(pages) * self.costs.unprotect_page

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------

    def getrusage_timer(self) -> RusageTimer:
        """Create a cumulative timer over the CPU's simulated clock."""
        return RusageTimer(self.cpu)
