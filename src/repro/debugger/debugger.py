"""The debugger: orchestrates machine, OS, runtime, WMS, and breakpoints.

Builds the full simulated stack for one debuggee, applies the rewrite
pass the chosen strategy requires, manages monitor lifetimes for each
breakpoint kind (globals at startup, locals per instantiation via
function entry/exit hooks, heap objects via allocator callbacks), and
converts monitor notifications into breakpoint events — optionally
suspending execution so the client can inspect state and continue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core import (
    CodePatchWms,
    NativeHardwareWms,
    TrapPatchWms,
    VirtualMemoryWms,
    WriteMonitorService,
)
from repro.core.wms import Monitor, Notification
from repro.debugger.breakpoints import (
    Breakpoint,
    BreakpointAction,
    BreakpointEvent,
    ControlBreakpoint,
    DataBreakpoint,
)
from repro.debugger.symbols import SymbolResolver
from repro.errors import DebuggerError
from repro.machine.cpu import Cpu, CpuState
from repro.machine.layout import DEFAULT_LAYOUT, MemoryLayout
from repro.machine.loader import load_program
from repro.machine.memory import Memory
from repro.machine.monitor_registers import MonitorRegisterFile
from repro.machine.paging import PageTable
from repro.minic.compiler import CompiledProgram, compile_source
from repro.minic.instrument import apply_code_patch, apply_trap_patch
from repro.minic.runtime import Runtime
from repro.models.timing import SPARCSTATION_2_TIMING, TimingVariables
from repro.sim_os.costs import SPARCSTATION_2, KernelCosts
from repro.sim_os.simos import SimOs
from repro.units import align_down

_STRATEGIES = ("native", "vm", "trap", "code")


@dataclass
class StopInfo:
    """Why execution stopped."""

    breakpoint: Breakpoint
    event: BreakpointEvent
    pc: int
    location: str
    call_stack: List[str]

    def describe(self) -> str:
        return f"stopped: {self.event.describe()}"


@dataclass
class DebugOutcome:
    """Result of :meth:`Debugger.run` / :meth:`Debugger.cont`."""

    finished: bool
    state: Optional[CpuState] = None
    stop: Optional[StopInfo] = None

    @property
    def stopped(self) -> bool:
        return not self.finished


class _BreakpointHit(Exception):
    """Internal: unwinds from a handler to suspend execution."""

    def __init__(self, info: StopInfo) -> None:
        super().__init__(info.describe())
        self.info = info


class _HeapWatcher:
    """Allocator listener driving heap data breakpoints."""

    def __init__(self, debugger: "Debugger") -> None:
        self.debugger = debugger
        #: address -> list of (breakpoint, monitor) installed on it.
        self.live: Dict[int, List[Tuple[DataBreakpoint, Monitor]]] = {}
        #: breakpoint id -> matching allocations seen so far.
        self.match_counts: Dict[int, int] = {}

    def on_alloc(self, address: int, size_bytes: int) -> None:
        debugger = self.debugger
        context = [frame.func.name for frame in debugger.cpu.frames]
        for bp in debugger._heap_breakpoints:
            if not bp.enabled or bp.heap_in_context not in context:
                continue
            seen = self.match_counts.get(bp.id, 0)
            self.match_counts[bp.id] = seen + 1
            if bp.alloc_ordinal is not None and bp.alloc_ordinal != seen:
                continue
            monitor = debugger.wms.install_monitor(address, address + size_bytes, tag=bp)
            self.live.setdefault(address, []).append((bp, monitor))

    def on_free(self, address: int, size_bytes: int) -> None:
        for bp, monitor in self.live.pop(address, ()):
            self.debugger.wms.remove_monitor(monitor)

    def on_realloc(
        self, old_address: int, old_size: int, new_address: int, new_size: int
    ) -> None:
        # Same object, new home (paper footnote 4): move the monitors.
        for bp, monitor in self.live.pop(old_address, ()):
            self.debugger.wms.remove_monitor(monitor)
            moved = self.debugger.wms.install_monitor(
                new_address, new_address + new_size, tag=bp
            )
            self.live.setdefault(new_address, []).append((bp, moved))


class Debugger:
    """A debugging session over one MiniC program.

    Parameters
    ----------
    program:
        Compiled debuggee (use :meth:`from_source` for convenience).
    strategy:
        WMS strategy: ``"native"``, ``"vm"``, ``"trap"``, or ``"code"``.
    page_size:
        Page size for the paging unit (VM strategy sensitivity).
    n_registers:
        Hardware monitor registers (NH strategy; 1992 hardware had <= 4).
    """

    def __init__(
        self,
        program: CompiledProgram,
        strategy: str = "code",
        page_size: int = 4096,
        n_registers: int = 4,
        timing: TimingVariables = SPARCSTATION_2_TIMING,
        kernel_costs: KernelCosts = SPARCSTATION_2,
        layout: Optional[MemoryLayout] = None,
    ) -> None:
        if strategy not in _STRATEGIES:
            raise DebuggerError(f"unknown strategy {strategy!r}; choose from {_STRATEGIES}")
        self.strategy = strategy
        self.program = program
        layout = layout or program.layout or DEFAULT_LAYOUT

        if strategy == "trap":
            program = apply_trap_patch(program)
        elif strategy == "code":
            program = apply_code_patch(program)
        self.image = load_program(program, layout)

        self.memory = Memory(layout)
        self.cpu = Cpu(
            self.memory,
            PageTable(page_size),
            MonitorRegisterFile(n_registers),
            layout,
        )
        self.os = SimOs(self.cpu, kernel_costs)
        self.runtime = Runtime(self.cpu, layout)
        self.runtime.install()
        self.cpu.attach(self.image)
        self.symbols = SymbolResolver(self.image)

        self.wms: WriteMonitorService = self._make_wms(timing)
        self.wms.callback = self._on_notification

        self.breakpoints: List[Breakpoint] = []
        self.events: List[BreakpointEvent] = []
        self._heap_breakpoints: List[DataBreakpoint] = []
        self._heap_watcher: Optional[_HeapWatcher] = None
        #: breakpoint id -> one entry per live instantiation: its monitor,
        #: or None when it was entered disabled (local watches).
        self._local_monitors: Dict[int, List[Optional[Monitor]]] = {}
        self._next_id = 1
        self._started = False

    @classmethod
    def from_source(cls, source: str, strategy: str = "code", **kwargs) -> "Debugger":
        """Compile ``source`` and open a debugging session on it."""
        return cls(compile_source(source, "debuggee"), strategy=strategy, **kwargs)

    def _make_wms(self, timing: TimingVariables) -> WriteMonitorService:
        if self.strategy == "native":
            return NativeHardwareWms(self.cpu, self.os)
        if self.strategy == "vm":
            return VirtualMemoryWms(self.cpu, self.os, timing)
        if self.strategy == "trap":
            return TrapPatchWms(self.cpu, self.os, timing)
        return CodePatchWms(self.cpu, timing)

    # ------------------------------------------------------------------
    # Breakpoint creation
    # ------------------------------------------------------------------

    def _new_id(self) -> int:
        bp_id = self._next_id
        self._next_id += 1
        return bp_id

    def watch_global(
        self, name: str, condition=None, action: str = "log", only_changes: bool = False
    ) -> DataBreakpoint:
        """Data breakpoint on a global (or function-static via "f.name")."""
        bp = DataBreakpoint(
            id=self._new_id(),
            action=BreakpointAction(action),
            global_name=name,
            condition=condition,
            only_changes=only_changes,
        )
        begin, end = self.symbols.global_range(name)
        self.wms.install_monitor(begin, end, tag=bp)
        self.breakpoints.append(bp)
        return bp

    def watch_local(
        self, func_name: str, var_name: str, condition=None, action: str = "log",
        only_changes: bool = False,
    ) -> DataBreakpoint:
        """Data breakpoint on a local variable, across all instantiations."""
        var = self.symbols.local_var(func_name, var_name)
        bp = DataBreakpoint(
            id=self._new_id(),
            action=BreakpointAction(action),
            func_name=func_name,
            var_name=var_name,
            condition=condition,
            only_changes=only_changes,
        )
        self.breakpoints.append(bp)
        if var.storage == "static":
            # Function statics have a fixed home, like globals.
            self.wms.install_monitor(var.address, var.address + var.size_bytes, tag=bp)
            return bp
        self._local_monitors[bp.id] = []
        func_index = self.image.function_index(func_name)

        def on_enter(func, frame_base, _bp=bp, _var=var):
            monitor = None
            if _bp.enabled:
                begin = _var.address_in_frame(frame_base)
                monitor = self.wms.install_monitor(begin, begin + _var.size_bytes, tag=_bp)
            self._local_monitors[_bp.id].append(monitor)

        def on_exit(func, frame_base, _bp=bp):
            stack = self._local_monitors[_bp.id]
            if stack:
                monitor = stack.pop()
                if monitor is not None:
                    self.wms.remove_monitor(monitor)

        self.cpu.enter_hooks.setdefault(func_index, []).append(on_enter)
        self.cpu.exit_hooks.setdefault(func_index, []).append(on_exit)
        return bp

    def watch_address(
        self, begin: int, end: int, condition=None, action: str = "log"
    ) -> DataBreakpoint:
        """Data breakpoint on a raw address range ``[begin, end)``.

        The escape hatch for watching memory no symbol names — exactly
        the WMS-level InstallMonitor(BA, EA) interface of paper section 2.
        """
        if end <= begin:
            raise DebuggerError(f"empty watch range [{begin:#x}, {end:#x})")
        bp = DataBreakpoint(
            id=self._new_id(),
            action=BreakpointAction(action),
            global_name=f"<{begin:#x}..{end:#x}>",
            condition=condition,
        )
        self.wms.install_monitor(begin, end, tag=bp)
        self.breakpoints.append(bp)
        return bp

    def watch_heap(
        self,
        in_context_of: str,
        alloc_ordinal: Optional[int] = None,
        condition=None,
        action: str = "log",
    ) -> DataBreakpoint:
        """Data breakpoint on heap objects allocated under a function.

        With ``alloc_ordinal=None`` this is the paper's AllHeapInFunc
        session shape; with an ordinal it narrows to a single object
        (OneHeap).
        """
        self.symbols.function(in_context_of)  # validate early
        bp = DataBreakpoint(
            id=self._new_id(),
            action=BreakpointAction(action),
            heap_in_context=in_context_of,
            alloc_ordinal=alloc_ordinal,
            condition=condition,
        )
        self.breakpoints.append(bp)
        self._heap_breakpoints.append(bp)
        if self._heap_watcher is None:
            self._heap_watcher = _HeapWatcher(self)
            self.runtime.heap.listeners.append(self._heap_watcher)
        return bp

    def break_at(self, func_name: str, action: str = "stop") -> ControlBreakpoint:
        """Control breakpoint at function entry (for completeness)."""
        func_index = self.image.function_index(func_name)
        bp = ControlBreakpoint(
            id=self._new_id(), action=BreakpointAction(action), func_name=func_name
        )
        self.breakpoints.append(bp)

        def on_enter(func, frame_base, _bp=bp):
            if not _bp.enabled:
                return
            pc = func.entry_pc
            event = BreakpointEvent(
                breakpoint=_bp,
                pc=pc,
                location=self.symbols.describe_pc(pc),
                call_stack=self.cpu.call_stack(),
            )
            _bp.hit_count += 1
            _bp.events.append(event)
            self.events.append(event)
            if _bp.action is BreakpointAction.STOP:
                raise _BreakpointHit(
                    StopInfo(_bp, event, pc, event.location, event.call_stack)
                )

        self.cpu.enter_hooks.setdefault(func_index, []).append(on_enter)
        return bp

    # ------------------------------------------------------------------
    # Notification handling
    # ------------------------------------------------------------------

    def _on_notification(self, notification: Notification) -> None:
        stop: Optional[StopInfo] = None
        for monitor in notification.monitors:
            bp = monitor.tag
            if not isinstance(bp, DataBreakpoint) or not bp.enabled:
                continue
            if notification.value is not None:
                value = notification.value
            else:
                value = self.memory.words[align_down(notification.begin, 4) >> 2]
            if bp.only_changes:
                if bp.last_value is not None and value == bp.last_value:
                    bp.last_value = value
                    continue
                bp.last_value = value
            if bp.condition is not None and not bp.condition(value):
                continue
            if bp.ignore_count > 0:
                bp.ignore_count -= 1
                continue
            event = BreakpointEvent(
                breakpoint=bp,
                pc=notification.pc,
                location=self.symbols.describe_pc(notification.pc),
                address=notification.begin,
                value=value,
                call_stack=self.cpu.call_stack(),
            )
            bp.hit_count += 1
            bp.events.append(event)
            self.events.append(event)
            if bp.action is BreakpointAction.STOP and stop is None:
                stop = StopInfo(
                    bp, event, notification.pc, event.location, event.call_stack
                )
        if stop is not None:
            raise _BreakpointHit(stop)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, entry: str = "main", args=(), max_instructions: int = 500_000_000) -> DebugOutcome:
        """Start the debuggee; returns when it finishes or stops."""
        if self._started:
            raise DebuggerError("session already started; use cont() or a new Debugger")
        self._started = True
        try:
            state = self.cpu.run(entry, args, max_instructions)
            return DebugOutcome(finished=True, state=state)
        except _BreakpointHit as hit:
            return DebugOutcome(finished=False, stop=hit.info)

    def cont(self, max_instructions: int = 500_000_000) -> DebugOutcome:
        """Resume after a stop."""
        if not self._started:
            raise DebuggerError("session not started; call run() first")
        try:
            state = self.cpu.resume(max_instructions)
            return DebugOutcome(finished=True, state=state)
        except _BreakpointHit as hit:
            return DebugOutcome(finished=False, stop=hit.info)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------

    def read_global(self, name: str):
        """Current value of a scalar global."""
        begin, _end = self.symbols.global_range(name)
        return self.memory.load_word(begin)

    def read_local(self, func_name: str, var_name: str):
        """Current value of a scalar local in the innermost live frame.

        When stopped at a function's entry (control breakpoint), the
        prologue has not yet spilled parameters to the frame, so
        parameter reads fall back to the incoming argument registers —
        the same prologue awareness a source debugger needs.
        """
        var = self.symbols.local_var(func_name, var_name)
        if var.storage != "frame":
            return self.memory.load_word(var.address)
        for depth, frame in enumerate(reversed(self.cpu.frames)):
            if frame.func.name == func_name:
                if var.is_param and depth == 0 and self.cpu._resume_pc == frame.func.entry_pc:
                    position = [p.name for p in frame.func.params].index(var_name)
                    return frame.regs[position]
                base = self.cpu.current_frame_base(depth)
                return self.memory.load_word(var.address_in_frame(base))
        raise DebuggerError(f"no live frame for {func_name!r}")

    def call_stack(self) -> List[str]:
        """Function names on the debuggee's call stack, innermost last."""
        return self.cpu.call_stack()

    @property
    def output(self) -> List[str]:
        """Debuggee output so far."""
        return self.runtime.output
