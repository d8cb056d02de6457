"""The simulated CPU.

Executes loaded MiniC programs with cycle accounting, and provides the
four hook points the write-monitor strategies need:

* **hardware monitor registers** — every completed store is checked
  against :class:`~repro.machine.monitor_registers.MonitorRegisterFile`;
  a hit raises a ``MONITOR_FAULT`` trap *after* the write (write monitors,
  not write barriers).
* **page protection** — a store to a write-protected page raises a
  ``WRITE_FAULT`` trap *before* the write; the user-level handler must
  emulate the store (:meth:`Cpu.emulate_store`) to make progress.
* **trap instructions** — ``TRAP``-patched stores raise ``TRAP_INSTR``;
  the handler emulates the original store.
* **check calls** — ``CHK`` instructions (code patching) invoke the
  registered :attr:`Cpu.check_hook` subroutine directly, with no kernel
  involvement.

A :attr:`Cpu.tracer` hook observes function entry/exit and every completed
write, which is how phase 1 of the experiment generates its event trace.

Two execution tiers run a segment (one :meth:`Cpu.run` or
:meth:`Cpu.resume`):

* **the reference loop** (:meth:`Cpu._loop`) — a single ``while`` with
  an ``if/elif`` chain ordered by dynamic frequency, which implements
  every hook above.  It is the specification of the machine;
* **the function-compiled fast path** (:meth:`Cpu._fast_loop`) — each
  MiniC function of the image compiled once into one Python function
  (:mod:`repro.machine.blocks`) that runs the function's own jumps and
  calls itself, with its registers in locals, and a small driver for
  the ``CALL``, ``RET``, ``CALLB``, one-instruction steps and
  checkpoints that leave it.  The compiled function adds up
  instructions, cycles and stores block by block and hands the driver
  the exact counts of the instruction boundary it stops at.

One rule picks the tier: a segment runs on the reference loop when the
``--profile`` opcode sampler is on, and on the fast path otherwise.  The
fast path runs the *unwatched* function table while no hook, protected
page, monitor register or ``TRAP`` miss path (below) is active (phase 1
and bare runs), and the *watched* one otherwise: every debugger session
and live WMS.  It
switches to the watched table when a builtin, hook or trap handler
activates one mid-segment.  In the watched table every store checks its
page against the protected set and its word against the monitor
registers' word set before writing.

In both tables a ``CALL`` is a **direct call**: the caller's compiled
function pushes the frame, keeps ``sp``, ``fp``, the deepest stack and
the tracer's frame records as the driver would, calls the callee's
compiled function itself and, at its ``RET``, pops the frame and goes
on at the return point.  A ``CALL`` whose frame would overflow the
stack, made with ``blocks.MAX_DIRECT_DEPTH`` frames on it or (watched
table) of a function that has enter hooks reaches the driver instead,
and so does a watched ``RET`` of a function that has exit hooks: the
driver runs the hooks in the reference loop's order.  Every other exit
of a callee reaches the driver too: each caller on the way adds its
counts and writes back its registers, its frame stays on the stack,
and the driver goes on with the innermost frame.  A later ``RET`` to
one of those callers takes the driver's ``RET`` path.

In the watched table a store the check stops, a ``CHK`` and a ``TRAP``
are **inline steps**: the compiled function writes its registers back,
sets the CPU's counters to the values the reference loop syncs at that
instruction, calls :meth:`Cpu._store`, :meth:`Cpu._check` or
:meth:`Cpu._trap` (the methods the reference loop calls too), takes in
the cycles and stores the handler added, and goes on.  It counts from
``Cpu._base``, which the driver sets before it enters a watched
function and a caller before a direct call; the counters themselves
change only where the reference loop syncs them.  The function keeps
its registers in locals across the call, so a handler may read a
frame's register list but not write it (no hook here does).  With no
tracer attached, the watched table runs a **monitor miss** of a
``CHK``, a ``TRAP`` or a store to a protected page in place instead,
as the :class:`MissPath` a strategy registered in
:attr:`Cpu.miss_paths` describes: the store, the cycles and one
counting call, and no call of the methods above.  The reference loop
never reads ``miss_paths``; it is the oracle that keeps the two
accounts of a miss equal.  A store to a bad
address, and a ``CHK`` or ``TRAP`` that is its function's last
instruction (and in the unwatched table every ``CHK`` and ``TRAP``),
is a **one-instruction step** instead: the function returns with the
counters up to and including that instruction, the driver executes it
with the same methods and re-enters at the next instruction.  A
segment that resumes in the middle of a block (after a handler raised
at a watched store) first makes its pc a block start, recompiling that
function.  The instruction budget and the tracer's drain points are
checked where a compiled function is entered, at its backward jumps
and after its direct calls: when the function's span (its instruction
count, which bounds any path without a backward jump) might not fit,
it returns at a **checkpoint**, where the driver offers the tracer a
drain or, if the budget is what ran short, hands over.  The fast path
gives the rest of a segment to the reference loop, at an instruction
boundary and with exact counters, only where the reference loop raises
or the compiled code cannot run: an alignment or range fault, a float
zero divisor, an instruction budget that ends within a function's
span, an instruction the compiler does not take, or a step or return
that resumes where the current function has no block (past its end).
Both tiers leave the same trace, registry, memory, counters, trap
counts and :class:`CpuState`, make the same hook and trap calls in the
same order, and raise the same errors with the same counters.

The dispatch loops are the hottest code in the repository.  For that
reason observation (:mod:`repro.observe`) records only at segment
completion: when :meth:`Cpu.run` or :meth:`Cpu.resume` runs to normal
completion, the instructions retired, cycles, stores, and per-kind trap
counts of that segment are reported as deltas (``cpu.*`` counters,
``cpu.traps.*`` included), on either tier, and the loops themselves
carry no instrumentation at all.

The sampling profiler (:mod:`repro.observe.profile`) rides the same
rule: its 1-in-N opcode sampling reuses the instruction-budget
comparison the reference loop already performs, so with profiling
disabled the loop is unchanged and with it enabled the only extra work
is one dict update per N instructions.  Profiled segments always run on
the reference loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro import observe
from repro.observe import profile as observe_profile

from repro.errors import (
    AlignmentFault,
    ArityError,
    CpuLimitExceeded,
    InvalidInstruction,
    MemoryFault,
    MiniCRuntimeError,
    StackOverflow,
    UnhandledFault,
)
from repro.machine import blocks, isa
from repro.machine.blocks import CHECK_MISS, FAULT_MISS, TRAP_MISS  # noqa: F401 (the slots)
from repro.machine.layout import MemoryLayout
from repro.machine.memory import Memory
from repro.machine.monitor_registers import MonitorRegisterFile
from repro.machine.paging import PageTable
from repro.machine.traps import TrapFrame, TrapKind

#: The fast path offers the tracer a drain at least every this many
#: instructions (at its checkpoints).  The tracer drains only a full
#: log, so a drain sees at most ``LOG_SLICE + _DRAIN_STRIDE`` records.
_DRAIN_STRIDE = 1 << 14

# Bound once: an Enum member lookup through its class runs Python code.
_MONITOR_FAULT = TrapKind.MONITOR_FAULT
_WRITE_FAULT = TrapKind.WRITE_FAULT
_TRAP_INSTR = TrapKind.TRAP_INSTR

#: Dense opcode -> cycle cost table (list for O(1) indexed lookup).
_COST: List[int] = [0] * (max(isa.CYCLE_COST) + 1)
for _op, _cost in isa.CYCLE_COST.items():
    _COST[_op] = _cost


class _Frame:
    """One activation record: virtual registers plus return linkage."""

    __slots__ = ("func", "regs", "ret_pc", "saved_fp", "dest_reg")

    def __init__(self, func, regs, ret_pc, saved_fp, dest_reg):
        self.func = func
        self.regs = regs
        self.ret_pc = ret_pc
        self.saved_fp = saved_fp
        self.dest_reg = dest_reg


class MissPath:
    """How the watched compiled code runs a monitor miss of one kind of
    event in place, registered by the strategy whose handler the event
    reaches (see :attr:`Cpu.miss_paths`).

    The event is a miss when ``hook`` is still the CPU's hook for it
    (``check_hook`` for a ``CHK``, ``trap_sink`` for the others), its
    address is aligned and in range and not a key of ``words`` (the live
    word map of the strategy's monitor map), a store's page is a key of
    ``pages`` (the live pages the strategy keeps protected; ``None`` for
    the other events), and no monitor register watches its word.  A miss
    makes the store (a ``TRAP`` or a store to a protected page), adds
    ``cycles``, the cycles the full path charges it, and calls
    ``count()``, which bumps every counter the full path bumps.
    """

    __slots__ = ("hook", "words", "pages", "cycles", "count")

    def __init__(self, hook: Callable, words: dict, pages: Optional[dict],
                 cycles: int, count: Callable[[], None]) -> None:
        self.hook = hook
        self.words = words
        self.pages = pages
        self.cycles = cycles
        self.count = count


@dataclass
class CpuState:
    """Result of a completed run."""

    exit_value: Optional[object] = None
    instructions: int = 0
    cycles: int = 0
    stores: int = 0
    max_call_depth: int = 0
    halted: bool = False
    trap_counts: Dict[TrapKind, int] = field(default_factory=dict)


def _c_div(a: int, b: int) -> int:
    """C-style truncating integer division."""
    if b == 0:
        raise MiniCRuntimeError("integer division by zero")
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _c_mod(a: int, b: int) -> int:
    """C-style remainder (sign follows the dividend)."""
    return a - _c_div(a, b) * b


class Cpu:
    """Interpreter for loaded programs on the simulated machine."""

    def __init__(
        self,
        memory: Memory,
        page_table: Optional[PageTable] = None,
        monitor_registers: Optional[MonitorRegisterFile] = None,
        layout: Optional[MemoryLayout] = None,
    ) -> None:
        self.memory = memory
        self.layout = layout or memory.layout
        self.page_table = page_table or PageTable()
        self.monitor_registers = monitor_registers or MonitorRegisterFile()

        # --- hook points -------------------------------------------------
        #: Called as ``deliver(trap_frame, cpu)`` for every trap; normally
        #: bound to :meth:`repro.sim_os.SimOs.deliver`.
        self.trap_sink: Optional[Callable[[TrapFrame, "Cpu"], None]] = None
        #: Code-patch check subroutine: ``check(address, pc, cpu)``.
        self.check_hook: Optional[Callable[[int, int, "Cpu"], None]] = None
        #: Phase-1 tracer: ``on_enter(func, frame_base)``,
        #: ``on_exit(func, frame_base)`` and ``on_write(address)`` for the
        #: word ``[address, address + 4)``, plus the fast path's protocol:
        #: ``log``, an array whose ``append`` records a store address the
        #: way ``on_write`` does, or a frame record
        #: ``~(frame_base << frame_shift | key)`` the way ``on_enter`` and
        #: ``on_exit`` do with ``key`` from ``enter_keys[func.index]`` or
        #: ``exit_keys[func.index]``; and ``drain_if_full()``, which the
        #: fast path calls at its checkpoints, at least every
        #: ``_DRAIN_STRIDE`` instructions.
        self.tracer = None
        #: Builtin functions: index -> ``fn(cpu, args) -> value``.
        self.builtins: List[Callable] = []
        #: Debugger hooks keyed by function index.
        self.enter_hooks: Dict[int, List[Callable]] = {}
        self.exit_hooks: Dict[int, List[Callable]] = {}
        #: The :class:`MissPath` of each event, by slot (:data:`CHECK_MISS`,
        #: :data:`TRAP_MISS`, :data:`FAULT_MISS`), or ``None``: the
        #: watched compiled code reads it at each such event.  A strategy
        #: sets its slot when it installs its hook or handler and clears it
        #: when it detaches; the reference loop never reads it.
        self.miss_paths: List[Optional[MissPath]] = [None, None, None]

        # --- machine state -----------------------------------------------
        self.cycles = 0
        self.instructions = 0
        self.stores = 0
        self.sp = self.layout.stack_top
        self.fp = self.layout.stack_top
        self.frames: List[_Frame] = []
        self.trap_counts: Dict[TrapKind, int] = {}
        self._loaded = None

    # ------------------------------------------------------------------
    # Program control
    # ------------------------------------------------------------------

    def attach(self, loaded_program) -> None:
        """Attach a :class:`~repro.machine.loader.LoadedProgram`."""
        self._loaded = loaded_program
        for address, value in loaded_program.global_init_words:
            self.memory.store_word(address, value)

    @property
    def loaded_program(self):
        """The attached program image, or None."""
        return self._loaded

    def emulate_store(self, address: int, value) -> None:
        """Perform a store on behalf of a fault handler.

        Bypasses page protection (the handler is trusted), but still
        checks alignment/bounds and notifies hardware monitor registers
        and the tracer, so emulated writes are indistinguishable from
        direct ones to every downstream observer.
        """
        if address & 3 or not (0 <= address < self.layout.memory_size):
            raise MemoryFault(address, "bad emulated store")
        self.memory.words[address >> 2] = value
        self.stores += 1
        if address >> 2 in self.monitor_registers.words:
            self._raise_trap(TrapFrame(_MONITOR_FAULT, self._trap_pc, address, value))
        if self.tracer is not None:
            self.tracer.on_write(address)

    def _raise_trap(self, frame: TrapFrame) -> None:
        counts, kind = self.trap_counts, frame.kind
        counts[kind] = counts.get(kind, 0) + 1
        if self.trap_sink is None:
            raise UnhandledFault(f"{frame.kind.value} at pc={frame.pc} with no trap sink")
        self.trap_sink(frame, self)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, entry: str = "main", args=(), max_instructions: int = 500_000_000) -> CpuState:
        """Execute the attached program from function ``entry``.

        Returns a :class:`CpuState` describing the completed run.  The
        instruction budget guards against runaway programs.
        """
        if self._loaded is None:
            raise InvalidInstruction("no program attached")
        loaded = self._loaded
        func_index = loaded.function_index(entry)
        return self._run_from(func_index, list(args), max_instructions)

    def resume(self, max_instructions: int = 500_000_000) -> CpuState:
        """Continue execution after a handler raised through :meth:`run`.

        The CPU records a resume program counter at every point where a
        user hook or trap handler may raise (the instruction after a
        faulting store, or a callee's entry for an entry hook), so a
        debugger can stop at a breakpoint, inspect state, and continue.
        """
        if not self.frames:
            raise InvalidInstruction("nothing to resume: no live frames")
        if self._resume_pc < 0:
            raise InvalidInstruction("nothing to resume: no recorded resume point")
        return self._execute(self._resume_pc, max_instructions)

    def _run_from(self, func_index: int, args, max_instructions: int) -> CpuState:
        return self._execute(self._push_entry(func_index, args), max_instructions)

    def _push_entry(self, func_index: int, args) -> int:
        """Install the entry frame of ``func_index`` with ``args``; return
        the pc a loop starts from."""
        func = self._loaded.functions[func_index]
        if len(args) != len(func.params):
            raise ArityError(
                f"{func.name} takes {len(func.params)} argument(s), "
                f"got {len(args)}"
            )
        self.sp -= func.frame_size
        if self.sp < self.layout.stack_limit:
            raise StackOverflow(func.name)
        self.fp = self.sp
        regs: List = [0] * func.n_regs
        regs[: len(args)] = args
        frame = _Frame(func, regs, -1, self.layout.stack_top, None)
        self.frames.append(frame)
        if self.tracer is not None:
            self.tracer.on_enter(func, self.fp)
        hooks = self.enter_hooks.get(func_index)
        if hooks:
            self._resume_pc = func.entry_pc
            for hook in hooks:
                hook(func, self.fp)
        return func.entry_pc

    def _execute(self, start_pc: int, max_instructions: int) -> CpuState:
        """Run one segment: on the reference loop when profiling, else fast."""
        if observe_profile.cpu_sample_stride():
            return self._loop(start_pc, max_instructions)
        return self._fast_loop(start_pc, max_instructions)

    def _hooks_clear(self) -> bool:
        """No hook, protected page, monitor register or ``TRAP`` miss path
        needs the watched table (the unwatched one steps every ``TRAP``
        through the driver)."""
        return (
            self.check_hook is None
            and self.miss_paths[TRAP_MISS] is None
            and not self.page_table.write_protected
            and not self.monitor_registers.any_enabled
            and not any(self.enter_hooks.values())
            and not any(self.exit_hooks.values())
        )

    # -- instructions both tiers execute the same way ---------------------
    # Each runs with the counters written back, this instruction's
    # included, and leaves any change a handler made in them.

    def _store(self, pc: int, address: int, value) -> None:
        """``ST`` of ``value`` to the checked ``address`` when its page is
        write-protected or its word is watched by a monitor register."""
        if address >> self.page_table.page_shift in self.page_table.write_protected:
            # Pre-write fault; the handler emulates (or the store is lost).
            self._trap_pc = pc
            self._resume_pc = pc + 1
            self._raise_trap(TrapFrame(_WRITE_FAULT, pc, address, value, (address, value)))
            return
        self.memory.words[address >> 2] = value
        self.stores += 1
        if address >> 2 in self.monitor_registers.words:
            self._trap_pc = pc
            self._resume_pc = pc + 1
            self._raise_trap(TrapFrame(_MONITOR_FAULT, pc, address, value))
        if self.tracer is not None:
            self.tracer.on_write(address)

    def _check(self, pc: int, address: int) -> None:
        """``CHK`` of ``address``: call the code-patch check subroutine."""
        if self.check_hook is not None:
            self._trap_pc = pc
            self._resume_pc = pc + 1
            self.check_hook(address, pc, self)

    def _trap(self, pc: int, address: int, value) -> None:
        """``TRAP``: a trap-patched store of ``value`` to ``address``."""
        self._trap_pc = pc
        self._resume_pc = pc + 1
        self._raise_trap(TrapFrame(_TRAP_INSTR, pc, address, value, (address, value)))

    def _step(self, pc: int, regs: list) -> None:
        """The fast path's one-instruction step: the ``ST``, ``CHK`` or
        ``TRAP`` at ``pc`` on the frame registers ``regs``."""
        instr = self._loaded.code[pc]
        op = instr[0]
        address = regs[instr[1]] + instr[2]
        if op == isa.CHK:
            self._check(pc, address)
        elif op == isa.TRAP:
            self._trap(pc, address, regs[instr[3]])
        elif address & 3 or not (0 <= address < self.layout.memory_size):
            raise AlignmentFault(address) if address & 3 \
                else MemoryFault(address, "store out of range")
        else:
            self._store(pc, address, regs[instr[3]])

    def _report(self, instructions: int, cycles: int, stores: int,
                traps_before: Dict[TrapKind, int], traps_after: Dict[TrapKind, int]) -> None:
        """Report one tier's part of a segment as ``cpu.*`` deltas."""
        observe.inc("cpu.instructions", instructions)
        observe.inc("cpu.cycles", cycles)
        observe.inc("cpu.stores", stores)
        for kind, count in traps_after.items():
            delta = count - traps_before.get(kind, 0)
            if delta:
                observe.inc(f"cpu.traps.{kind.value}", delta)

    def _loop(self, start_pc: int, max_instructions: int) -> CpuState:
        loaded = self._loaded
        code = loaded.code
        functions = loaded.functions
        mem_size = self.layout.memory_size
        words = self.memory.words
        protected = self.page_table.write_protected
        page_shift = self.page_table.page_shift
        watched_words = self.monitor_registers.words
        cost = _COST
        stack_limit = self.layout.stack_limit
        enter_hooks = self.enter_hooks
        exit_hooks = self.exit_hooks

        frame = self.frames[-1]
        regs = frame.regs
        fp = self.fp
        max_depth = len(self.frames)

        pc = start_pc
        cycles = self.cycles
        n_instr = self.instructions
        n_stores = self.stores
        exit_value = None
        tracer = self.tracer

        # Observation snapshots (per-segment deltas reported on completion;
        # the dispatch loop below carries no instrumentation).
        observing = observe.is_enabled()
        if observing:
            entry_cycles, entry_instr, entry_stores = cycles, n_instr, n_stores
            entry_traps = dict(self.trap_counts)

        # Sampling profiler (repro.observe.profile): piggybacks on the
        # instruction-budget comparison the loop already makes.  With
        # profiling off, ``budget_check`` *is* ``max_instructions`` and
        # the loop is identical to the unprofiled one; with profiling on,
        # the checkpoint fires every ``profile_stride`` instructions,
        # records the opcode in flight, and re-arms.
        profile_stride = observe_profile.cpu_sample_stride()
        if profile_stride:
            opcode_samples: Optional[Dict[int, int]] = {}
            budget_check = min(max_instructions, n_instr + profile_stride)
        else:
            opcode_samples = None
            budget_check = max_instructions

        # Local opcode constants (LOAD_FAST beats LOAD_GLOBAL in the loop).
        LDI, MOV, LEAF = isa.LDI, isa.MOV, isa.LEAF
        ADD, SUB, MUL, DIV, MOD = isa.ADD, isa.SUB, isa.MUL, isa.DIV, isa.MOD
        FADD, FSUB, FMUL, FDIV = isa.FADD, isa.FSUB, isa.FMUL, isa.FDIV
        AND, OR, XOR, SHL, SHR = isa.AND, isa.OR, isa.XOR, isa.SHL, isa.SHR
        NEG, FNEG, NOT, BNOT = isa.NEG, isa.FNEG, isa.NOT, isa.BNOT
        I2F, F2I = isa.I2F, isa.F2I
        EQ, NE, LT, LE, GT, GE = isa.EQ, isa.NE, isa.LT, isa.LE, isa.GT, isa.GE
        LD, ST = isa.LD, isa.ST
        JMP, BF, BT = isa.JMP, isa.BF, isa.BT
        CALL, CALLB, RET = isa.CALL, isa.CALLB, isa.RET
        CHK, TRAP, NOP, HALT = isa.CHK, isa.TRAP, isa.NOP, isa.HALT

        running = True
        while running:
            instr = code[pc]
            op = instr[0]
            cycles += cost[op]
            n_instr += 1
            if n_instr > budget_check:
                if n_instr > max_instructions:
                    self.cycles, self.instructions, self.stores = cycles, n_instr, n_stores
                    raise CpuLimitExceeded(f"exceeded {max_instructions} instructions")
                opcode_samples[op] = opcode_samples.get(op, 0) + 1
                budget_check = min(max_instructions, n_instr + profile_stride)

            if op == LD:
                addr = regs[instr[2]] + instr[3]
                if addr & 3 or not (0 <= addr < mem_size):
                    self._sync(cycles, n_instr, n_stores)
                    raise AlignmentFault(addr) if addr & 3 else MemoryFault(addr, "load out of range")
                regs[instr[1]] = words[addr >> 2]
                pc += 1
            elif op == ST:
                addr = regs[instr[1]] + instr[2]
                if addr & 3 or not (0 <= addr < mem_size):
                    self._sync(cycles, n_instr, n_stores)
                    raise AlignmentFault(addr) if addr & 3 else MemoryFault(addr, "store out of range")
                if addr >> page_shift in protected or addr >> 2 in watched_words:
                    self._sync(cycles, n_instr, n_stores)
                    self._store(pc, addr, regs[instr[3]])
                    cycles, n_stores = self.cycles, self.stores
                else:
                    words[addr >> 2] = regs[instr[3]]
                    n_stores += 1
                    if tracer is not None:
                        tracer.on_write(addr)
                pc += 1
            elif op == LDI:
                regs[instr[1]] = instr[2]
                pc += 1
            elif op == ADD:
                regs[instr[1]] = regs[instr[2]] + regs[instr[3]]
                pc += 1
            elif op == BF:
                pc = instr[2] if not regs[instr[1]] else pc + 1
            elif op == BT:
                pc = instr[2] if regs[instr[1]] else pc + 1
            elif op == LT:
                regs[instr[1]] = 1 if regs[instr[2]] < regs[instr[3]] else 0
                pc += 1
            elif op == LEAF:
                regs[instr[1]] = fp + instr[2]
                pc += 1
            elif op == SUB:
                regs[instr[1]] = regs[instr[2]] - regs[instr[3]]
                pc += 1
            elif op == MUL:
                regs[instr[1]] = regs[instr[2]] * regs[instr[3]]
                pc += 1
            elif op == JMP:
                pc = instr[1]
            elif op == MOV:
                regs[instr[1]] = regs[instr[2]]
                pc += 1
            elif op == EQ:
                regs[instr[1]] = 1 if regs[instr[2]] == regs[instr[3]] else 0
                pc += 1
            elif op == NE:
                regs[instr[1]] = 1 if regs[instr[2]] != regs[instr[3]] else 0
                pc += 1
            elif op == LE:
                regs[instr[1]] = 1 if regs[instr[2]] <= regs[instr[3]] else 0
                pc += 1
            elif op == GT:
                regs[instr[1]] = 1 if regs[instr[2]] > regs[instr[3]] else 0
                pc += 1
            elif op == GE:
                regs[instr[1]] = 1 if regs[instr[2]] >= regs[instr[3]] else 0
                pc += 1
            elif op == CALL:
                callee = functions[instr[1]]
                new_regs = [0] * callee.n_regs
                arg_regs = instr[3]
                for i in range(len(arg_regs)):
                    new_regs[i] = regs[arg_regs[i]]
                self.sp -= callee.frame_size
                if self.sp < stack_limit:
                    self._sync(cycles, n_instr, n_stores)
                    raise StackOverflow(callee.name)
                frame = _Frame(callee, new_regs, pc + 1, fp, instr[2])
                self.frames.append(frame)
                if len(self.frames) > max_depth:
                    max_depth = len(self.frames)
                fp = self.sp
                self.fp = fp
                regs = new_regs
                if tracer is not None:
                    tracer.on_enter(callee, fp)
                hooks = enter_hooks.get(instr[1])
                if hooks:
                    self._sync(cycles, n_instr, n_stores)
                    self._resume_pc = callee.entry_pc
                    for hook in hooks:
                        hook(callee, fp)
                    cycles = self.cycles
                pc = callee.entry_pc
            elif op == RET:
                ret_val = regs[instr[1]] if instr[1] is not None else None
                done_frame = self.frames.pop()
                if tracer is not None:
                    tracer.on_exit(done_frame.func, fp)
                hooks = exit_hooks.get(done_frame.func.index)
                if hooks:
                    self._sync(cycles, n_instr, n_stores)
                    for hook in hooks:
                        hook(done_frame.func, fp)
                    cycles = self.cycles
                self.sp += done_frame.func.frame_size
                if not self.frames:
                    exit_value = ret_val
                    running = False
                else:
                    caller = self.frames[-1]
                    fp = done_frame.saved_fp
                    self.fp = fp
                    regs = caller.regs
                    if done_frame.dest_reg is not None:
                        regs[done_frame.dest_reg] = ret_val
                    pc = done_frame.ret_pc
            elif op == CALLB:
                self._sync(cycles, n_instr, n_stores)
                arg_values = [regs[a] for a in instr[3]]
                result = self.builtins[instr[1]](self, arg_values)
                cycles, n_stores = self.cycles, self.stores
                if instr[2] is not None:
                    regs[instr[2]] = result
                pc += 1
            elif op == CHK:
                addr = regs[instr[1]] + instr[2]
                self._sync(cycles, n_instr, n_stores)
                self._check(pc, addr)
                cycles, n_stores = self.cycles, self.stores
                pc += 1
            elif op == TRAP:
                addr = regs[instr[1]] + instr[2]
                self._sync(cycles, n_instr, n_stores)
                self._trap(pc, addr, regs[instr[3]])
                cycles, n_stores = self.cycles, self.stores
                pc += 1
            elif op == DIV:
                regs[instr[1]] = _c_div(regs[instr[2]], regs[instr[3]])
                pc += 1
            elif op == MOD:
                regs[instr[1]] = _c_mod(regs[instr[2]], regs[instr[3]])
                pc += 1
            elif op == FADD:
                regs[instr[1]] = regs[instr[2]] + regs[instr[3]]
                pc += 1
            elif op == FSUB:
                regs[instr[1]] = regs[instr[2]] - regs[instr[3]]
                pc += 1
            elif op == FMUL:
                regs[instr[1]] = regs[instr[2]] * regs[instr[3]]
                pc += 1
            elif op == FDIV:
                denom = regs[instr[3]]
                if denom == 0:
                    self._sync(cycles, n_instr, n_stores)
                    raise MiniCRuntimeError("float division by zero")
                regs[instr[1]] = regs[instr[2]] / denom
                pc += 1
            elif op == AND:
                regs[instr[1]] = regs[instr[2]] & regs[instr[3]]
                pc += 1
            elif op == OR:
                regs[instr[1]] = regs[instr[2]] | regs[instr[3]]
                pc += 1
            elif op == XOR:
                regs[instr[1]] = regs[instr[2]] ^ regs[instr[3]]
                pc += 1
            elif op == SHL:
                regs[instr[1]] = regs[instr[2]] << regs[instr[3]]
                pc += 1
            elif op == SHR:
                regs[instr[1]] = regs[instr[2]] >> regs[instr[3]]
                pc += 1
            elif op == NEG:
                regs[instr[1]] = -regs[instr[2]]
                pc += 1
            elif op == FNEG:
                regs[instr[1]] = -regs[instr[2]]
                pc += 1
            elif op == NOT:
                regs[instr[1]] = 0 if regs[instr[2]] else 1
                pc += 1
            elif op == BNOT:
                regs[instr[1]] = ~regs[instr[2]]
                pc += 1
            elif op == I2F:
                regs[instr[1]] = float(regs[instr[2]])
                pc += 1
            elif op == F2I:
                regs[instr[1]] = int(regs[instr[2]])
                pc += 1
            elif op == NOP:
                pc += 1
            elif op == HALT:
                running = False
            else:
                self._sync(cycles, n_instr, n_stores)
                raise InvalidInstruction(f"opcode {op} at pc={pc}")

        self._sync(cycles, n_instr, n_stores)
        if opcode_samples:
            # Flush the segment's opcode samples (sampling mirrors the
            # counter contract: recorded at normal segment completion).
            observe_profile.get_profiler().record_cpu(opcode_samples)
        if observing:
            observe.inc("cpu.runs")
            self._report(self.instructions - entry_instr, self.cycles - entry_cycles,
                         self.stores - entry_stores, entry_traps, self.trap_counts)
        return CpuState(
            exit_value=exit_value,
            instructions=self.instructions,
            cycles=self.cycles,
            stores=self.stores,
            max_call_depth=max_depth,
            halted=True,
            trap_counts=dict(self.trap_counts),
        )

    def _function_table(self, watched: bool, depth_mark: list, entry: int = -1):
        """The compiled image variant and its function table, bound to
        this machine's memory, tracer log and watch sets; direct calls
        record the deepest stack in ``depth_mark``.  A segment that
        enters at ``entry`` mid-block (a resume after a handler raised at
        a watched store) makes it a block start first."""
        compiled = blocks.compiled_image(self._loaded, self.layout, watched)
        if entry >= 0 and compiled.starts[entry] is None:
            compiled.add_start(entry)
        tracer = self.tracer
        link = blocks.CallLink(
            self, self.frames, _Frame, depth_mark, self._loaded.functions, tracer)
        table = compiled.table(
            self.memory.words, tracer.log.append if tracer is not None else None,
            _c_div, _c_mod, self.page_table.write_protected,
            self.monitor_registers.words, self.page_table.page_shift, link,
        )
        return compiled.starts, table

    def _fast_loop(self, start_pc: int, max_instructions: int) -> CpuState:
        """The function-compiled tier (see the module docstring).

        Anything the compiled functions cannot run exactly is handed to
        :meth:`_loop`.
        """
        layout = self.layout
        frames = self.frames
        frame = frames[-1]
        fp = self.fp
        func = frame.func
        if fp & 3 or fp < layout.stack_limit or fp + func.frame_size > layout.stack_top \
                or not func.entry_pc <= start_pc < func.end_pc:
            return self._loop(start_pc, max_instructions)
        watched = not self._hooks_clear()
        max_depth = len(frames)
        depth_mark = [max_depth]
        starts, table = self._function_table(watched, depth_mark, start_pc)
        if starts[start_pc] != func.index:
            return self._loop(start_pc, max_instructions)

        tracer = self.tracer
        enter_hooks, exit_hooks = self.enter_hooks, self.exit_hooks
        stack_limit = layout.stack_limit
        regs = frame.regs
        fw = fp >> 2
        run = table[func.index]
        pc = start_pc
        cycles = self.cycles
        n_instr = self.instructions
        n_stores = self.stores
        exit_value = None
        observing = observe.is_enabled()
        entry_cycles, entry_instr, entry_stores = cycles, n_instr, n_stores
        if observing:
            entry_traps = dict(self.trap_counts)
        # One bound guards both the instruction budget and the tracer's
        # drain points: a compiled function leaves at a checkpoint before
        # it could run past it.
        checkpoint = max_instructions
        log_append = None
        if tracer is not None:
            checkpoint = min(max_instructions, n_instr + _DRAIN_STRIDE)
            log_append = tracer.log.append
            frame_shift = tracer.frame_shift
            enter_keys, exit_keys = tracer.enter_keys, tracer.exit_keys
        CALL, CALLB, RET, STEP, CHECKPOINT, HALT = (
            blocks.CALL, blocks.CALLB, blocks.RET, blocks.STEP, blocks.CHECKPOINT,
            blocks.HALT)
        new_frame = object.__new__
        handover_pc: Optional[int] = None

        # A table's functions call each other through it, a reference
        # cycle that holds this machine: each table is emptied once none
        # of its functions runs, so the machine is freed by reference
        # counting when its owner drops it.
        try:
            while True:
                if watched:
                    # The counters a watched function's inline steps count from.
                    self._base = n_instr, cycles, n_stores
                leave, n, cyc, nst, result = run(regs, fp, fw, pc, checkpoint - n_instr)
                n_instr += n
                cycles += cyc
                n_stores += nst
                kind = leave[0]
                if frames[-1] is not frame:
                    # The function's direct calls left their callees on the
                    # stack: go on with the innermost one.
                    frame = frames[-1]
                    regs = frame.regs
                    fp = self.fp
                    fw = fp >> 2
                    run = table[frame.func.index]
                if kind == CALL:
                    _, callee, dest_reg, ret_pc, index, frame_size, pc = leave
                    self.sp -= frame_size
                    if self.sp < stack_limit:
                        self._sync(cycles, n_instr, n_stores)
                        raise StackOverflow(callee.name)
                    # _Frame(...) without the cost of a Python __init__ call.
                    frame = new_frame(_Frame)
                    frame.func, frame.regs, frame.ret_pc, frame.saved_fp, frame.dest_reg = (
                        callee, result, ret_pc, fp, dest_reg)
                    frames.append(frame)
                    if len(frames) > max_depth:
                        max_depth = len(frames)
                    fp = self.sp
                    self.fp = fp
                    fw = fp >> 2
                    regs = result
                    if log_append is not None:
                        log_append(~(fp << frame_shift | enter_keys[index]))
                    run = table[index]
                    if enter_hooks:
                        hooks = enter_hooks.get(index)
                        if hooks:
                            self._sync(cycles, n_instr, n_stores)
                            self._resume_pc = pc
                            for hook in hooks:
                                hook(callee, fp)
                            cycles = self.cycles
                elif kind == RET:
                    done_frame = frames.pop()
                    func = done_frame.func
                    if log_append is not None:
                        log_append(~(fp << frame_shift | exit_keys[func.index]))
                    if exit_hooks:
                        hooks = exit_hooks.get(func.index)
                        if hooks:
                            self._sync(cycles, n_instr, n_stores)
                            for hook in hooks:
                                hook(func, fp)
                            cycles = self.cycles
                    self.sp += func.frame_size
                    if not frames:
                        exit_value = result
                        break
                    fp = done_frame.saved_fp
                    self.fp = fp
                    fw = fp >> 2
                    frame = frames[-1]
                    regs = frame.regs
                    if done_frame.dest_reg is not None:
                        regs[done_frame.dest_reg] = result
                    pc = done_frame.ret_pc
                    index = frame.func.index
                    if pc < 0 or starts[pc] != index:
                        handover_pc = pc
                        break
                    run = table[index]
                elif kind == STEP:
                    pc = leave[1]
                    self._sync(cycles, n_instr, n_stores)
                    self._step(pc, regs)
                    cycles, n_stores = self.cycles, self.stores
                    pc += 1
                    if not watched and not self._hooks_clear():
                        watched = True
                        table.clear()
                        starts, table = self._function_table(True, depth_mark)
                        run = table[frames[-1].func.index]
                    if starts[pc] != frames[-1].func.index:
                        handover_pc = pc
                        break
                elif kind == CALLB:
                    _, builtin, dest_reg, pc = leave
                    self._sync(cycles, n_instr, n_stores)
                    value = self.builtins[builtin](self, result)
                    cycles, n_stores = self.cycles, self.stores
                    if dest_reg is not None:
                        regs[dest_reg] = value
                    if not watched and not self._hooks_clear():
                        watched = True
                        table.clear()
                        starts, table = self._function_table(True, depth_mark)
                        run = table[frames[-1].func.index]
                elif kind == CHECKPOINT:
                    pc = result
                    span = leave[1]
                    if n_instr + span > max_instructions:
                        handover_pc = pc
                        break
                    # Only a tracer puts the checkpoint before the budget.
                    tracer.drain_if_full()
                    checkpoint = min(max_instructions, n_instr + max(_DRAIN_STRIDE, span))
                elif kind == HALT:
                    break
                else:
                    handover_pc = leave[1]
                    break
        finally:
            table.clear()

        self._sync(cycles, n_instr, n_stores)
        max_depth = max(max_depth, depth_mark[0])
        if handover_pc is None:
            state = CpuState(
                exit_value=exit_value,
                instructions=n_instr,
                cycles=cycles,
                stores=n_stores,
                max_call_depth=max_depth,
                halted=True,
                trap_counts=dict(self.trap_counts),
            )
            if observing:
                observe.inc("cpu.runs")
                self._report(n_instr - entry_instr, cycles - entry_cycles,
                             n_stores - entry_stores, entry_traps, self.trap_counts)
            return state
        # The reference loop reports its own part of the segment (and
        # cpu.runs) when it completes; this loop adds the rest.
        if observing:
            handover_traps = dict(self.trap_counts)
        state = self._loop(handover_pc, max_instructions)
        state.max_call_depth = max(state.max_call_depth, max_depth)
        if observing:
            self._report(n_instr - entry_instr, cycles - entry_cycles,
                         n_stores - entry_stores, entry_traps, handover_traps)
        return state

    # The trap pc of the instruction currently faulting (for emulate_store).
    _trap_pc: int = -1
    # Where resume() continues after a handler raises (set at raise sites).
    _resume_pc: int = -1
    # The instructions, cycles and stores before the watched compiled
    # function entered next; it adds its own to them at an inline step.
    # Kept apart from the counters, which change only where _loop syncs.
    _base: tuple = (0, 0, 0)

    def _sync(self, cycles: int, n_instr: int, n_stores: int) -> None:
        """Write loop-local counters back to instance state."""
        self.cycles = cycles
        self.instructions = n_instr
        self.stores = n_stores

    # ------------------------------------------------------------------
    # Introspection helpers (used by the debugger)
    # ------------------------------------------------------------------

    def call_stack(self) -> List[str]:
        """Names of functions on the call stack, innermost last."""
        return [frame.func.name for frame in self.frames]

    def current_frame_base(self, depth: int = 0) -> int:
        """Frame pointer of the frame ``depth`` levels up from innermost.

        Each frame records its *caller's* frame pointer in ``saved_fp``,
        so the frame at depth ``d`` has its base stored in the frame one
        level deeper (or in ``self.fp`` for the innermost frame).
        """
        if depth < 0 or depth >= len(self.frames):
            raise MemoryFault(0, "no such frame")
        if depth == 0:
            return self.fp
        return self.frames[len(self.frames) - depth].saved_fp
