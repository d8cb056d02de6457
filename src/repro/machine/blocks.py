"""Function compiler for the CPU's fast tier.

:meth:`repro.machine.cpu.Cpu._fast_loop` runs every segment that is not
profiled on the functions built here.  Once per loaded image and
variant (at its first fast run, never at import) every MiniC function
is split into basic blocks and becomes one Python function
``run(R, fp, fw, pc, left)``:

* ``R`` is the frame's register list, ``fp`` its frame pointer, ``fw``
  the frame pointer in words (``fp >> 2``), ``pc`` the block start to
  enter at and ``left`` the instructions the driver allows before its
  next checkpoint;
* the registers are unpacked into Python locals on entry and stay there
  across the function's own jumps and direct calls; every exit to the
  driver but ``RET`` (and, in the watched variant, every inline step
  and direct call) writes back to ``R`` each register a block that can
  reach it assigns, so ``R`` matches the reference loop's register
  list whenever the driver or a handler sees it.  Inside a
  block, ``LDI``/``LEAF`` results are tracked as constants, so a load
  or store through them addresses ``w[const]`` or ``w[fw + const]``
  with no run-time check when the address is provably aligned and in
  range;
* control flow inside the function is a local ``pc`` dispatch: the
  blocks are ``if pc == start:`` statements in program order inside a
  ``while True`` loop, and each loop of the function (a range of blocks
  a backward jump closes) is a nested ``while True`` of its own.  A jump
  forward falls through to its target's test, a jump back to the head
  of its loop is a ``continue`` and a jump out of a loop a ``break``;
* instructions, cycles and stores are added up in locals, block by
  block.  A forward path through the function runs at most the
  function's *span* (its instruction count) plus what its direct
  callees run, so the function checks ``left`` on entry, at every
  backward jump and after every direct call only, and leaves for a
  **checkpoint** when the span might not fit;
* the function returns ``(exit, instructions, cycles, stores, value)``
  to the driver at ``CALL`` (value: the callee's register list),
  ``CALLB`` (the argument list), ``RET`` (the return value), ``HALT``,
  a checkpoint (the pc to resume at), a **step** and a **hand-over**.
  ``exit`` is a descriptor tuple whose first item is the kind (see
  :data:`CALL` and the names beside it); the counts are exact for the
  exit's instruction boundary.  In the unwatched variant ``CHK`` and
  ``TRAP`` are steps: the driver executes that one instruction with the
  reference semantics and re-enters at the next one;
* a ``CALL`` is a **direct call** (see
  :meth:`_FunctionWriter.direct_call`): the function pushes the
  callee's frame and calls the callee's ``run`` with the budget it has
  left.  At the callee's ``RET`` it pops the frame, assigns the result
  and checks the budget as at a backward jump, so the call block
  falls through to its return block like a forward jump.  A ``CALL``
  leaves to the driver as above only when the frame would overflow the
  stack, :data:`MAX_DIRECT_DEPTH` frames are on it or (watched variant)
  the callee has enter hooks.  Any other exit of the callee is returned
  on to the driver, with this function's counts added and its registers
  written back (also when the callee raises); the callee's frame stays
  on the stack;
* where the reference loop would do something special (an alignment or
  range fault, a float zero divisor), the function writes its registers
  back and hands over at that instruction, so the driver can give the
  rest of the segment to the reference loop at its boundary, with exact
  counters.  Errors the reference loop raises without writing its
  counters back propagate unchanged, leaving the counters of the last
  write-back, as there.  Before an integer zero divisor the function
  also writes its registers back, so ``R`` is left as the reference
  loop leaves it; Python's own errors (a negative shift count,
  ``int(nan)``) leave register writes in locals;
* instructions the compiler does not take (unknown opcodes, any operand
  that is not a plain ``int`` in range, a branch out of the function,
  falling off a function's end) become hand-over points too, so the
  reference loop executes them.

Each image has two variants of its function table:

* the **unwatched** variant stores with no check beyond alignment and
  range.  It runs when no hook, protected page, monitor register or
  ``TRAP`` miss path is active, which is every phase-1 and bare run;
* the **watched** variant guards every ``ST`` before the write with
  ``a >> S in P or a >> 2 in MW``: ``P`` is the live
  :attr:`PageTable.write_protected <repro.machine.paging.PageTable>`
  set, ``S`` its page shift and ``MW`` the live
  :attr:`MonitorRegisterFile.words
  <repro.machine.monitor_registers.MonitorRegisterFile>` set.  A bad
  address leaves the function as a step of that store, whose driver
  raises the fault.  A hit is an **inline step**, and so is every
  ``CHK`` and ``TRAP`` but a function's last instruction: the function
  writes its registers back, sets the CPU's ``instructions``,
  ``cycles`` and ``stores`` to the values the reference loop syncs
  there (the base ``I0, C0, S0`` it read from ``Cpu._base`` on entry
  plus its own counts), calls ``Cpu._store``, ``Cpu._check`` or
  ``Cpu._trap``, takes in the cycles and stores the handler added and
  goes on at the next instruction.  Before a direct call it sets the
  callee's base the same way.  When no tracer is attached, a ``CHK``, a
  ``TRAP`` and a store to a protected page first test whether they are a
  **monitor miss** by the ``Cpu.miss_paths`` description of their kind
  (:class:`~repro.machine.cpu.MissPath`), read at each event: aligned
  and in range, not in the strategy's live word map (a store: its page
  in the strategy's live page counts), not in ``MW``, and the
  strategy's check hook or the OS's trap sink still installed.  A miss
  makes its store (a ``TRAP`` or a protected store), adds the
  description's cycles, sets ``Cpu._trap_pc`` and ``Cpu._resume_pc``
  as the full path does and calls the description's ``count``, with no
  write-back and no call into the CPU; every other event is an inline
  step.  A ``RET`` of a function that has exit hooks leaves with its
  own descriptor ``(RET, index)``, which a direct caller returns on to
  the driver, so the driver pops the frame and runs the hooks.  A store
  does not end its block: a segment that resumes after a handler raised
  at one enters mid-block, and :meth:`CompiledImage.add_start` first
  makes that pc a block start.

Immediates that are not plain ints (floats such as ``inf``, ``-0.0`` or
``nan``, and anything else) reach the generated code through a constants
table, never through their ``repr``; every other operand is checked to
be an ``int`` before it is written into source.

Each function compiles to its own factory, so compile memory stays that
of the largest function.  Factories are memoized by their generated
source: images loaded from the same program share one compile, and
every image binds its own exit descriptors.  The function table depends
on the image, the layout, the variant, whether stores report to a
tracer and the block starts resumes added, and on nothing else;
:func:`compiled_image` caches it per image.
:meth:`CompiledImage.table` binds it to one machine.
"""

from __future__ import annotations

import contextlib
import functools
import weakref
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.machine import isa
from repro.machine.layout import MemoryLayout

#: Exit kinds (first item of an exit descriptor).  ``(CALL, callee,
#: dest_reg, ret_pc, callee index, frame size, entry pc)``,
#: ``(CALLB, builtin, dest_reg, ret_pc)``,
#: ``(RET,)``, ``(RET, function index)`` (a watched function that has
#: exit hooks), ``(HALT,)``, ``(HANDOVER, pc)``, ``(STEP, pc)`` and
#: ``(CHECKPOINT, span)``.
CALL, CALLB, RET, HALT = isa.CALL, isa.CALLB, isa.RET, isa.HALT
HANDOVER, STEP, CHECKPOINT = -1, -2, -3
#: The one ``(RET,)`` descriptor: a direct call tests its callee's exit
#: against it by identity.
RET_EXIT = (RET,)
#: The slots of ``Cpu.miss_paths`` the watched functions read: a ``CHK``,
#: a ``TRAP`` and an ``ST`` to a write-protected page.
CHECK_MISS, TRAP_MISS, FAULT_MISS = 0, 1, 2

_BINARY = {
    isa.ADD: "+", isa.SUB: "-", isa.MUL: "*",
    isa.FADD: "+", isa.FSUB: "-", isa.FMUL: "*",
    isa.AND: "&", isa.OR: "|", isa.XOR: "^",
    isa.SHL: "<<", isa.SHR: ">>",
}
_COMPARE = {
    isa.EQ: "==", isa.NE: "!=", isa.LT: "<",
    isa.LE: "<=", isa.GT: ">", isa.GE: ">=",
}
_UNARY = {
    isa.NEG: "-{}", isa.FNEG: "-{}", isa.NOT: "0 if {} else 1",
    isa.BNOT: "~{}", isa.I2F: "float({})", isa.F2I: "int({})",
}
#: Step terminators: the driver executes them one at a time, or (watched
#: variant) the function runs them inline.
_STEPS = frozenset({isa.CHK, isa.TRAP})
#: Opcodes that end a block; the instruction after one starts a block.
_TERMINATORS = frozenset({isa.JMP, isa.BF, isa.BT, CALL, CALLB, RET, HALT}) | _STEPS
#: Loops nested deeper than this share their enclosing loop's ``while``
#: (Python allows 20 nested loop statements and 100 indentation levels).
_MAX_LOOP_DEPTH = 8
#: A direct call made with this many frames on the stack leaves to the
#: driver instead, which bounds the Python recursion of direct calls.
MAX_DIRECT_DEPTH = 64


def _is_int(value) -> bool:
    return type(value) is int


def _lit(value: int) -> str:
    return f"({value})" if value < 0 else str(value)


def _plus(name: str, value: int) -> str:
    return f"{name} + {value}" if value else name


def _minus(name: str, value: int) -> str:
    return f"{name} - {value}" if value else name


def _is_reg(value, n_regs: int) -> bool:
    return type(value) is int and 0 <= value < n_regs


def _supported(code: Sequence, pc: int, func, functions) -> bool:
    """True if the compiler may emit ``code[pc]`` (inside ``func``)."""
    instr = code[pc]
    if type(instr) is not tuple or not instr:
        return False
    op, args, n = instr[0], instr[1:], func.n_regs
    reg = lambda r: _is_reg(r, n)  # noqa: E731
    inside = lambda t: _is_int(t) and func.entry_pc <= t < func.end_pc  # noqa: E731
    if op == isa.LDI:
        return len(args) == 2 and reg(args[0])
    if op in (isa.MOV, isa.LEAF) or op in _UNARY:
        if len(args) != 2:
            return False
        return reg(args[0]) and (_is_int(args[1]) if op == isa.LEAF else reg(args[1]))
    if op in _BINARY or op in _COMPARE or op in (isa.DIV, isa.MOD, isa.FDIV):
        return len(args) == 3 and all(reg(r) for r in args)
    if op == isa.LD:
        return len(args) == 3 and reg(args[0]) and reg(args[1]) and _is_int(args[2])
    if op in (isa.ST, isa.TRAP):
        return len(args) == 3 and reg(args[0]) and _is_int(args[1]) and reg(args[2])
    if op == isa.CHK:
        return len(args) == 2 and reg(args[0]) and _is_int(args[1])
    if op == isa.JMP:
        return len(args) == 1 and inside(args[0])
    if op in (isa.BF, isa.BT):
        return len(args) == 2 and reg(args[0]) and inside(args[1]) and inside(pc + 1)
    if op in (CALL, CALLB):
        if len(args) != 3 or not _is_int(args[0]) or args[0] < 0:
            return False
        target, dest, arg_regs = args
        if not (dest is None or reg(dest)) or type(arg_regs) not in (tuple, list):
            return False
        if not all(reg(r) for r in arg_regs) or not inside(pc + 1):
            return False
        if op == CALLB:
            return True
        if target >= len(functions):
            return False
        callee = functions[target]
        return len(arg_regs) <= callee.n_regs and callee.entry_pc < callee.end_pc
    if op == RET:
        return len(args) == 1 and (args[0] is None or reg(args[0]))
    if op in (isa.NOP, HALT):
        return not args
    return False


class _Block:
    """One basic block before code generation."""

    __slots__ = ("start", "body", "term_pc", "next_pc", "handover", "direct")

    def __init__(self, start):
        self.start = start
        #: Program counters of the straight-line instructions.
        self.body: List[int] = []
        #: Program counter of the terminating instruction, if any.
        self.term_pc: Optional[int] = None
        #: Successor pc of a block that falls through into a leader.
        self.next_pc: Optional[int] = None
        #: Hand over to the reference loop at this pc after the body.
        self.handover: Optional[int] = None
        #: The block's terminator runs inside the function and goes on at
        #: ``term_pc + 1``: a direct call, or an inline step.
        self.direct = False

    def successors(self, code) -> List[int]:
        """The block starts control can reach from this block without
        leaving the function."""
        if self.next_pc is not None:
            return [self.next_pc]
        if self.term_pc is None:
            return []
        instr = code[self.term_pc]
        if instr[0] == isa.JMP:
            return [instr[1]]
        if instr[0] in (isa.BF, isa.BT):
            return [instr[2], self.term_pc + 1]
        if self.direct:
            return [self.term_pc + 1]
        return []


class _Loop:
    """A range of block starts ``[lo, hi]`` that becomes one ``while``."""

    __slots__ = ("lo", "hi", "items")

    def __init__(self, lo: int, hi: int) -> None:
        self.lo, self.hi = lo, hi
        #: Its blocks and inner loops, in program order.
        self.items: List[object] = []


def _loop_ranges(blocks: Dict[int, _Block], code) -> List[Tuple[int, int]]:
    """Block-start ranges closed by backward jumps, merged until any two
    are nested or disjoint."""
    ranges = {(target, start)
              for start, block in blocks.items()
              for target in block.successors(code) if target <= start}
    merged = True
    while merged:
        merged = False
        for x in ranges:
            for y in ranges:
                if x[0] < y[0] <= x[1] < y[1]:
                    ranges -= {x, y}
                    ranges.add((x[0], y[1]))
                    merged = True
                    break
            if merged:
                break
    return sorted(ranges, key=lambda r: (r[0], -r[1]))


def _reaching(blocks: Dict[int, _Block], code,
              assigned: Dict[int, set]) -> Dict[int, set]:
    """Per block start, the union of ``assigned`` over the blocks with a
    path to it (itself included when it is on a cycle).  Only jumps,
    fall-throughs, direct calls and inline steps are paths: after a
    driver CALL, a CALLB or a driver step the driver re-enters with the
    registers reloaded from ``R``."""
    preds: Dict[int, List[int]] = {start: [] for start in blocks}
    for start, block in blocks.items():
        for target in block.successors(code):
            preds[target].append(start)
    reaching = {}
    for start in blocks:
        seen: set = set()
        stack = list(preds[start])
        while stack:
            block = stack.pop()
            if block not in seen:
                seen.add(block)
                stack.extend(preds[block])
        reaching[start] = set().union(*(assigned[block] for block in seen))
    return reaching


def _nest(blocks: Dict[int, _Block], code) -> _Loop:
    """The function's blocks as a tree of loops: the root spans them all,
    and each loop holds its blocks and inner loops in program order."""
    starts = sorted(blocks)
    root = _Loop(starts[0], starts[-1])
    heads: Dict[int, List[int]] = {}
    for lo, hi in _loop_ranges(blocks, code):
        heads.setdefault(lo, []).append(hi)
    open_loops = [root]
    for start in starts:
        while start > open_loops[-1].hi:
            open_loops.pop()
        for hi in heads.get(start, ()):
            if len(open_loops) <= _MAX_LOOP_DEPTH:
                loop = _Loop(start, hi)
                open_loops[-1].items.append(loop)
                open_loops.append(loop)
        open_loops[-1].items.append(blocks[start])
    return root


class _FunctionWriter:
    """Generates the Python source of one function."""

    def __init__(self, compiler: "_Compiler", func, blocks: Dict[int, _Block],
                 traced: bool) -> None:
        self.c = compiler
        self.func = func
        self.blocks = blocks
        self.traced = traced
        self.code = compiler.code
        self.lines: List[str] = []
        self.constants: List[object] = []
        #: Exit descriptors, a CALL's callee as its function index.
        self.exits: List[tuple] = []
        self._exit_names: Dict[tuple, str] = {}
        cost = isa.CYCLE_COST
        self.sizes = {}
        for start, block in blocks.items():
            pcs = block.body + ([block.term_pc] if block.term_pc is not None else [])
            self.sizes[start] = (len(pcs), sum(cost[self.code[pc][0]] for pc in pcs),
                                 sum(self.code[pc][0] == isa.ST for pc in pcs))
        #: The function's instruction count: no path without a backward
        #: jump runs more.
        self.span = max(1, sum(size[0] for size in self.sizes.values()))
        assigned = {start: {self.code[pc][1] for pc in block.body
                            if self.code[pc][0] not in (isa.ST, isa.NOP)}
                    for start, block in blocks.items()}
        calls = {start: self.code[block.term_pc] for start, block in blocks.items()
                 if block.direct and self.code[block.term_pc][0] == CALL}
        for start, instr in calls.items():
            if instr[2] is not None:
                assigned[start].add(instr[2])
        #: Callee indexes of the direct calls.
        self.callees = sorted({instr[1] for instr in calls.values()})
        #: Every register the function assigns.
        self.assigned = set().union(*assigned.values())
        #: Per block, the registers the blocks that can reach it within
        #: one invocation assign: the ones whose local may differ from
        #: ``R`` when control is at its start.
        self.before = _reaching(blocks, self.code, assigned)
        self.checkpoint = self.exit((CHECKPOINT, self.span))
        #: Indentation of the next emitted line.
        self.depth = 0
        #: Per block: the registers it holds as constants, reg ->
        #: ("c", literal, int value or None) | ("f", frame offset) ...
        self.cache: Dict[int, tuple] = {}
        #: ... the instructions, cycles and stores it has run so far, and
        #: the registers that may differ from ``R`` (every exit but RET
        #: writes them back).
        self.done = (0, 0, 0)
        self.dirty: set = set()

    # -- emission ----------------------------------------------------------

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.depth + line)

    def exit(self, descriptor: tuple) -> str:
        name = self._exit_names.get(descriptor)
        if name is None:
            name = self._exit_names[descriptor] = f"E{len(self.exits)}"
            self.exits.append(descriptor)
        return name

    def constant(self, value) -> str:
        self.constants.append(value)
        return f"K{len(self.constants) - 1}"

    # -- registers ---------------------------------------------------------

    def read(self, r: int) -> str:
        entry = self.cache.get(r)
        if entry is None:
            return f"r{r}"
        if entry[0] == "f":
            return f"(fp + {_lit(entry[1])})" if entry[1] else "fp"
        return entry[1]

    def assign(self, r: int, expr: str) -> None:
        self.emit(f"r{r} = {expr}")
        self.cache.pop(r, None)

    def materialize(self) -> None:
        """Give every register the block tracks as a constant its local."""
        for r in sorted(self.cache):
            self.emit(f"r{r} = {self.read(r)}")
        self.cache.clear()

    def writeback(self) -> None:
        for r in sorted(self.dirty):
            self.emit(f"R[{r}] = {self.read(r)}")

    def leave(self, descriptor: tuple, counts: Tuple[int, int, int], value: str = "None",
              writeback: bool = True) -> None:
        """Return to the driver through ``descriptor``, having run
        ``counts`` more instructions, cycles and stores of this block."""
        if writeback:
            self.writeback()
        n, c, s = counts
        self.emit(f"return {self.exit(descriptor)}, {_plus('n', n)}, "
                  f"{_plus('c', c)}, {_plus('s', s)}, {value}")

    def guard(self, conditions: List[str], descriptor: tuple,
              counts: Tuple[int, int, int]) -> None:
        """Leave through ``descriptor`` when any of ``conditions`` holds."""
        if not conditions:
            return
        self.emit(f"if {' or '.join(conditions)}:")
        self.depth += 1
        self.leave(descriptor, counts)
        self.depth -= 1

    # -- instructions --------------------------------------------------------

    def address(self, base: int, offset: int) -> Tuple[str, str, List[str]]:
        """``(word index expr, byte address expr, guard)`` of
        ``[base + offset]``; the guard is the alignment/range condition
        when it is not provable, else empty."""
        entry = self.cache.get(base)
        c = self.c
        if entry is not None and entry[0] == "f" and c.frame_ok(self.func, entry[1] + offset):
            byte = entry[1] + offset
            word = byte >> 2
            return _plus("fw", word), _plus("fp", byte), []
        if entry is not None and entry[0] == "c" and entry[2] is not None:
            byte = entry[2] + offset
            if not byte & 3 and 0 <= byte < c.memory_size:
                return str(byte >> 2), str(byte), []
        address = self.read(base)
        if offset or entry is not None:
            self.emit(f"a = {address} + {_lit(offset)}" if offset else f"a = {address}")
            address = "a"
        return f"{address} >> 2", address, [f"{address} & {_lit(c.bad_address_mask)}"]

    def instruction(self, pc: int) -> None:
        instr = self.code[pc]
        op = instr[0]
        read = self.read
        if op == isa.LDI:
            value = instr[2]
            if _is_int(value):
                self.cache[instr[1]] = ("c", _lit(value), value)
            else:
                self.cache[instr[1]] = ("c", self.constant(value), None)
        elif op == isa.LEAF:
            self.cache[instr[1]] = ("f", instr[2])
        elif op == isa.MOV:
            src = self.cache.get(instr[2])
            if src is not None:
                self.cache[instr[1]] = src
            elif instr[1] != instr[2]:
                self.assign(instr[1], read(instr[2]))
        elif op == isa.LD:
            word, _, check = self.address(instr[2], instr[3])
            self.guard(check, (HANDOVER, pc), self.done)
            self.assign(instr[1], f"w[{word}]")
        elif op == isa.ST:
            word, byte, check = self.address(instr[1], instr[2])
            if self.c.watched:
                self.watched_store(pc, word, byte, check, read(instr[3]))
            else:
                self.guard(check, (HANDOVER, pc), self.done)
                self.write(word, byte, read(instr[3]))
        elif op in _BINARY:
            self.assign(instr[1], f"{read(instr[2])} {_BINARY[op]} {read(instr[3])}")
        elif op in _COMPARE:
            x, y = read(instr[2]), read(instr[3])
            self.assign(instr[1], f"1 if {x} {_COMPARE[op]} {y} else 0")
        elif op in (isa.DIV, isa.MOD):
            x, y = read(instr[2]), read(instr[3])
            divisor = self.cache.get(instr[3])
            # A nonzero int constant divisor cannot raise.
            if self.dirty and not (divisor and divisor[0] == "c" and divisor[2]):
                # cdiv/cmod raise just below; leave R as _loop does
                self.emit(f"if {y} == 0:")
                self.depth += 1
                self.writeback()
                self.depth -= 1
            self.assign(instr[1], f"{'cdiv' if op == isa.DIV else 'cmod'}({x}, {y})")
        elif op == isa.FDIV:
            x, y = read(instr[2]), read(instr[3])
            self.guard([f"{y} == 0"], (HANDOVER, pc), self.done)
            self.assign(instr[1], f"{x} / {y}")
        elif op in _UNARY:
            self.assign(instr[1], _UNARY[op].format(read(instr[2])))
        # NOP: nothing to do.
        if op not in (isa.ST, isa.NOP):
            self.dirty.add(instr[1])
        n, c, s = self.done
        self.done = (n + 1, c + isa.CYCLE_COST[op], s + (op == isa.ST))

    def write(self, word: str, byte: str, value: str) -> None:
        self.emit(f"w[{word}] = {value}")
        if self.traced:
            self.emit(f"wr({byte})")

    def watched_store(self, pc: int, word: str, byte: str, check: List[str],
                      value: str) -> None:
        """The ``ST`` at ``pc`` in the watched variant: a bad address
        leaves as a step of this store, whose driver raises the fault; a
        store to a protected page or a watched word runs
        :meth:`Cpu._store <repro.machine.cpu.Cpu._store>` in place."""
        n, c, s = self.done
        counted = (n + 1, c + isa.CYCLE_COST[isa.ST], s)
        self.emit(f"if {' or '.join(check + [f'{byte} >> S in P', f'{word} in MW'])}:")
        self.depth += 1
        self.guard(check, (STEP, pc), counted)
        with self.unless_miss(FAULT_MISS, pc, word, byte, [], value):
            self.step(f"store({pc}, {byte}, {value})", counted, stores=1)
        self.depth -= 1
        self.emit("else:")
        self.depth += 1
        self.write(word, byte, value)
        self.depth -= 1

    @contextlib.contextmanager
    def unless_miss(self, slot: int, pc: int, word: str, byte: str,
                    conditions: List[str], value: Optional[str]) -> Iterator[None]:
        """Put what the block emits inside the ``with`` (the event's full
        path) under ``else:`` of an in-place monitor miss at ``pc``, in the
        untraced watched variant.  The event is a miss when
        ``conditions`` (the address check) hold and the description in
        ``Cpu.miss_paths[slot]`` says so (see
        :class:`~repro.machine.cpu.MissPath`); the miss
        makes the store of ``value`` unless it is ``None``, charges and
        counts what the full path would, and sets the CPU's trap and
        resume pcs.  The traced variant emits the full path alone."""
        if self.traced:
            yield
            return
        hook = "check_hook" if slot == CHECK_MISS else "trap_sink"
        test = ["m is not None", f"C.{hook} is m.hook", *conditions,
                f"{byte} not in m.words"]
        if slot == FAULT_MISS:
            test.append(f"{byte} >> S in m.pages")
        test.append(f"{word} not in MW")
        self.emit(f"m = MP[{slot}]")
        self.emit(f"if {' and '.join(test)}:")
        self.depth += 1
        if value is not None:
            self.emit(f"w[{word}] = {value}")
        if slot == TRAP_MISS:
            # The emulated store; the block counts an ST's own.
            self.emit("s += 1")
        self.emit("c += m.cycles")
        self.emit(f"C._trap_pc = {pc}")
        self.emit(f"C._resume_pc = {pc + 1}")
        self.emit("m.count()")
        self.depth -= 1
        self.emit("else:")
        self.depth += 1
        yield
        self.depth -= 1

    def step(self, call: str, counted: Tuple[int, int, int], stores: int = 0) -> None:
        """Emit ``call``, a reference-semantics method of the CPU, with
        the registers written back and the CPU's counters exact: the
        locals plus ``counted`` (the block's instructions, cycles and
        stores before this point, the step's instruction included and
        its store not).  Afterwards the locals take in the cycles and
        stores the handler added; the block still adds ``stores`` (the
        step's own store) at its end."""
        self.writeback()
        n, c, s = counted
        self.emit(f"C.instructions = I0 + {_plus('n', n)}")
        self.emit(f"C.cycles = C0 + {_plus('c', c)}")
        self.emit(f"C.stores = S0 + {_plus('s', s)}")
        self.emit(call)
        self.emit(f"c = C.cycles - {_minus('C0', c)}")
        self.emit(f"s = C.stores - {_minus('S0', s + stores)}")

    # -- control flow ----------------------------------------------------------

    def goto(self, target: int, start: int, loop: _Loop) -> None:
        """Continue at block ``target`` from the block at ``start``."""
        if not loop.lo <= target <= loop.hi:
            self.emit(f"pc = {target}")
            self.emit("break")
        elif target > start:
            self.emit(f"pc = {target}")
        else:
            self.emit("if n > lim:")
            self.depth += 1
            self.leave_checkpoint(str(target))
            self.depth -= 1
            self.emit(f"pc = {target}")
            self.emit("continue")

    def leave_checkpoint(self, resume: str) -> None:
        self.writeback()
        self.emit(f"return {self.checkpoint}, n, c, s, {resume}")

    def block(self, block: _Block, loop: _Loop) -> None:
        code, start = self.code, block.start
        self.emit(f"if pc == {start}:")
        self.depth += 1
        self.done = (0, 0, 0)
        self.dirty = set(self.before[start])
        for pc in block.body:
            self.instruction(pc)
        size = self.sizes[start]
        if block.handover is not None:
            self.leave((HANDOVER, block.handover), size)
        elif block.term_pc is None:
            self.count(size)
            self.materialize()
            self.goto(block.next_pc, start, loop)
        else:
            pc = block.term_pc
            instr = code[pc]
            op = instr[0]
            if op == isa.JMP:
                self.count(size)
                self.materialize()
                self.goto(instr[1], start, loop)
            elif op in (isa.BF, isa.BT):
                cond = self.read(instr[1])
                self.count(size)
                self.materialize()
                self.emit(f"if {'not ' if op == isa.BF else ''}{cond}:")
                self.depth += 1
                self.goto(instr[2], start, loop)
                self.depth -= 1
                self.emit("else:")
                self.depth += 1
                self.goto(pc + 1, start, loop)
                self.depth -= 1
            elif block.direct and op == CALL:
                self.direct_call(pc, size, start, loop)
            elif block.direct:
                self.inline_step(pc, size, start, loop)
            elif op in (CALL, CALLB):
                values = [self.read(r) for r in instr[3]]
                if op == CALL:
                    values += ["0"] * (self.c.functions[instr[1]].n_regs - len(values))
                self.leave((op, instr[1], instr[2], pc + 1), size,
                           f"[{', '.join(values)}]")
            elif op == RET:
                value = self.read(instr[1]) if instr[1] is not None else "None"
                if self.c.watched:
                    # The driver pops the frame and runs the exit hooks.
                    index = self.func.index
                    self.emit(f"if {index} in XH and XH[{index}]:")
                    self.depth += 1
                    self.leave((RET, index), size, value, writeback=False)
                    self.depth -= 1
                self.leave(RET_EXIT, size, value, writeback=False)
            elif op == HALT:
                self.leave((HALT,), size)
            else:  # a step, whose instruction the driver runs on R
                self.leave((STEP, pc), size)
        self.cache = {}
        self.depth -= 1

    def inline_step(self, pc: int, size: Tuple[int, int, int], start: int,
                    loop: _Loop) -> None:
        """The CHK or TRAP at ``pc`` (watched variant, not the function's
        last instruction) run in place through :meth:`Cpu._check
        <repro.machine.cpu.Cpu._check>` or :meth:`Cpu._trap
        <repro.machine.cpu.Cpu._trap>`; control goes on at ``pc + 1``."""
        instr = self.code[pc]
        chk = instr[0] == isa.CHK
        value = None if chk else self.read(instr[3])
        self.count(size)
        word, address, check = self.address(instr[1], instr[2])
        with self.unless_miss(CHECK_MISS if chk else TRAP_MISS, pc, word, address,
                              [f"not {bad}" for bad in check], value):
            self.step(f"check({pc}, {address})" if chk
                      else f"trap({pc}, {address}, {value})", (0, 0, 0))
        self.materialize()
        self.goto(pc + 1, start, loop)

    def direct_call(self, pc: int, size: Tuple[int, int, int], start: int,
                    loop: _Loop) -> None:
        """The CALL at ``pc`` as a Python call of the callee's ``run``.
        It leaves through the driver's CALL exit instead when the frame
        would overflow the stack, :data:`MAX_DIRECT_DEPTH` frames are on
        it or (watched variant) the callee has enter hooks; any exit of
        the callee but RET goes on to the driver.  In the watched variant
        the function writes its registers back before the call, and the
        callee's counter base (``C._base``) is its exact counters there."""
        _, index, dest, arg_regs = self.code[pc]
        callee = self.c.functions[index]
        frame_size, ret = callee.frame_size, pc + 1
        values = [self.read(r) for r in arg_regs]
        values += ["0"] * (callee.n_regs - len(values))
        self.count(size)
        self.emit(f"A = [{', '.join(values)}]")
        self.emit(f"sp = C.sp - {frame_size}")
        self.emit("d = len(FR)")
        leave = f"sp < {_lit(self.c.stack_limit)} or d >= {MAX_DIRECT_DEPTH}"
        if self.c.watched:
            leave += f" or {index} in EH and EH[{index}]"
        self.emit(f"if {leave}:")
        self.depth += 1
        self.leave((CALL, index, dest, ret), (0, 0, 0), "A")
        self.depth -= 1
        if self.c.watched:
            # Hooks run inside the callee: they see R current.
            self.writeback()
            self.dirty = set()
            self.emit("C._base = I0 + n, C0 + c, S0 + s")
        self.emit("f = new(Frame)")
        self.emit(f"f.func, f.regs, f.ret_pc, f.saved_fp, f.dest_reg = Fn{index}, A, {ret}, fp, {dest}")
        self.emit("push(f)")
        self.emit("if d >= M[0]:")
        self.emit("    M[0] = d + 1")
        self.emit("C.sp = C.fp = sp")
        if self.traced:
            self.emit(f"wr(~(sp << SH | EK{index}))")
        call = f"x, n2, c2, s2, v = T[{index}](A, sp, sp >> 2, {callee.entry_pc}, left - n)"
        if self.dirty:
            # An error in the callee leaves R as the reference loop does.
            self.emit("try:")
            self.emit(f"    {call}")
            self.emit("except BaseException:")
            self.depth += 1
            self.writeback()
            self.emit("raise")
            self.depth -= 1
        else:
            self.emit(call)
        self.emit("n += n2")
        self.emit("c += c2")
        self.emit("s += s2")
        self.emit(f"if x is not {self.exit(RET_EXIT)}:")
        self.depth += 1
        self.writeback()
        self.emit("return x, n, c, s, v")
        self.depth -= 1
        self.emit("pop()")
        if self.traced:
            self.emit(f"wr(~(sp << SH | XK{index}))")
        self.emit(f"C.sp = sp + {frame_size}")
        self.emit("C.fp = fp")
        if dest is not None:
            self.assign(dest, "v")
            self.dirty.add(dest)
        self.emit("if n > lim:")
        self.depth += 1
        self.leave_checkpoint(str(ret))
        self.depth -= 1
        self.materialize()
        self.goto(ret, start, loop)

    def count(self, size: Tuple[int, int, int]) -> None:
        n, c, s = size
        self.emit(f"n += {n}")
        self.emit(f"c += {c}")
        if s:
            self.emit(f"s += {s}")

    def items(self, loop: _Loop) -> None:
        """Emit ``loop``'s items in program order: its head first, where
        a ``continue`` lands."""
        for item in loop.items:
            self.item(item, loop)

    def item(self, item, loop: _Loop) -> None:
        if not isinstance(item, _Loop):
            self.block(item, loop)
            return
        self.emit(f"if pc <= {item.hi}:")
        self.depth += 1
        self.emit("while True:")
        self.depth += 1
        self.items(item)
        # Reached only with pc behind the loop's blocks or after it.
        self.emit(f"if pc < {item.lo} or pc > {item.hi}:")
        self.emit("    break")
        self.emit("if n > lim:")
        self.depth += 1
        self.dirty = self.assigned
        self.leave_checkpoint("pc")
        self.depth -= 3

    def source(self) -> str:
        root = _nest(self.blocks, self.code)
        self.depth = 2
        self.emit(f"if left < {self.span}:")
        self.emit(f"    return {self.checkpoint}, 0, 0, 0, pc")
        self.emit(f"lim = left - {self.span}")
        if self.c.watched:
            self.emit("I0, C0, S0 = C._base")
        n_regs = self.func.n_regs
        if n_regs:
            self.emit(f"{', '.join(f'r{r}' for r in range(n_regs))}, = R")
        self.emit("n = c = s = 0")
        self.emit("while True:")
        self.depth += 1
        self.items(root)
        self.emit("if n > lim:")
        self.depth += 1
        self.dirty = self.assigned
        self.leave_checkpoint("pc")
        body = self.lines
        self.lines = []
        self.depth = 1
        for i in range(len(self.constants)):
            self.emit(f"K{i} = K[{i}]")
        for i in range(len(self.exits)):
            self.emit(f"E{i} = E[{i}]")
        if self.callees or self.c.watched:
            self.emit("C, FR, Frame, M, FN, TR = L")
        if self.callees:
            self.emit("push, pop, new = FR.append, FR.pop, object.__new__")
            if self.traced:
                self.emit("SH = TR.frame_shift")
            for index in self.callees:
                self.emit(f"Fn{index} = FN[{index}]")
                if self.traced:
                    self.emit(f"EK{index}, XK{index} = TR.enter_keys[{index}], TR.exit_keys[{index}]")
        if self.c.watched:
            self.emit("store, check, trap = C._store, C._check, C._trap")
            self.emit("EH, XH = C.enter_hooks, C.exit_hooks")
            if not self.traced:
                self.emit("MP = C.miss_paths")
        self.emit("def run(R, fp, fw, pc, left):")
        return "\n".join(
            ["def make(w, wr, cdiv, cmod, K, E, P, MW, S, T, L):"] + self.lines + body
            + ["    return run"]
        ) + "\n"


class _Compiler:
    """Splits an image into blocks and emits one factory per function."""

    def __init__(self, image, layout: MemoryLayout, watched: bool) -> None:
        self.code = image.code
        self.functions = image.functions
        self.watched = watched
        self.memory_size = layout.memory_size
        self.stack_limit = layout.stack_limit
        #: Nonzero for any address that is misaligned or outside memory
        #: (``memory_size`` is a power of two; see MemoryLayout).
        self.bad_address_mask = -layout.memory_size | 3
        # Frame-relative folding needs every frame pointer word-aligned
        # and every frame inside memory: stack_top and frame sizes are
        # multiples of 4, and stack_limit <= fp <= fp + frame_size <= stack_top.
        self._frames_aligned = all(
            _is_int(f.frame_size) and f.frame_size >= 0 and not f.frame_size & 3
            for f in self.functions
        ) and not layout.stack_top & 3 and layout.stack_limit >= 0
        #: function index -> its blocks, by start pc
        self.blocks: Dict[int, Dict[int, _Block]] = {}
        #: function index -> block starts added by :meth:`add_start`
        self._added: Dict[int, set] = {}
        for func in self.functions:
            self._split(func)

    def frame_ok(self, func, byte: int) -> bool:
        """Is ``fp + byte`` always aligned and inside ``func``'s frame?"""
        return self._frames_aligned and not byte & 3 and 0 <= byte and byte + 4 <= func.frame_size

    def _direct(self, pc: int, func) -> bool:
        """Does the terminator at ``pc`` go on at ``pc + 1`` inside
        ``func``?  A CALL does, as a direct call, when the callee has a
        plain int frame size and entry pc to write into source; a CHK or
        TRAP does, as an inline step, in the watched variant unless it is
        the function's last instruction."""
        op = self.code[pc][0]
        if op == CALL:
            callee = self.functions[self.code[pc][1]]
            return (_is_int(callee.frame_size) and callee.frame_size >= 0
                    and _is_int(callee.entry_pc))
        return self.watched and op in _STEPS and pc + 1 < func.end_pc

    def _split(self, func) -> None:
        code, functions = self.code, self.functions
        span = range(func.entry_pc, func.end_pc)
        ok = {pc: _supported(code, pc, func, functions) for pc in span}
        leaders = {func.entry_pc} | self._added.get(func.index, set())
        for pc in span:
            if not ok[pc]:
                leaders.add(pc)
                continue
            op = code[pc][0]
            if op == isa.JMP:
                leaders.add(code[pc][1])
            elif op in (isa.BF, isa.BT):
                leaders.add(code[pc][2])
            if op in _TERMINATORS and pc + 1 < func.end_pc:
                leaders.add(pc + 1)
        own = self.blocks[func.index] = {}
        for start in sorted(leaders):
            if start >= func.end_pc:
                continue
            block = own[start] = _Block(start)
            pc = start
            while True:
                if not ok[pc]:
                    block.handover = pc
                    break
                if code[pc][0] in _TERMINATORS:
                    block.term_pc = pc
                    block.direct = self._direct(pc, func)
                    break
                block.body.append(pc)
                pc += 1
                if pc == func.end_pc:
                    block.handover = pc
                    break
                if pc in leaders:
                    block.next_pc = pc
                    break

    def add_start(self, pc: int) -> Optional[int]:
        """Split the block of a compiled function that holds ``pc`` so
        that a block starts there; the function's index, or ``None`` when
        no function with blocks holds ``pc``."""
        for func in self.functions:
            if func.entry_pc < pc < func.end_pc and self.blocks.get(func.index):
                self._added.setdefault(func.index, set()).add(pc)
                self._split(func)
                return func.index
        return None

    def source(self, index: int, traced: bool) -> Tuple[str, tuple, List[tuple]]:
        """Function ``index``'s factory source, its constants and its exit
        descriptors (a CALL's callee as its index)."""
        writer = _FunctionWriter(self, self.functions[index], self.blocks[index], traced)
        source = writer.source()
        return source, tuple(writer.constants), writer.exits

    def sources(self, traced: bool) -> Iterator[Tuple[int, str, tuple, List[tuple]]]:
        """:meth:`source` of every function with blocks, with its index."""
        for index, own in self.blocks.items():
            if own:
                yield (index, *self.source(index, traced))


def _bind(descriptor: tuple, functions) -> tuple:
    """An exit descriptor as the driver reads it: a CALL's callee index
    becomes ``callee, dest_reg, ret_pc, index, frame_size, entry_pc``."""
    if descriptor[0] != CALL:
        return descriptor
    _, index, dest_reg, ret_pc = descriptor
    callee = functions[index]
    return (CALL, callee, dest_reg, ret_pc, index, callee.frame_size, callee.entry_pc)


@functools.lru_cache(maxsize=64)
def _factory(source: str) -> Callable:
    """The ``make`` function ``source`` defines (memoized by source).

    The bound holds the factories of a few workloads' sessions (each
    workload has at most 21 functions) and no more: cached code lives
    for the whole process.
    """
    namespace: Dict[str, object] = {}
    exec(compile(source, "<compiled function>", "exec"), namespace)
    return namespace["make"]


class CallLink(NamedTuple):
    """What direct calls change besides memory and the store hook: they
    keep these as the driver's CALL and RET do."""

    #: The CPU, whose ``sp`` and ``fp`` they set (and, watched variant,
    #: whose counters, counter base, step methods and hooks they use).
    cpu: object
    #: Its frame list, on which they push and pop frames.
    frames: list
    #: The frame class; a frame is made with ``object.__new__``.
    frame_class: type
    #: A one-item list, the largest ``len(frames)`` they reached.
    depth_mark: list
    #: The image's functions, each new frame's ``func``.
    functions: Sequence
    #: The tracer whose ``frame_shift``, ``enter_keys`` and ``exit_keys``
    #: encode the frame records they append, or ``None``.
    tracer: object


class CompiledImage:
    """One variant of the function table of one image under one layout."""

    def __init__(self, image, layout: MemoryLayout, watched: bool) -> None:
        compiler = _Compiler(image, layout, watched)
        self.n_functions = len(image.functions)
        #: pc -> the index of the function a block starting there belongs
        #: to, ``None`` where no block starts (one slot past the code: a
        #: return address can be the end of it).  A function of the table
        #: can be entered exactly at its own block starts.
        self.starts: List[Optional[int]] = [None] * (len(image.code) + 1)
        for index, own in compiler.blocks.items():
            for start in own:
                self.starts[start] = index
        self._compiler = compiler
        #: traced -> function index -> (factory, constants, exit descriptors)
        self._factories: Dict[bool, Dict[int, Tuple[Callable, tuple, tuple]]] = {}

    def _make(self, index: int, source: str, constants: tuple,
              exits: List[tuple]) -> Tuple[Callable, tuple, tuple]:
        functions = self._compiler.functions
        return _factory(source), constants, tuple(_bind(e, functions) for e in exits)

    def _factories_of(self, traced: bool) -> Dict[int, Tuple[Callable, tuple, tuple]]:
        factories = self._factories.get(traced)
        if factories is None:
            factories = self._factories[traced] = {
                index: self._make(index, *rest)
                for index, *rest in self._compiler.sources(traced)
            }
        return factories

    def add_start(self, pc: int) -> None:
        """Make ``pc`` a block start, if a compiled function holds it, and
        recompile that function.  A segment that resumes after a handler
        raised at a watched store enters there, in the middle of a block.
        ``starts`` becomes a new list: a table bound before keeps the
        starts it was bound with."""
        index = self._compiler.add_start(pc)
        if index is None:
            return
        starts = list(self.starts)
        for start in self._compiler.blocks[index]:
            starts[start] = index
        self.starts = starts
        for traced, factories in self._factories.items():
            factories[index] = self._make(index, *self._compiler.source(index, traced))

    def table(self, words: list, store_hook: Optional[Callable],
              cdiv: Callable, cmod: Callable, protected: set,
              watched_words: set, page_shift: int,
              link: CallLink) -> List[Optional[Callable]]:
        """Function index -> its compiled ``run`` (``None`` for a
        function without code), bound to ``words``, the one-argument
        ``store_hook`` when not ``None``, (watched variant) the live
        protected-page and watched-word sets, and ``link``."""
        table: List[Optional[Callable]] = [None] * self.n_functions
        for index, (make, constants, exits) in self._factories_of(store_hook is not None).items():
            table[index] = make(words, store_hook, cdiv, cmod, constants, exits,
                                protected, watched_words, page_shift, table, link)
        return table


#: image -> {(layout, watched): CompiledImage}
_compiled: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def compiled_image(image, layout: MemoryLayout, watched: bool) -> CompiledImage:
    """The (cached) :class:`CompiledImage` of ``image`` under ``layout``,
    watched or unwatched variant."""
    per_image = _compiled.setdefault(image, {})
    compiled = per_image.get((layout, watched))
    if compiled is None:
        compiled = per_image[(layout, watched)] = CompiledImage(image, layout, watched)
    return compiled
