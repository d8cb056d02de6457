"""Block compiler for the CPU's fast tier.

:meth:`repro.machine.cpu.Cpu._fast_loop` runs every segment that is not
profiled on the functions built here.  Once per loaded image and
variant (at its first fast run, never at import) every function is
split into basic blocks and each block becomes one straight-line Python
function ``block(R, fp, fw)``:

* ``R`` is the frame's register list, ``fp`` its frame pointer and
  ``fw`` the frame pointer in words (``fp >> 2``);
* registers written inside the block live in Python locals and go back
  to ``R`` at the block's end and just before a hand-over, so ``R``
  matches the reference loop's register list at every block boundary;
* ``LDI``/``LEAF`` results are tracked as constants, so a load or store
  through them addresses ``w[const]`` or ``w[fw + const]`` with no
  run-time check when the address is provably aligned and in range;
* a plain block returns its successor's program counter.  A block that
  ends in ``CALL``, ``CALLB`` or ``RET`` returns the callee's register
  list, the builtin's argument list or the return value, and the
  driver performs the transfer described by the block's terminator.
  ``CHK`` and ``TRAP`` end their block too (a *step* terminator): the
  block writes its registers back and the driver executes that one
  instruction with the reference semantics, then continues at the next
  block;
* where the reference loop would do something special (an alignment or
  range fault, a float zero divisor), the block writes its dirty
  registers back and raises :class:`Handover` with the instruction's
  index in the block, so the driver can give the rest of the segment to
  the reference loop at that instruction's boundary, with exact
  counters.  Errors the reference loop raises without writing its
  counters back propagate from the block unchanged, leaving the
  counters of the last write-back, as there.  Before an integer zero
  divisor the block also writes its registers back, so ``R`` is left as
  the reference loop leaves it; Python's own errors (a negative shift
  count, ``int(nan)``) leave the block's register writes in locals;
* instructions the compiler does not take (unknown opcodes, any operand
  that is not a plain ``int`` in range, a branch out of the function,
  falling off a function's end) become hand-over points too, so the
  reference loop executes them.

Each image has two variants of its block table:

* the **unwatched** variant stores with no check beyond alignment and
  range.  It runs when no hook, protected page or monitor register is
  active, which is every phase-1 and bare run;
* the **watched** variant guards every ``ST`` before the write with
  ``a >> S in P or a >> 2 in MW``: ``P`` is the live
  :attr:`PageTable.write_protected <repro.machine.paging.PageTable>`
  set, ``S`` its page shift and ``MW`` the live
  :attr:`MonitorRegisterFile.words
  <repro.machine.monitor_registers.MonitorRegisterFile>` set.  A hit
  raises :class:`Handover` at the store, which the driver turns into a
  one-instruction step.  Every ``ST`` ends its block in this variant, so
  the instruction after a step always starts a block.

Immediates that are not plain ints (floats such as ``inf``, ``-0.0`` or
``nan``, and anything else) reach the generated code through a constants
table, never through their ``repr``; every other operand is checked to
be an ``int`` before it is written into source.

Each function compiles to its own factory, so compile memory stays that
of the largest function.  Factories are memoized by their generated
source: images loaded from the same program share one compile, and
every entry still binds its own image's functions.  The block table
depends on the image, the layout, the variant and whether stores report
to a tracer, and on nothing else; :func:`compiled_image` caches it per
image.
"""

from __future__ import annotations

import functools
import weakref
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.machine import isa
from repro.machine.layout import MemoryLayout


class Handover(Exception):
    """A compiled block stopped before an instruction the driver must
    execute itself; ``args[0]`` is that instruction's index in the
    block."""


#: Terminator kinds (first item of a table entry's terminator tuple).
CALL, CALLB, RET, HALT, HANDOVER, STEP = isa.CALL, isa.CALLB, isa.RET, isa.HALT, -1, -2

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
#: Instructions the driver executes one at a time (step terminators).
_STEPS = frozenset({isa.CHK, isa.TRAP})
#: Opcodes that end a block; the instruction after one starts a block.
_TERMINATORS = frozenset({isa.JMP, isa.BF, isa.BT, CALL, CALLB, RET, HALT}) | _STEPS


def _is_int(value) -> bool:
    return type(value) is int


def _lit(value: int) -> str:
    return f"({value})" if value < 0 else str(value)


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

    __slots__ = ("start", "func", "body", "term_pc", "next_pc", "handover")

    def __init__(self, start, func):
        self.start = start
        self.func = func
        #: Program counters of the straight-line instructions.
        self.body: List[int] = []
        #: Program counter of the terminating instruction, if any.
        self.term_pc: Optional[int] = None
        #: Successor pc of a block that falls through into a leader.
        self.next_pc: Optional[int] = None
        #: Hand over to the reference loop at this pc after the body.
        self.handover: Optional[int] = None


class _Writer:
    """Generates the Python source of one block."""

    def __init__(self, compiler: "_Compiler", block: _Block, traced: bool) -> None:
        self.c = compiler
        self.block = block
        self.traced = traced
        self.lines: List[str] = []
        #: reg -> ("l", local name) | ("c", literal, int value or None) | ("f", offset)
        self.cache: Dict[int, tuple] = {}
        self.dirty: Dict[int, None] = {}

    def emit(self, line: str) -> None:
        self.lines.append(line)

    def read(self, r: int) -> str:
        entry = self.cache.get(r)
        if entry is None:
            return f"R[{r}]"
        if entry[0] == "f":
            return f"(fp + {_lit(entry[1])})" if entry[1] else "fp"
        return entry[1]

    def _set(self, r: int, entry: tuple) -> None:
        self.cache[r] = entry
        self.dirty[r] = None

    def writeback(self) -> List[str]:
        """Store the dirty registers to R."""
        return [f"R[{r}] = {self.read(r)}" for r in sorted(self.dirty)]

    def guard(self, conditions: List[str], k: int) -> None:
        """Hand over at instruction ``k`` when any of ``conditions`` holds."""
        if not conditions:
            return
        self.emit(f"if {' or '.join(conditions)}:")
        for line in self.writeback() + [f"raise H({k})"]:
            self.emit(f"    {line}")

    def assign(self, r: int, expr: str) -> None:
        self.emit(f"r{r} = {expr}")
        self._set(r, ("l", f"r{r}"))

    def address(self, base: int, offset: int) -> Tuple[str, str, List[str]]:
        """``(word index expr, byte address expr, guard)`` of
        ``[base + offset]``; the guard is the alignment/range condition
        when it is not provable, else empty."""
        entry = self.cache.get(base)
        c = self.c
        if entry is not None and entry[0] == "f" and c.frame_ok(self.block.func, entry[1] + offset):
            byte = entry[1] + offset
            word = byte >> 2
            return (f"fw + {word}" if word else "fw"), (f"fp + {byte}" if byte else "fp"), []
        if entry is not None and entry[0] == "c" and entry[2] is not None:
            byte = entry[2] + offset
            if not byte & 3 and 0 <= byte < c.memory_size:
                return str(byte >> 2), str(byte), []
        address = self.read(base)
        if offset or entry is None or entry[0] != "l":
            self.emit(f"a = {address} + {_lit(offset)}" if offset else f"a = {address}")
            address = "a"
        return f"{address} >> 2", address, [f"{address} & {_lit(c.bad_address_mask)}"]

    def instruction(self, instr, k: int) -> None:
        op = instr[0]
        read = self.read
        if op == isa.LDI:
            value = instr[2]
            if _is_int(value):
                self._set(instr[1], ("c", _lit(value), value))
            else:
                self._set(instr[1], ("c", self.c.constant(value), None))
        elif op == isa.LEAF:
            self._set(instr[1], ("f", instr[2]))
        elif op == isa.MOV:
            src = self.cache.get(instr[2])
            if src is not None and src[0] != "l":
                self._set(instr[1], src)
            elif instr[1] != instr[2]:
                self.assign(instr[1], read(instr[2]))
        elif op == isa.LD:
            word, _, check = self.address(instr[2], instr[3])
            self.guard(check, k)
            self.assign(instr[1], f"w[{word}]")
        elif op == isa.ST:
            word, byte, check = self.address(instr[1], instr[2])
            if self.c.watched:
                check += [f"{byte} >> S in P", f"{word} in MW"]
            self.guard(check, k)
            self.emit(f"w[{word}] = {read(instr[3])}")
            if self.traced:
                self.emit(f"wr({byte})")
        elif op in _BINARY:
            self.assign(instr[1], f"{read(instr[2])} {_BINARY[op]} {read(instr[3])}")
        elif op in _COMPARE:
            x, y = read(instr[2]), read(instr[3])
            self.assign(instr[1], f"1 if {x} {_COMPARE[op]} {y} else 0")
        elif op in (isa.DIV, isa.MOD):
            x, y = read(instr[2]), read(instr[3])
            sync = self.writeback()
            if sync:  # cdiv/cmod raise just below; leave R as _loop does
                self.emit(f"if {y} == 0:")
                for line in sync:
                    self.emit(f"    {line}")
            self.assign(instr[1], f"{'cdiv' if op == isa.DIV else 'cmod'}({x}, {y})")
        elif op == isa.FDIV:
            x, y = read(instr[2]), read(instr[3])
            self.guard([f"{y} == 0"], k)
            self.assign(instr[1], f"{x} / {y}")
        elif op in _UNARY:
            self.assign(instr[1], _UNARY[op].format(read(instr[2])))
        # NOP: nothing to do.

    def terminator(self) -> None:
        block = self.block
        if block.handover is not None:
            self.lines += self.writeback()
            self.emit("return None")
            return
        if block.term_pc is None:
            self.lines += self.writeback()
            self.emit(f"return {block.next_pc}")
            return
        instr = self.c.code[block.term_pc]
        op = instr[0]
        if op == isa.JMP:
            self.lines += self.writeback()
            self.emit(f"return {instr[1]}")
        elif op in (isa.BF, isa.BT):
            cond = self.read(instr[1])
            self.lines += self.writeback()
            taken, fall = instr[2], block.term_pc + 1
            negate = "not " if op == isa.BF else ""
            self.emit(f"return {taken} if {negate}{cond} else {fall}")
        elif op in (CALL, CALLB):
            values = [self.read(r) for r in instr[3]]
            self.lines += self.writeback()
            if op == CALL:
                pad = self.c.functions[instr[1]].n_regs - len(values)
                values += ["0"] * pad
            self.emit(f"return [{', '.join(values)}]")
        elif op == RET:
            self.emit(f"return {self.read(instr[1]) if instr[1] is not None else 'None'}")
        else:  # HALT, or a step, whose instruction the driver runs on R
            self.lines += self.writeback()
            self.emit("return None")

    def source(self) -> List[str]:
        code = self.c.code
        for k, pc in enumerate(self.block.body):
            self.instruction(code[pc], k)
        self.terminator()
        return [f"    def b{self.block.start}(R, fp, fw):"] + [
            f"        {line}" for line in self.lines
        ]


class _Compiler:
    """Splits an image into blocks and emits one factory per function."""

    def __init__(self, image, layout: MemoryLayout, watched: bool) -> None:
        self.code = image.code
        self.functions = image.functions
        self.watched = watched
        self.memory_size = layout.memory_size
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
        self.constants: List[object] = []
        #: function index -> its blocks, by start pc
        self.blocks: Dict[int, Dict[int, _Block]] = {}
        self._split()

    def frame_ok(self, func, byte: int) -> bool:
        """Is ``fp + byte`` always aligned and inside ``func``'s frame?"""
        return self._frames_aligned and not byte & 3 and 0 <= byte and byte + 4 <= func.frame_size

    def constant(self, value) -> str:
        self.constants.append(value)
        return f"K{len(self.constants) - 1}"

    # -- blocks ----------------------------------------------------------

    def _split(self) -> None:
        code, functions = self.code, self.functions
        ends_block = _TERMINATORS | {isa.ST} if self.watched else _TERMINATORS
        for func in functions:
            span = range(func.entry_pc, func.end_pc)
            ok = {pc: _supported(code, pc, func, functions) for pc in span}
            leaders = {func.entry_pc}
            for pc in span:
                if not ok[pc]:
                    leaders.add(pc)
                    continue
                op = code[pc][0]
                if op == isa.JMP:
                    leaders.add(code[pc][1])
                elif op in (isa.BF, isa.BT):
                    leaders.add(code[pc][2])
                if op in ends_block and pc + 1 < func.end_pc:
                    leaders.add(pc + 1)
            own = self.blocks[func.index] = {}
            for start in sorted(leaders):
                if start >= func.end_pc:
                    continue
                block = own[start] = _Block(start, func)
                pc = start
                while True:
                    if not ok[pc]:
                        block.handover = pc
                        break
                    if code[pc][0] in _TERMINATORS:
                        block.term_pc = pc
                        break
                    block.body.append(pc)
                    pc += 1
                    if pc == func.end_pc:
                        block.handover = pc
                        break
                    if pc in leaders:
                        block.next_pc = pc
                        break

    # -- output ----------------------------------------------------------

    def sources(self, traced: bool) -> Iterator[Tuple[str, tuple, List[int]]]:
        """Per function with blocks: its factory's source, its constants
        and its block starts, in the order the factory returns them."""
        for own in self.blocks.values():
            if not own:
                continue
            self.constants = []
            starts = sorted(own)
            body: List[str] = []
            for start in starts:
                body += _Writer(self, own[start], traced).source()
            names = ", ".join(f"b{start}" for start in starts)
            unpack = [f"    K{i} = K[{i}]" for i in range(len(self.constants))]
            source = "\n".join(
                ["def make(w, wr, H, cdiv, cmod, K, P, MW, S):"] + unpack + body
                + [f"    return ({names},)"]
            ) + "\n"
            yield source, tuple(self.constants), starts

    def entries(self) -> Dict[int, tuple]:
        """pc -> (instructions, cycles, stores, terminator, cycle prefix,
        store prefix) for every block."""
        code, cost = self.code, isa.CYCLE_COST
        entries = {}
        for own in self.blocks.values():
            for start, block in own.items():
                cycles = stores = 0
                cycle_prefix, store_prefix = [], []
                for pc in block.body:
                    cycle_prefix.append(cycles)
                    store_prefix.append(stores)
                    op = code[pc][0]
                    cycles += cost[op]
                    stores += op == isa.ST
                n = len(block.body)
                term: Optional[tuple] = None
                if block.handover is not None:
                    term = (HANDOVER, block.handover)
                elif block.term_pc is not None:
                    instr = code[block.term_pc]
                    op = instr[0]
                    n += 1
                    cycles += cost[op]
                    if op == CALL:
                        term = (CALL, self.functions[instr[1]], instr[2], block.term_pc + 1)
                    elif op == CALLB:
                        term = (CALLB, instr[1], instr[2], block.term_pc + 1)
                    elif op in (RET, HALT):
                        term = (op,)
                    elif op in _STEPS:
                        term = (STEP, block.term_pc)
                entries[start] = (n, cycles, stores, term,
                                  tuple(cycle_prefix), tuple(store_prefix))
        return entries


@functools.lru_cache(maxsize=64)
def _factory(source: str) -> Callable:
    """The ``make`` function ``source`` defines (memoized by source).

    The bound holds the factories of a few workloads' sessions (each
    workload has at most 21 functions) and no more: cached code lives
    for the whole process.
    """
    namespace: Dict[str, object] = {}
    exec(compile(source, "<compiled blocks>", "exec"), namespace)
    return namespace["make"]


class CompiledImage:
    """One variant of the block table of one image under one layout."""

    def __init__(self, image, layout: MemoryLayout, watched: bool) -> None:
        compiler = _Compiler(image, layout, watched)
        self.size = len(image.code)
        self.entries = compiler.entries()
        self._compiler: Optional[_Compiler] = compiler
        self._factories: Dict[bool, List[Tuple[Callable, tuple, List[int]]]] = {}

    def _factories_of(self, traced: bool) -> List[Tuple[Callable, tuple, List[int]]]:
        factories = self._factories.get(traced)
        if factories is None:
            factories = [(_factory(source), constants, starts)
                         for source, constants, starts in self._compiler.sources(traced)]
            self._factories[traced] = factories
            if len(self._factories) == 2:
                self._compiler = None
        return factories

    def table(self, words: list, store_hook: Optional[Callable],
              cdiv: Callable, cmod: Callable, protected: set,
              watched_words: set, page_shift: int) -> List[Optional[tuple]]:
        """pc -> ``(block, instructions, cycles, stores, terminator)``
        for every block start (``None`` elsewhere), bound to ``words``,
        the one-argument ``store_hook`` when not ``None``, and (watched
        variant) the live protected-page and watched-word sets."""
        # One slot past the code: a return address can be the end of it.
        table: List[Optional[tuple]] = [None] * (self.size + 1)
        entries = self.entries
        for make, constants, starts in self._factories_of(store_hook is not None):
            blocks = make(words, store_hook, Handover, cdiv, cmod, constants,
                          protected, watched_words, page_shift)
            for fn, start in zip(blocks, starts):
                table[start] = (fn,) + entries[start][:4]
        return table

    def prefix(self, start: int, k: int) -> Tuple[int, int]:
        """Cycles and stores of the first ``k`` instructions of a block."""
        entry = self.entries[start]
        return entry[4][k], entry[5][k]


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
