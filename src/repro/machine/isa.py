"""Instruction set of the simulated machine.

The ISA is a small load/store register machine in the spirit of the SPARC
target the paper compiled for, simplified where the simplification does not
affect the write-monitor experiment:

* an unbounded per-frame virtual register file holds expression
  temporaries (real compilers use scratch registers; the count does not
  matter because register traffic is invisible to a write monitor);
* *named program variables always live in memory* — the paper compiled
  with ``-g`` and "no variables were allocated to registers", so every
  source-level assignment becomes a ``ST`` instruction, and ``ST`` is the
  single write instruction the monitor strategies must intercept;
* instructions are tuples ``(opcode, operands...)`` for interpreter speed.

Branch targets are function-local instruction indices at code generation
time; the loader rewrites them to absolute program counters when it
flattens functions into one image.

Cycle costs approximate a 40 MHz SPARCstation 2 (single-issue, with an
averaged memory-hierarchy penalty folded into loads and stores).
"""

from __future__ import annotations

from typing import Dict, Tuple

Instr = Tuple  # (opcode, operands...)

# ---------------------------------------------------------------------------
# Opcodes.  Values are stable small ints; the CPU dispatches on them.
# ---------------------------------------------------------------------------

LDI = 1  # (LDI, rd, imm)           rd <- literal
MOV = 2  # (MOV, rd, rs)            rd <- rs
LEAF = 3  # (LEAF, rd, off)          rd <- FP + off   (local address)

ADD = 10  # (ADD, rd, ra, rb)
SUB = 11
MUL = 12
DIV = 13  # C-style truncating integer division
MOD = 14  # C-style remainder
FADD = 15
FSUB = 16
FMUL = 17
FDIV = 18

AND = 20  # bitwise
OR = 21
XOR = 22
SHL = 23
SHR = 24

NEG = 30  # (NEG, rd, ra)
FNEG = 31
NOT = 32  # logical not (0/1)
BNOT = 33  # bitwise not
I2F = 34  # int -> float conversion
F2I = 35  # float -> int conversion (truncating)

EQ = 40  # (EQ, rd, ra, rb) -> 0/1
NE = 41
LT = 42
LE = 43
GT = 44
GE = 45

LD = 50  # (LD, rd, rb, off)        rd <- M[rb + off]
ST = 51  # (ST, rb, off, rs)        M[rb + off] <- rs  ** the write instr **

JMP = 60  # (JMP, target)
BF = 61  # (BF, rc, target)         branch if rc is false (zero)
BT = 62  # (BT, rc, target)         branch if rc is true (nonzero)

CALL = 70  # (CALL, func_index, rd, (arg_regs...))
CALLB = 71  # (CALLB, builtin_id, rd, (arg_regs...))
RET = 72  # (RET, rs)               rs may be None

CHK = 80  # (CHK, rb, off)          code-patch WMS check of M[rb + off]
TRAP = 81  # (TRAP, rb, off, rs)     trap-patched store (original operands)

NOP = 90  # (NOP,)
HALT = 91  # (HALT,)

#: Human-readable opcode names, for disassembly and debugging.
OPCODE_NAMES: Dict[int, str] = {
    LDI: "ldi", MOV: "mov", LEAF: "leaf",
    ADD: "add", SUB: "sub", MUL: "mul", DIV: "div", MOD: "mod",
    FADD: "fadd", FSUB: "fsub", FMUL: "fmul", FDIV: "fdiv",
    AND: "and", OR: "or", XOR: "xor", SHL: "shl", SHR: "shr",
    NEG: "neg", FNEG: "fneg", NOT: "not", BNOT: "bnot",
    I2F: "i2f", F2I: "f2i",
    EQ: "eq", NE: "ne", LT: "lt", LE: "le", GT: "gt", GE: "ge",
    LD: "ld", ST: "st",
    JMP: "jmp", BF: "bf", BT: "bt",
    CALL: "call", CALLB: "callb", RET: "ret",
    CHK: "chk", TRAP: "trap",
    NOP: "nop", HALT: "halt",
}

#: Cycle cost per opcode (SPARCstation-2 flavored; see module docstring).
CYCLE_COST: Dict[int, int] = {
    LDI: 1, MOV: 1, LEAF: 1,
    ADD: 1, SUB: 1, MUL: 5, DIV: 18, MOD: 18,
    FADD: 2, FSUB: 2, FMUL: 3, FDIV: 20,
    AND: 1, OR: 1, XOR: 1, SHL: 1, SHR: 1,
    NEG: 1, FNEG: 1, NOT: 1, BNOT: 1, I2F: 2, F2I: 2,
    EQ: 1, NE: 1, LT: 1, LE: 1, GT: 1, GE: 1,
    LD: 3, ST: 3,
    JMP: 1, BF: 1, BT: 1,
    CALL: 10, CALLB: 10, RET: 8,
    # CHK models the two-instruction call sequence the paper describes
    # (move target address to a register + call); the subroutine body is
    # charged separately by the WMS as SoftwareLookup.
    CHK: 2,
    TRAP: 1,
    NOP: 1, HALT: 1,
}

#: Opcodes whose last-operand form is a function-local branch target.
BRANCH_OPCODES = frozenset({JMP, BF, BT})

#: Opcodes that write data memory when executed directly.
STORE_OPCODES = frozenset({ST, TRAP})


def format_instr(instr: Instr) -> str:
    """Render one instruction tuple as assembly-like text.

    >>> format_instr((ST, 2, 8, 3))
    'st [r2+8] <- r3'
    """
    op = instr[0]
    name = OPCODE_NAMES.get(op, f"op{op}")
    if op == ST or op == TRAP:
        _, rb, off, rs = instr
        return f"{name} [r{rb}+{off}] <- r{rs}"
    if op == LD:
        _, rd, rb, off = instr
        return f"{name} r{rd} <- [r{rb}+{off}]"
    if op == CHK:
        _, rb, off = instr
        return f"{name} [r{rb}+{off}]"
    if op in (CALL, CALLB):
        _, target, rd, args = instr
        dest = f"r{rd} <- " if rd is not None else ""
        arg_text = ", ".join(f"r{a}" for a in args)
        return f"{name} {dest}#{target}({arg_text})"
    if op in BRANCH_OPCODES:
        return f"{name} " + " ".join(
            f"r{operand}" if i < len(instr) - 2 else f"@{operand}"
            for i, operand in enumerate(instr[1:])
        )
    return f"{name} " + " ".join(str(operand) for operand in instr[1:])


def retarget_branches(code: list, index_map: Dict[int, int]) -> list:
    """Rewrite branch targets through ``index_map`` (old index -> new).

    Used by the instrumentation passes when they insert or replace
    instructions, which shifts function-local indices.
    """
    remapped = []
    for instr in code:
        op = instr[0]
        if op == JMP:
            remapped.append((JMP, index_map[instr[1]]))
        elif op in (BF, BT):
            remapped.append((op, instr[1], index_map[instr[2]]))
        else:
            remapped.append(instr)
    return remapped
