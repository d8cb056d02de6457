"""Pretty-printers for MiniC ASTs and compiled IR.

Used by compiler debugging and by anyone spelunking through what the
toolchain produced (the debugger shell's ``list`` command prints
:meth:`LoadedProgram.disassemble <repro.machine.loader.LoadedProgram.disassemble>`
instead)::

    >>> from repro.minic.parser import parse
    >>> print(dump_ast(parse("int main() { return 1 + 2; }")))
    TranslationUnit
      FuncDef main() -> int
        Return
          Binary '+'
            IntLit 1
            IntLit 2
"""

from __future__ import annotations

from typing import List

from repro.machine import isa
from repro.minic import mc_ast as A
from repro.minic.codegen import CompiledFunction
from repro.minic.compiler import CompiledProgram

_INDENT = "  "


def _type_text(base: str, depth: int, array_size=None) -> str:
    text = base + "*" * depth
    if array_size is not None:
        text += f"[{array_size}]"
    return text


def _dump(node, lines: List[str], depth: int) -> None:
    pad = _INDENT * depth

    if isinstance(node, A.TranslationUnit):
        lines.append(f"{pad}TranslationUnit")
        for decl in node.globals:
            _dump(decl, lines, depth + 1)
        for func in node.functions:
            _dump(func, lines, depth + 1)
    elif isinstance(node, A.FuncDef):
        params = ", ".join(
            f"{_type_text(p.base_type, p.pointer_depth)} {p.name}" for p in node.params
        )
        ret = _type_text(node.ret_base_type, node.ret_pointer_depth)
        lines.append(f"{pad}FuncDef {node.name}({params}) -> {ret}")
        _dump(node.body, lines, depth + 1)
    elif isinstance(node, A.VarDecl):
        storage = "static " if node.is_static else ""
        typ = _type_text(node.base_type, node.pointer_depth, node.array_size)
        lines.append(f"{pad}VarDecl {storage}{typ} {node.name}")
        if node.init is not None:
            _dump(node.init, lines, depth + 1)
        for item in node.init_list or ():
            _dump(item, lines, depth + 1)
    elif isinstance(node, A.Block):
        if node.statements:
            for stmt in node.statements:
                _dump(stmt, lines, depth)
        else:
            lines.append(f"{pad}EmptyStmt")
    elif isinstance(node, A.ExprStmt):
        lines.append(f"{pad}ExprStmt")
        _dump(node.expr, lines, depth + 1)
    elif isinstance(node, A.If):
        lines.append(f"{pad}If")
        _dump(node.cond, lines, depth + 1)
        lines.append(f"{pad}{_INDENT}Then")
        _dump(node.then_body, lines, depth + 2)
        if node.else_body is not None:
            lines.append(f"{pad}{_INDENT}Else")
            _dump(node.else_body, lines, depth + 2)
    elif isinstance(node, A.While):
        lines.append(f"{pad}While")
        _dump(node.cond, lines, depth + 1)
        _dump(node.body, lines, depth + 1)
    elif isinstance(node, A.DoWhile):
        lines.append(f"{pad}DoWhile")
        _dump(node.body, lines, depth + 1)
        lines.append(f"{pad}{_INDENT}Cond")
        _dump(node.cond, lines, depth + 2)
    elif isinstance(node, A.For):
        lines.append(f"{pad}For")
        for label, part in (("Init", node.init), ("Cond", node.cond), ("Step", node.step)):
            if part is not None:
                lines.append(f"{pad}{_INDENT}{label}")
                _dump(part, lines, depth + 2)
        _dump(node.body, lines, depth + 1)
    elif isinstance(node, A.Return):
        lines.append(f"{pad}Return")
        if node.value is not None:
            _dump(node.value, lines, depth + 1)
    elif isinstance(node, A.Break):
        lines.append(f"{pad}Break")
    elif isinstance(node, A.Continue):
        lines.append(f"{pad}Continue")
    elif isinstance(node, A.IntLit):
        lines.append(f"{pad}IntLit {node.value}")
    elif isinstance(node, A.FloatLit):
        lines.append(f"{pad}FloatLit {node.value}")
    elif isinstance(node, A.Ident):
        lines.append(f"{pad}Ident {node.name}")
    elif isinstance(node, A.Assign):
        lines.append(f"{pad}Assign")
        _dump(node.target, lines, depth + 1)
        _dump(node.value, lines, depth + 1)
    elif isinstance(node, A.CompoundAssign):
        lines.append(f"{pad}CompoundAssign '{node.op}='")
        _dump(node.target, lines, depth + 1)
        _dump(node.value, lines, depth + 1)
    elif isinstance(node, A.IncDec):
        form = "prefix" if node.is_prefix else "postfix"
        lines.append(f"{pad}IncDec '{node.op}{node.op}' ({form})")
        _dump(node.target, lines, depth + 1)
    elif isinstance(node, A.Ternary):
        lines.append(f"{pad}Ternary")
        _dump(node.cond, lines, depth + 1)
        _dump(node.then_expr, lines, depth + 1)
        _dump(node.else_expr, lines, depth + 1)
    elif isinstance(node, A.Unary):
        lines.append(f"{pad}Unary '{node.op}'")
        _dump(node.operand, lines, depth + 1)
    elif isinstance(node, A.Binary):
        lines.append(f"{pad}Binary '{node.op}'")
        _dump(node.left, lines, depth + 1)
        _dump(node.right, lines, depth + 1)
    elif isinstance(node, A.Call):
        lines.append(f"{pad}Call {node.name}")
        for arg in node.args:
            _dump(arg, lines, depth + 1)
    elif isinstance(node, A.Index):
        lines.append(f"{pad}Index")
        _dump(node.base, lines, depth + 1)
        _dump(node.index, lines, depth + 1)
    else:
        lines.append(f"{pad}<{type(node).__name__}>")


def dump_ast(node) -> str:
    """Render an AST (or any subtree) as an indented text tree."""
    lines: List[str] = []
    _dump(node, lines, 0)
    return "\n".join(lines)


def format_function(func: CompiledFunction) -> str:
    """Disassemble one compiled function with frame and line metadata."""
    header = [
        f"{func.name}:  frame={func.frame_size} bytes  regs={func.n_regs}",
    ]
    for var in list(func.params) + list(func.local_vars):
        role = "param" if var.is_param else "local"
        header.append(f"    ; {role} {var.name}: {var.ctype} at fp+{var.offset}")
    for static in func.static_vars:
        header.append(f"    ; static {static.name}: {static.ctype} at {static.address:#x}")
    body = []
    for index, instr in enumerate(func.code):
        line = func.line_table.get(index)
        note = f"   ; line {line}" if line is not None else ""
        body.append(f"  {index:4d}  {isa.format_instr(instr)}{note}")
    return "\n".join(header + body)


def format_program(program: CompiledProgram) -> str:
    """Disassemble a whole compiled program."""
    sections = [f"; program {program.name}: {program.total_instructions()} instructions"]
    for var in program.globals:
        owner = f" (static of {var.owner_function})" if var.owner_function else ""
        sections.append(f"; global {var.name}: {var.ctype} at {var.address:#x}{owner}")
    sections.append("")
    for func in program.functions:
        sections.append(format_function(func))
        sections.append("")
    return "\n".join(sections).rstrip() + "\n"
