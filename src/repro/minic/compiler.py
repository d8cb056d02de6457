"""MiniC compiler driver: source text to a :class:`CompiledProgram`."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.machine.layout import DEFAULT_LAYOUT, MemoryLayout
from repro.minic.codegen import CompiledFunction, generate_unit
from repro.minic.parser import parse
from repro.minic.semantics import analyze
from repro.minic.symbols import GlobalVar


@dataclass
class CompiledProgram:
    """The compiler's output: per-function code plus symbol information.

    ``globals`` contains file-scope variables *and* function statics —
    everything that lives in the global segment.  The loader flattens the
    functions into an executable image
    (:func:`repro.machine.loader.load_program`).
    """

    name: str
    functions: List[CompiledFunction]
    globals: List[GlobalVar]
    source: str = ""
    layout: MemoryLayout = field(default_factory=lambda: DEFAULT_LAYOUT)

    def function(self, name: str) -> CompiledFunction:
        """Look up a compiled function by name."""
        for func in self.functions:
            if func.name == name:
                return func
        raise KeyError(name)

    def total_instructions(self) -> int:
        """Static instruction count across all functions."""
        return sum(len(func.code) for func in self.functions)


def compile_source(
    source: str, name: str = "program", layout: MemoryLayout = DEFAULT_LAYOUT
) -> CompiledProgram:
    """Compile MiniC ``source`` into a :class:`CompiledProgram`.

    Raises :class:`~repro.errors.LexError`,
    :class:`~repro.errors.ParseError`, or
    :class:`~repro.errors.TypeError_` on invalid input.
    """
    unit = parse(source)
    analyzed = analyze(unit, layout)
    functions = generate_unit(analyzed)
    all_globals: List[GlobalVar] = list(analyzed.globals)
    for func in functions:
        all_globals.extend(func.static_vars)
    return CompiledProgram(
        name=name,
        functions=functions,
        globals=all_globals,
        source=source,
        layout=layout,
    )
