"""MiniC: a small C-like language, compiler, and runtime.

The paper's phase-1 benchmarks are C programs compiled with GCC 1.4
(``-g``, no variables allocated to registers) whose assembly was
post-processed to emit a program event trace.  MiniC plays that role here:

* a C-like language with ints, floats, pointers, arrays, globals, local
  statics, and heap allocation (``malloc``/``free``/``realloc``);
* a compiler (lexer, recursive-descent parser, semantic analysis, IR code
  generation) that — matching the paper's compilation mode — keeps every
  named variable in memory, so each source-level assignment is exactly one
  ``ST`` instruction;
* a runtime providing heap management and I/O builtins;
* instrumentation passes: trace generation hooks, trap patching, and code
  patching (the paper's two software rewrite strategies, section 3.3).

Public entry point: :func:`repro.minic.compiler.compile_source`.
"""

from repro.minic.compiler import compile_source, CompiledProgram
from repro.minic.runtime import Runtime, HeapAllocator
from repro.minic.instrument import (
    apply_trap_patch,
    apply_code_patch,
    write_instruction_stats,
    code_expansion_estimate,
)

__all__ = [
    "compile_source",
    "CompiledProgram",
    "Runtime",
    "HeapAllocator",
    "apply_trap_patch",
    "apply_code_patch",
    "write_instruction_stats",
    "code_expansion_estimate",
]
