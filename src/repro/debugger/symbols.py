"""Source-level symbol resolution over a loaded program image."""

from __future__ import annotations

from typing import Optional, Tuple

from repro.errors import SymbolNotFound
from repro.machine.loader import LoadedFunction, LoadedProgram
from repro.minic.symbols import VarInfo


class SymbolResolver:
    """Resolves variable and function names to addresses and metadata."""

    def __init__(self, image: LoadedProgram) -> None:
        self.image = image

    # -- functions ---------------------------------------------------------

    def function(self, name: str) -> LoadedFunction:
        """The function named ``name``."""
        try:
            return self.image.function(name)
        except Exception as exc:
            raise SymbolNotFound(f"no function named {name!r}") from exc

    # -- globals ---------------------------------------------------------------

    def global_range(self, name: str) -> Tuple[int, int]:
        """Byte range ``(begin, end)`` of global variable ``name``."""
        try:
            var = self.image.global_var(name)
        except Exception as exc:
            raise SymbolNotFound(f"no global named {name!r}") from exc
        return var.address, var.address + var.size_bytes

    # -- locals -------------------------------------------------------------------

    def local_var(self, func_name: str, var_name: str) -> VarInfo:
        """The :class:`VarInfo` for ``var_name`` in function ``func_name``.

        Searches parameters, automatic locals, then local statics.
        """
        func = self.function(func_name)
        for var in func.frame_vars():
            if var.name == var_name:
                return var
        for static in func.static_vars:
            if static.name == var_name:
                return VarInfo(
                    name=static.name,
                    ctype=static.ctype,
                    storage="static",
                    size_bytes=static.size_bytes,
                    address=static.address,
                    owner_function=func_name,
                    line=static.line,
                )
        raise SymbolNotFound(f"no variable {var_name!r} in function {func_name!r}")

    # -- source mapping ------------------------------------------------------------

    def describe_pc(self, pc: int) -> str:
        """Human-readable location for ``pc`` ("func (line N)" or "pc=N")."""
        func = self.image.function_at_pc(pc)
        line: Optional[int] = self.image.source_line_at(pc)
        if func is None:
            return f"pc={pc}"
        if line is None:
            # Walk back to the nearest preceding line annotation.
            probe = pc
            while probe >= func.entry_pc and line is None:
                line = self.image.source_line_at(probe)
                probe -= 1
        where = f" (line {line})" if line is not None else ""
        return f"{func.name}{where}"
