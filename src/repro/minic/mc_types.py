"""MiniC type system.

All scalar values are one machine word (4 bytes): ``int``, ``float``, and
pointers.  Arrays occupy ``size * 4`` bytes and decay to pointers in
expression context, as in C.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import TypeError_
from repro.units import WORD_SIZE


@dataclass(frozen=True)
class CType:
    """Base class for MiniC types."""

    def size_bytes(self) -> int:
        raise NotImplementedError

    @property
    def is_numeric(self) -> bool:
        return False

    @property
    def is_pointer(self) -> bool:
        return False

    @property
    def is_array(self) -> bool:
        return False


@dataclass(frozen=True)
class IntType(CType):
    def size_bytes(self) -> int:
        return WORD_SIZE

    @property
    def is_numeric(self) -> bool:
        return True

    def __str__(self) -> str:
        return "int"


@dataclass(frozen=True)
class FloatType(CType):
    def size_bytes(self) -> int:
        return WORD_SIZE

    @property
    def is_numeric(self) -> bool:
        return True

    def __str__(self) -> str:
        return "float"


@dataclass(frozen=True)
class VoidType(CType):
    def size_bytes(self) -> int:
        return 0

    def __str__(self) -> str:
        return "void"


@dataclass(frozen=True)
class PointerType(CType):
    pointee: CType

    def size_bytes(self) -> int:
        return WORD_SIZE

    @property
    def is_pointer(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"{self.pointee}*"


@dataclass(frozen=True)
class ArrayType(CType):
    element: CType
    length: int

    def size_bytes(self) -> int:
        return self.element.size_bytes() * self.length

    @property
    def is_array(self) -> bool:
        return True

    def decayed(self) -> PointerType:
        """The pointer type this array decays to in expression context."""
        return PointerType(self.element)

    def __str__(self) -> str:
        return f"{self.element}[{self.length}]"


INT = IntType()
FLOAT = FloatType()
VOID = VoidType()


def make_type(base: str, pointer_depth: int, array_size: Optional[int] = None) -> CType:
    """Build a type from parser components (base keyword, ``*`` count, size)."""
    if base == "int":
        ctype: CType = INT
    elif base == "float":
        ctype = FLOAT
    elif base == "void":
        ctype = VOID
    else:
        raise TypeError_(f"unknown base type {base!r}")
    for _ in range(pointer_depth):
        ctype = PointerType(ctype)
    if array_size is not None:
        if isinstance(ctype, VoidType):
            raise TypeError_("array of void")
        ctype = ArrayType(ctype, array_size)
    return ctype


def decay(ctype: CType) -> CType:
    """Apply array-to-pointer decay."""
    if isinstance(ctype, ArrayType):
        return ctype.decayed()
    return ctype
