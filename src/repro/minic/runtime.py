"""MiniC runtime: heap allocator and builtin functions.

The runtime provides what the C library provided to the paper's
benchmarks: ``malloc``/``free``/``realloc`` and minimal I/O.  Library
*internals* do not appear in the event trace (the paper excludes system
calls and standard libraries, section 6), but heap allocation boundaries
do — the tracer and debugger observe them through the allocator's
listener interface, which also preserves object identity across
``realloc`` (paper footnote 4).
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Protocol

from repro.errors import MiniCRuntimeError
from repro.machine.cpu import Cpu
from repro.machine.layout import MemoryLayout
from repro.minic.builtins import BUILTINS, N_BUILTINS
from repro.units import WORD_SIZE, align_up


class HeapListener(Protocol):
    """Observer of heap allocation boundaries (tracer, debugger)."""

    def on_alloc(self, address: int, size_bytes: int) -> None: ...

    def on_free(self, address: int, size_bytes: int) -> None: ...

    def on_realloc(
        self, old_address: int, old_size: int, new_address: int, new_size: int
    ) -> None: ...


class HeapAllocator:
    """First-fit-by-size-class heap allocator over simulated memory.

    Blocks are word-aligned.  Freed blocks are recycled by exact rounded
    size (a size-class free list), which matches the allocation behaviour
    of programs like BPS that churn thousands of identical tree nodes.
    """

    def __init__(self, memory, layout: Optional[MemoryLayout] = None) -> None:
        self.memory = memory
        self.layout = layout or memory.layout
        self._brk = self.layout.heap_base
        self._free_lists: dict = {}
        #: Live allocations: address -> size in bytes (rounded).
        self.allocations: dict = {}
        self.listeners: List[HeapListener] = []
        self.total_allocated = 0
        self.n_allocs = 0
        self.n_frees = 0

    def _round(self, size_bytes: int) -> int:
        return max(align_up(size_bytes, WORD_SIZE), WORD_SIZE)

    def malloc(self, size_bytes: int) -> int:
        """Allocate ``size_bytes``; returns the block address.

        A zero or negative request returns the null pointer, like a
        defensive C allocator.
        """
        if size_bytes <= 0:
            return 0
        rounded = self._round(size_bytes)
        free_list = self._free_lists.get(rounded)
        if free_list:
            address = free_list.pop()
        else:
            address = self._brk
            if address + rounded > self.layout.heap_limit:
                raise MiniCRuntimeError(
                    f"heap exhausted allocating {size_bytes} bytes"
                )
            self._brk += rounded
        self.allocations[address] = rounded
        self.total_allocated += rounded
        self.n_allocs += 1
        for listener in self.listeners:
            listener.on_alloc(address, rounded)
        return address

    def free(self, address: int) -> None:
        """Free the block at ``address`` (null is a no-op, as in C)."""
        if address == 0:
            return
        size = self.allocations.pop(address, None)
        if size is None:
            raise MiniCRuntimeError(f"free of unallocated address {address:#x}")
        self._free_lists.setdefault(size, []).append(address)
        self.n_frees += 1
        for listener in self.listeners:
            listener.on_free(address, size)

    def realloc(self, address: int, size_bytes: int) -> int:
        """Resize a block, preserving contents and object identity."""
        if address == 0:
            return self.malloc(size_bytes)
        if size_bytes <= 0:
            self.free(address)
            return 0
        old_size = self.allocations.get(address)
        if old_size is None:
            raise MiniCRuntimeError(f"realloc of unallocated address {address:#x}")
        rounded = self._round(size_bytes)
        if rounded == old_size:
            return address
        # Allocate new space without emitting alloc/free events: the
        # listener sees a single on_realloc so object identity survives.
        free_list = self._free_lists.get(rounded)
        if free_list:
            new_address = free_list.pop()
        else:
            new_address = self._brk
            if new_address + rounded > self.layout.heap_limit:
                raise MiniCRuntimeError(
                    f"heap exhausted reallocating to {size_bytes} bytes"
                )
            self._brk += rounded
        copy_words = min(old_size, rounded) >> 2
        self.memory.store_range(
            new_address, self.memory.load_range(address, copy_words)
        )
        del self.allocations[address]
        self._free_lists.setdefault(old_size, []).append(address)
        self.allocations[new_address] = rounded
        for listener in self.listeners:
            listener.on_realloc(address, old_size, new_address, rounded)
        return new_address

    def live_bytes(self) -> int:
        """Total bytes currently allocated."""
        return sum(self.allocations.values())


# Cycle charges for builtins (library code is outside the trace but not
# free; values approximate SunOS 4.1 malloc/libm on a SPARCstation 2).
_MALLOC_CYCLES = 100
_FREE_CYCLES = 60
_REALLOC_CYCLES = 140
_PRINT_CYCLES = 200
_MATH_CYCLES = 60


class Runtime:
    """Binds builtins to a CPU and owns the heap and program output."""

    def __init__(self, cpu: Cpu, layout: Optional[MemoryLayout] = None) -> None:
        self.cpu = cpu
        self.heap = HeapAllocator(cpu.memory, layout or cpu.layout)
        #: Captured program output (print_* builtins append here).
        self.output: List[str] = []

    def install(self) -> None:
        """Install the builtin table on the CPU.  Only the CPU holds the
        table, whose entries hold this runtime: emptying
        ``cpu.builtins`` leaves no reference cycle between the two."""
        table: List[Callable] = [None] * N_BUILTINS  # type: ignore[list-item]
        for name, impl in (
            ("malloc", self._malloc),
            ("free", self._free),
            ("realloc", self._realloc),
            ("print_int", self._print_int),
            ("print_float", self._print_float),
            ("print_char", self._print_char),
            ("sqrt", self._math_unary(math.sqrt)),
            ("exp", self._math_unary(math.exp)),
            ("log", self._math_unary(math.log)),
            ("fabs", self._math_unary(abs)),
        ):
            table[BUILTINS[name].index] = impl
        self.cpu.builtins = table

    # -- implementations ---------------------------------------------------

    def _malloc(self, cpu: Cpu, args) -> int:
        cpu.cycles += _MALLOC_CYCLES
        return self.heap.malloc(int(args[0]))

    def _free(self, cpu: Cpu, args) -> None:
        cpu.cycles += _FREE_CYCLES
        self.heap.free(int(args[0]))

    def _realloc(self, cpu: Cpu, args) -> int:
        cpu.cycles += _REALLOC_CYCLES
        return self.heap.realloc(int(args[0]), int(args[1]))

    def _print_int(self, cpu: Cpu, args) -> None:
        cpu.cycles += _PRINT_CYCLES
        self.output.append(str(int(args[0])))

    def _print_float(self, cpu: Cpu, args) -> None:
        cpu.cycles += _PRINT_CYCLES
        self.output.append(f"{float(args[0]):.6g}")

    def _print_char(self, cpu: Cpu, args) -> None:
        cpu.cycles += _PRINT_CYCLES
        self.output.append(chr(int(args[0]) & 0x7F))

    def _math_unary(self, fn: Callable[[float], float]) -> Callable:
        def impl(cpu: Cpu, args) -> float:
            cpu.cycles += _MATH_CYCLES
            try:
                return float(fn(float(args[0])))
            except ValueError as exc:
                raise MiniCRuntimeError(f"math domain error: {exc}") from exc

        return impl
