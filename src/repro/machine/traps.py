"""Trap kinds and fault frames.

Three of the paper's four strategies detect writes via a hardware trap:

* ``MONITOR_FAULT`` — a store hit a hardware monitor register
  (NativeHardware; delivered *after* the write completes, distinguishing
  write monitors from write barriers, paper section 1).
* ``WRITE_FAULT`` — a store targeted a write-protected page
  (VirtualMemory; delivered *before* the write, which is why the handler
  must emulate the faulting instruction).
* ``TRAP_INSTR`` — an explicit trap instruction planted where a store used
  to be (TrapPatch; also requires emulation).

The CPU packages the faulting context into a :class:`TrapFrame` and hands
it to the simulated OS for user-level delivery, mirroring the SunOS signal
mechanism the paper assumes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple


class TrapKind(enum.Enum):
    """The hardware event that caused a trap.

    Members hash by identity: every trap counts itself in a dict keyed
    by its kind, and ``Enum``'s own hash runs Python code per lookup.
    """

    __hash__ = object.__hash__

    MONITOR_FAULT = "monitor_fault"
    WRITE_FAULT = "write_fault"
    TRAP_INSTR = "trap_instr"
    BREAKPOINT = "breakpoint"


@dataclass(slots=True)
class TrapFrame:
    """Context captured by the CPU when a trap is raised.

    One frame is built per trap, so the class has slots: no
    per-instance ``__dict__``.

    Attributes
    ----------
    kind:
        What caused the trap.
    pc:
        Program counter of the faulting/trapping instruction.
    address:
        Target data address of the store (None for pure breakpoints).
    value:
        The value the store was writing (None for pure breakpoints).
    store_operands:
        For faults raised by a store: ``(base_address, value)`` needed to
        emulate the instruction from the handler.  For MONITOR_FAULT the
        write has already completed and no emulation is needed.
    """

    kind: TrapKind
    pc: int
    address: Optional[int] = None
    value: Optional[object] = None
    store_operands: Optional[Tuple[int, object]] = None

    @property
    def needs_emulation(self) -> bool:
        """True if the handler must perform the write itself."""
        return self.kind in (TrapKind.WRITE_FAULT, TrapKind.TRAP_INSTR)
