"""Signal names for trap delivery.

The paper's strategies receive faults through the SunOS signal facility
(section 3.3: "Using traps in this way requires the WMS to be integrated
with the operating system signal facility").  We model the mapping from
hardware trap kinds to user-visible signals.
"""

from __future__ import annotations

import enum

from repro.machine.traps import TrapKind


class Signal(enum.Enum):
    """User-visible signals delivered by the simulated kernel.

    Members hash by identity, as :class:`TrapKind`'s do: every trap
    looks its signal and its handler up by key.
    """

    __hash__ = object.__hash__

    SIGSEGV = "SIGSEGV"  # VM write-protection fault
    SIGTRAP = "SIGTRAP"  # trap instruction (and control breakpoints)
    SIGMON = "SIGMON"    # hypothetical monitor-register fault (paper §7)


_TRAP_TO_SIGNAL = {
    TrapKind.WRITE_FAULT: Signal.SIGSEGV,
    TrapKind.TRAP_INSTR: Signal.SIGTRAP,
    TrapKind.BREAKPOINT: Signal.SIGTRAP,
    TrapKind.MONITOR_FAULT: Signal.SIGMON,
}


def signal_for_trap(kind: TrapKind) -> Signal:
    """Map a hardware trap kind to the signal the kernel delivers."""
    return _TRAP_TO_SIGNAL[kind]
