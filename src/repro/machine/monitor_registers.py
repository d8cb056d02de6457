"""Hardware monitor (debug) registers.

Models the specialized-hardware facility of section 3.1: a small file of
registers, each describing a contiguous byte range to watch for writes.
The Intel i386 and MIPS R4000 style of support — and its central
limitation, that "no widely-used chip today supports more than four
concurrent write monitors" — is captured by the default ``n_registers=4``.

As in the paper's logical extension of the SPARCstation 2, the registers
are readable and writable by user programs and the update cost is ignored;
only monitor-hit traps carry a cost (charged by the simulated OS).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

from repro.errors import MachineError, MonitorRegisterExhausted


@dataclass
class MonitorRegister:
    """One hardware watch register: the byte range ``[begin, end)``."""

    begin: int
    end: int
    enabled: bool = False


def _words_of(begin: int, end: int) -> range:
    """Word indices of the words that intersect ``[begin, end)``."""
    return range(begin >> 2, (end + 3) >> 2)


class MonitorRegisterFile:
    """A fixed-size file of hardware monitor registers.

    The CPU looks every store's word up in :attr:`words`, the set of
    words the enabled registers cover; :attr:`any_enabled` says whether
    any register is enabled at all.
    """

    def __init__(self, n_registers: int = 4) -> None:
        if n_registers < 0:
            raise MachineError("negative register count")
        self.n_registers = n_registers
        self.registers: List[MonitorRegister] = [
            MonitorRegister(0, 0) for _ in range(n_registers)
        ]
        #: True if at least one register is enabled.
        self.any_enabled: bool = False
        #: Word indices (``address >> 2``) an enabled register covers.  A
        #: word store hits a register exactly when its word is in here.
        #: Updated in place: the CPU's compiled functions hold this set.
        self.words: Set[int] = set()

    def _refresh(self) -> None:
        self.any_enabled = any(reg.enabled for reg in self.registers)
        self.words.clear()
        for reg in self.registers:
            if reg.enabled:
                self.words.update(_words_of(reg.begin, reg.end))

    def allocate(self, begin: int, end: int) -> int:
        """Program a free register to watch ``[begin, end)``.

        Returns the register index.  Raises
        :class:`MonitorRegisterExhausted` when all registers are in use —
        the failure mode that makes NativeHardware unable to support large
        monitor sessions (paper section 9).
        """
        if end <= begin:
            raise MachineError(f"empty monitor range [{begin:#x}, {end:#x})")
        for index, reg in enumerate(self.registers):
            if not reg.enabled:
                reg.begin = begin
                reg.end = end
                reg.enabled = True
                self.any_enabled = True
                self.words.update(_words_of(begin, end))
                return index
        raise MonitorRegisterExhausted(
            f"all {self.n_registers} hardware monitor registers in use"
        )

    def release(self, index: int) -> None:
        """Free register ``index``."""
        self.registers[index].enabled = False
        self._refresh()

    def release_range(self, begin: int, end: int) -> bool:
        """Free the register watching exactly ``[begin, end)``.

        Returns True if a matching register was found.
        """
        for reg in self.registers:
            if reg.enabled and reg.begin == begin and reg.end == end:
                reg.enabled = False
                self._refresh()
                return True
        return False

    def release_all(self) -> None:
        """Free every register."""
        for reg in self.registers:
            reg.enabled = False
        self.any_enabled = False
        self.words.clear()

    def n_free(self) -> int:
        """Number of registers currently free."""
        return sum(1 for reg in self.registers if not reg.enabled)

    def hit(self, begin: int, end: int) -> Optional[int]:
        """Return the index of a register intersecting ``[begin, end)``.

        Returns None if no enabled register intersects the write range.
        """
        for index, reg in enumerate(self.registers):
            if reg.enabled and begin < reg.end and end > reg.begin:
                return index
        return None
