"""Host speed, sampled while a benchmark task runs.

The benchmark's host shares its cores with other machines' work, and
the speed of a core changes by up to 1.7x from one second to the next,
independently on each core.  Host seconds therefore say as much about
the neighbours as about the code.  This module times a fixed piece of
reference work often enough to follow those changes, and converts host
seconds into *reference seconds*: the time the same work would have
taken on a core that runs the reference work in ``REFERENCE_S``.

The reference work is this file's own code and never changes with the
code under test, so a change that makes the program faster lowers its
reference seconds by the same share.
"""

from __future__ import annotations

import signal
import time

#: Seconds the reference work takes at reference speed: about the
#: fastest this benchmark's 2-core Xeon sandbox (2.0 GHz) runs it.
REFERENCE_S = 0.0042
#: Host seconds between two samples while a :class:`SpeedProbe` runs.
PERIOD_S = 0.2

#: The reference work's machine: a word memory of 2 MiB of slots and a
#: loop of loads, adds, stores and branches over it, as a table of
#: ``(opcode, operands...)`` tuples.
_WORDS = [0] * (1 << 18)
_LDI, _ADD, _LT, _BF, _LD, _ST, _JMP, _HALT = range(8)
_PROGRAM = (
    (_LDI, 1, 0),          # i = 0
    (_LDI, 2, 2400),       # n
    (_LDI, 3, 1),
    (_LDI, 4, 4100),       # stride in bytes
    (_LDI, 5, 0),          # address
    (_LT, 6, 1, 2),        # loop: i < n
    (_BF, 6, 13),
    (_LD, 7, 5, 0),
    (_ADD, 7, 7, 1),
    (_ST, 5, 0, 7),
    (_ADD, 5, 5, 4),
    (_ADD, 1, 1, 3),
    (_JMP, 5),
    (_HALT,),
)


def _interpret() -> int:
    regs = [0] * 8
    words, code, size = _WORDS, _PROGRAM, len(_WORDS) * 4
    pc = steps = 0
    while True:
        instr = code[pc]
        op = instr[0]
        steps += 1
        if op == _LD:
            regs[instr[1]] = words[((regs[instr[2]] + instr[3]) % size) >> 2]
            pc += 1
        elif op == _ST:
            addr = (regs[instr[1]] + instr[2]) % size
            words[addr >> 2] = regs[instr[3]] & 0xFFFF
            pc += 1
        elif op == _LDI:
            regs[instr[1]] = instr[2]
            pc += 1
        elif op == _ADD:
            regs[instr[1]] = regs[instr[2]] + regs[instr[3]]
            pc += 1
        elif op == _LT:
            regs[instr[1]] = 1 if regs[instr[2]] < regs[instr[3]] else 0
            pc += 1
        elif op == _BF:
            pc = instr[2] if not regs[instr[1]] else pc + 1
        elif op == _JMP:
            pc = instr[1]
        else:
            return steps


def _arithmetic() -> int:
    acc = 1
    for i in range(15000):
        acc = (acc * 1103515245 + 12345 + i) & 0x7FFFFFFF
    return acc


def reference_work() -> None:
    """An interpreter loop over a large memory, then integer arithmetic.

    Slow host phases slow memory-bound and compute-bound code by
    different shares; the program under test does both, so the
    reference work does too."""
    _interpret()
    _arithmetic()


def calibrate(repeat: int = 3) -> float:
    """Host seconds of the fastest of ``repeat`` runs of the work."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        reference_work()
        best = min(best, time.perf_counter() - start)
    return best


def speed(seconds: float) -> float:
    """Reference seconds per host second, given the work's host time."""
    return REFERENCE_S / seconds


class SpeedProbe:
    """Samples the host's speed every ``period_s`` while it is entered.

    A ``SIGALRM`` handler runs the reference work between two bytecodes
    of whatever the task is doing.  Between two samples the host is
    taken to run at the mean of their speeds; the samples' own time
    counts for nothing.  Only the main thread of a process may use it.
    """

    def __init__(self, period_s: float = PERIOD_S) -> None:
        self.period_s = period_s
        #: ``(start, end, speed)`` of every sample, in time order.
        self.samples = []
        self._previous = None

    def _sample(self, *_signal) -> None:
        start = time.perf_counter()
        reference_work()
        end = time.perf_counter()
        self.samples.append((start, end, speed(end - start)))

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def ref_seconds(self, begin: float, end: float) -> float:
        """Reference seconds of the task's work in ``[begin, end]``,
        two ``time.perf_counter()`` readings taken inside the probe."""
        total = 0.0
        for (_, gap_start, before), (gap_end, _, after) in zip(
                self.samples, self.samples[1:]):
            overlap = min(end, gap_end) - max(begin, gap_start)
            if overlap > 0:
                total += overlap * (before + after) / 2
        return total

    def host_seconds(self, begin: float, end: float) -> float:
        """Host seconds of the task's work in ``[begin, end]``, without
        the samples' own time."""
        total = 0.0
        for (_, gap_start, _), (gap_end, _, _) in zip(
                self.samples, self.samples[1:]):
            total += max(0.0, min(end, gap_end) - max(begin, gap_start))
        return total
