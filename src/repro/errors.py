"""Exception hierarchy for the ``repro`` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch a single base class.  The hierarchy mirrors the major
subsystems: the simulated machine, the MiniC toolchain, the write monitor
service, and the experiment pipeline.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


# ---------------------------------------------------------------------------
# Simulated machine
# ---------------------------------------------------------------------------


class MachineError(ReproError):
    """Base class for simulated-machine errors."""


class MemoryFault(MachineError):
    """An access outside the simulated physical memory, or misaligned."""

    def __init__(self, address: int, reason: str = "bad address") -> None:
        super().__init__(f"memory fault at {address:#x}: {reason}")
        self.address = address
        self.reason = reason


class AlignmentFault(MemoryFault):
    """A word access whose address was not word-aligned."""

    def __init__(self, address: int) -> None:
        super().__init__(address, "not word-aligned")


class StackOverflow(MachineError):
    """The simulated stack grew into the heap segment."""


class InvalidInstruction(MachineError):
    """The CPU decoded an opcode it does not implement."""


class ArityError(MachineError):
    """A function was entered with the wrong number of arguments."""


class CpuLimitExceeded(MachineError):
    """Execution exceeded the configured instruction budget."""


class MonitorRegisterExhausted(MachineError):
    """More concurrent monitors were requested than hardware registers.

    This is the central limitation of the NativeHardware strategy: no
    widely-used 1992 processor supported more than four concurrent write
    monitors (paper, section 3.1).
    """


# ---------------------------------------------------------------------------
# Simulated OS
# ---------------------------------------------------------------------------


class SimOsError(ReproError):
    """Base class for simulated-OS errors."""


class BadSyscall(SimOsError):
    """A syscall was invoked with invalid arguments."""


class UnhandledFault(SimOsError):
    """A fault was delivered but no handler was registered for it."""


# ---------------------------------------------------------------------------
# MiniC toolchain
# ---------------------------------------------------------------------------


class MiniCError(ReproError):
    """Base class for MiniC compilation errors."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        location = f" at line {line}" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class LexError(MiniCError):
    """The lexer encountered an invalid character or literal."""


class ParseError(MiniCError):
    """The parser encountered an unexpected token."""


class TypeError_(MiniCError):
    """Semantic analysis rejected the program (named to avoid shadowing)."""


class MiniCRuntimeError(ReproError):
    """A runtime error inside an executing MiniC program."""


# ---------------------------------------------------------------------------
# Write monitor service / debugger
# ---------------------------------------------------------------------------


class WmsError(ReproError):
    """Base class for write-monitor-service errors."""


class MonitorOverlapError(WmsError):
    """An installed monitor overlaps an existing one where disallowed."""


class MonitorNotFound(WmsError):
    """RemoveMonitor was called for a region that is not monitored."""


class DebuggerError(ReproError):
    """Base class for source-level debugger errors."""


class SymbolNotFound(DebuggerError):
    """A variable or function name could not be resolved."""


# ---------------------------------------------------------------------------
# Experiment pipeline
# ---------------------------------------------------------------------------


class PipelineError(ReproError):
    """Base class for trace/simulation/model pipeline errors."""


class TraceFormatError(PipelineError):
    """A trace file, event stream or sim cache entry was malformed."""


class TraceRangeError(PipelineError):
    """A trace column value does not fit its on-disk dtype.

    Raised by the trace writer instead of truncating the value; the
    writer publishes nothing.
    """


class SessionError(PipelineError):
    """A monitor session definition was invalid."""


class WorkerTimeoutError(PipelineError):
    """A pipeline worker exceeded the ``--worker-timeout`` wall clock.

    Raised by the parent's watchdog after it kills the hung worker; the
    retry machinery treats it as transient (the work is rescheduled on a
    fresh pool), so it only surfaces to callers once retries are
    exhausted.
    """


class FaultSpecError(ReproError):
    """A ``--inject-faults`` / ``REPRO_FAULTS`` plan spec was malformed."""


class ShutdownRequested(BaseException):
    """A SIGINT/SIGTERM arrived and a graceful shutdown is in progress.

    Deliberately a :class:`BaseException` (like :class:`KeyboardInterrupt`)
    so the pipeline's ``except Exception`` retry/keep-going machinery
    never swallows it: the signal must unwind through the scheduler's
    cleanup (pool shutdown) to the CLI, which emits ``run.interrupted``
    as the event log's last line and exits ``128 + signum``.
    Every store entry published before the signal stays valid, so
    re-running the same command resumes the work.
    """

    def __init__(self, signum: int) -> None:
        super().__init__(signum)
        self.signum = signum

    def __str__(self) -> str:
        import signal as _signal

        try:
            name = _signal.Signals(self.signum).name
        except ValueError:
            name = f"signal {self.signum}"
        return f"shutdown requested by {name}"


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------


class ObservabilityError(ReproError):
    """Base class for metrics/span/manifest errors."""


class ManifestFormatError(ObservabilityError):
    """A run manifest document was malformed or failed validation."""
