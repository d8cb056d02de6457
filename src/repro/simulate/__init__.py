"""Phase-2 simulator.

Replays a phase-1 program event trace against monitor-session definitions
and produces the per-session *counting variables* the analytical models
consume (paper sections 4 and 7): monitor hits, misses, installs,
removes, and — per page size — page protect/unprotect transitions and
active-page misses.

The engine makes a **single pass** over the trace and computes exact
counting variables for *every* session simultaneously.  Two backends
implement the same pass and produce bit-identical results:

* ``"python"`` — the scalar reference engine
  (:mod:`repro.simulate.engine`): a per-event loop with dict-based word
  ownership and lazy (page, session) bookkeeping;
* ``"native"`` — the compiled engine
  (:mod:`repro.simulate.native_engine`): the scalar loop ported to C
  (``simulate/_native/engine.c``), built on demand with the system C
  compiler and driven through ctypes.

Both backends are incremental: each exposes a ``feed``/``finish``
stream whose memory is bounded by the live working set, and the
whole-trace entry point is that stream fed once.

:func:`simulate_sessions` dispatches between them.  The default
``engine="auto"`` runs native when the kernel loads and ``python``
otherwise (no C compiler, or ``REPRO_NATIVE_DISABLE`` set).  Pass
``engine="python"`` or ``"native"`` to force a backend; an explicit
demand for the native backend on a host without the kernel raises
:class:`~repro.errors.PipelineError` instead of degrading.  Equivalence
is enforced by the differential suites in ``tests/simulate/`` and the
CI ``equivalence`` job.
"""

from typing import Optional, Sequence

from repro.errors import PipelineError
from repro.sessions.types import SessionDef
from repro.simulate.counting import CountingVariables, VmPageCounts
from repro.simulate.engine import (
    SimulationResult,
    SimulationStream,
    simulate_sessions as simulate_sessions_python,
    validate_page_sizes,
)
from repro.trace.events import EventTrace
from repro.trace.objects import ObjectRegistry

#: Recognized values for the ``engine`` argument / ``--engine`` flag.
ENGINE_CHOICES = ("auto", "python", "native")


def _native_available() -> bool:
    from repro.simulate._native import native_available

    return native_available()


def resolve_engine(engine: str = "auto", n_events: Optional[int] = None) -> str:
    """Map an ``engine`` request to the backend that will run.

    Returns ``"python"`` or ``"native"``.  ``"auto"`` is native when the
    kernel loads, else ``"python"``; an explicit ``"native"`` request is
    a demand and raises :class:`PipelineError` when the kernel is
    unavailable.  ``n_events`` is accepted for compatibility and
    ignored: trace size no longer affects the choice.
    """
    if engine not in ENGINE_CHOICES:
        raise PipelineError(
            f"unknown engine {engine!r}; choose from {ENGINE_CHOICES}"
        )
    if engine == "native" and not _native_available():
        from repro.simulate._native import native_unavailable_reason

        reason = native_unavailable_reason()
        raise PipelineError(
            "engine='native' requested but the compiled kernel is "
            f"unavailable: {reason or 'not loaded'}"
        )
    if engine == "auto":
        return "native" if _native_available() else "python"
    return engine


def simulate_sessions(
    trace: EventTrace,
    registry: ObjectRegistry,
    sessions: Sequence[SessionDef],
    page_sizes: Sequence[int] = (4096, 8192),
    engine: str = "auto",
) -> SimulationResult:
    """Run the one-pass simulation on the selected backend: its stream
    fed the whole trace once.

    Both backends return bit-identical results; see the module docstring
    for how ``engine`` is resolved.
    """
    stream = open_simulation_stream(registry, sessions, page_sizes, engine)
    stream.feed(trace.kinds, trace.col_a, trace.col_b, trace.col_c)
    return stream.finish(trace.meta)


def open_simulation_stream(
    registry: ObjectRegistry,
    sessions: Sequence[SessionDef],
    page_sizes: Sequence[int] = (4096, 8192),
    engine: str = "auto",
):
    """An incremental ``feed``/``finish`` simulation.

    Resolves ``engine`` like :func:`simulate_sessions` does.  The stream
    is truly incremental — memory bounded by the live working set — and
    produces results bit-identical to the whole-trace path (which is, on
    both backends, this stream fed once).
    """
    if resolve_engine(engine) == "native":
        from repro.simulate.native_engine import NativeSimulationStream

        return NativeSimulationStream(registry, sessions, page_sizes)
    return SimulationStream(registry, sessions, page_sizes)


__all__ = [
    "ENGINE_CHOICES",
    "CountingVariables",
    "VmPageCounts",
    "SimulationResult",
    "SimulationStream",
    "open_simulation_stream",
    "resolve_engine",
    "simulate_sessions",
    "simulate_sessions_python",
    "validate_page_sizes",
]
