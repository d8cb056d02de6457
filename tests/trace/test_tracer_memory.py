"""Phase 1's trace memory: the tracer holds one copy of its trace.

Drains expand straight into the tracer's own int8/int32 columns, which
grow geometrically, and :meth:`Tracer.finish` trims them and hands them
to the trace.  So the tracer's peak traced bytes stay near 13 bytes per
event.  The bound checked here is ``13 B x events``, plus the log bound
(``LOG_SLICE + _DRAIN_STRIDE`` records of 8 bytes), plus a slack of:

* the columns' growth headroom, an eighth of the events (13 B each);
* 256 KiB for the CPU's own per-run state (an untraced run peaks at
  ~210 KB), the object registry and the side events.

A second copy of the trace (13 B x events more) exceeds it.  The peak is
that of a traced run on a fresh machine, measured from just before
``cpu.run``, after an identical run has compiled the program's
functions (the compiled code is cached for the process, and is not the
tracer's).
"""

from __future__ import annotations

import tracemalloc

from repro.machine import Cpu, Memory, load_program
from repro.machine.cpu import _DRAIN_STRIDE
from repro.minic.runtime import Runtime
from repro.trace.tracer import LOG_SLICE, Tracer
from repro.workloads import WORKLOADS

#: bps at smoke scale: ~140k events, so one more copy of the trace
#: (~1.8 MB) dwarfs the log bound and the fixed slack.
PROGRAM = "bps"
_LOG_RECORDS = LOG_SLICE + _DRAIN_STRIDE


def _traced_peak():
    """(tracemalloc peak over a traced ``cpu.run``, the trace)."""
    workload = WORKLOADS[PROGRAM]
    scale = workload.smoke_scale
    program = workload.compile(scale)
    image = load_program(program, program.layout)
    memory = Memory(program.layout)
    cpu = Cpu(memory, layout=program.layout)
    runtime = Runtime(cpu, program.layout)
    runtime.install()
    cpu.attach(image)
    workload.setup(memory, image, scale)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracer = Tracer(cpu, image, PROGRAM)
        tracer.begin()
        runtime.heap.listeners.append(tracer)
        trace = tracer.finish(cpu.run("main", (), 500_000_000))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak, trace


def test_tracer_holds_one_copy_of_its_trace():
    _traced_peak()  # compiles the program's functions
    peak, trace = _traced_peak()
    events = len(trace)
    bound = 13 * events + 8 * _LOG_RECORDS + 13 * events // 8 + 256 * 1024
    assert peak < bound, (
        f"traced peak {peak} B for {events} events "
        f"({peak / events:.1f} B/event), bound {bound} B"
    )
    # The bound is tight enough to catch a second copy of the trace.
    assert 2 * 13 * events > bound
