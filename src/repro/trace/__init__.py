"""Program event traces (phase 1 of the experiment).

A trace is the session-independent record of one program run, consisting
of exactly the three events of paper section 6::

    InstallMonitorEvent [ObjectDesc, BA, EA]
    RemoveMonitorEvent  [ObjectDesc, BA, EA]
    WriteEvent          [BA, EA]

Install/remove events are emitted for *every* program object any session
type might monitor (all locals on function boundaries, globals at
startup, heap objects at malloc/free); writes are emitted for every store
the program executes.  System calls and library internals do not appear,
matching the paper.
"""

from repro.trace.objects import ObjectDesc, ObjectRegistry
from repro.trace.events import EventKind, EventTrace, TraceColumns, TraceMeta
from repro.trace.tracer import Tracer, trace_program
from repro.trace.tracefile import load_trace, save_trace

__all__ = [
    "ObjectDesc",
    "ObjectRegistry",
    "EventKind",
    "EventTrace",
    "TraceColumns",
    "TraceMeta",
    "Tracer",
    "trace_program",
    "save_trace",
    "load_trace",
]
