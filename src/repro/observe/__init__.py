"""Observability layer: metrics, spans, manifests, and the perf harness.

The instrument panel for the trace->simulate->model pipeline.  All
process-local and **off by default**:

* :mod:`repro.observe.metrics` — a :class:`MetricsRegistry` of named
  counters, gauges, and histograms, with module-level helpers
  (:func:`inc`, :func:`set_gauge`, :func:`observe_value`, :func:`note`)
  that are no-ops while observation is disabled;
* :mod:`repro.observe.spans` — :class:`span`, a context-manager/
  decorator for hierarchical wall-clock timing;
* :mod:`repro.observe.events` — the flight recorder: a correlated,
  structured event log written line by line as the run goes;
* :mod:`repro.observe.manifest` — :class:`RunManifest`, one validated
  JSON document per pipeline run (per-stage timings, event counts,
  cache traffic, environment fingerprint);
* :mod:`repro.observe.report` — :func:`render_manifest`, the one human
  view of a run, read from its manifest alone, and
  :func:`render_comparison`, two runs' manifests side by side;
* :mod:`repro.observe.profile` — a 1-in-N sampling profiler for the CPU
  dispatch loop and simulation engine hot paths, whose samples are
  ``profile.*`` counters;
* :mod:`repro.observe.snapshot` — picklable dump/merge of a process's
  observation state, so :mod:`repro.experiments.parallel` workers can
  ship their metrics, spans, and events back to the parent.

An observed run leaves two artifacts: the manifest and its event log.
Turn observation on in code with :func:`enable`, :func:`enable_events`
and :func:`enable_profiling`, or from the CLI with ``--manifest FILE``
(plus ``--profile``); ``repro-experiments show FILE`` prints the
manifest, and ``show A.json B.json`` compares two.  The disabled fast path is guarded by
``benchmarks/test_observe_overhead.py``; see ``docs/OBSERVABILITY.md``
for the guide and schemas.
"""

from repro.observe.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    disable,
    enable,
    get_registry,
    inc,
    is_enabled,
    note,
    observe_value,
    register_reset_hook,
    reset,
    set_gauge,
)
from repro.observe.spans import SpanRecord, current_span_path, span
from repro.observe.events import (
    EVENT_SCHEMA_VERSION,
    EventRecord,
    FlightRecorder,
    SEVERITIES,
    current_run_id,
    disable_events,
    dump_events_state,
    emit_event,
    enable_events,
    events_enabled,
    events_summary,
    get_recorder,
    load_event_log,
    merge_events_state,
    validate_event_dict,
    validate_event_log_lines,
)
from repro.observe.manifest import (
    MANIFEST_SCHEMA_VERSION,
    RunManifest,
    environment_fingerprint,
    load_manifest,
    validate_manifest,
)
from repro.observe.report import render_comparison, render_manifest
from repro.observe.profile import (
    DEFAULT_SAMPLE_STRIDE,
    SampleProfile,
    disable_profiling,
    enable_profiling,
    get_profiler,
    is_profiling,
)
from repro.observe.snapshot import (
    SNAPSHOT_VERSION,
    dump_snapshot,
    merge_snapshot,
)

__all__ = [
    "Counter",
    "DEFAULT_SAMPLE_STRIDE",
    "EVENT_SCHEMA_VERSION",
    "EventRecord",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MANIFEST_SCHEMA_VERSION",
    "RunManifest",
    "SEVERITIES",
    "SNAPSHOT_VERSION",
    "SampleProfile",
    "SpanRecord",
    "current_run_id",
    "current_span_path",
    "disable",
    "disable_events",
    "disable_profiling",
    "dump_events_state",
    "dump_snapshot",
    "emit_event",
    "enable",
    "enable_events",
    "enable_profiling",
    "environment_fingerprint",
    "events_enabled",
    "events_summary",
    "get_profiler",
    "get_recorder",
    "get_registry",
    "inc",
    "is_enabled",
    "is_profiling",
    "load_event_log",
    "load_manifest",
    "merge_events_state",
    "merge_snapshot",
    "note",
    "observe_value",
    "register_reset_hook",
    "render_comparison",
    "render_manifest",
    "reset",
    "set_gauge",
    "span",
    "validate_event_dict",
    "validate_event_log_lines",
    "validate_manifest",
]
