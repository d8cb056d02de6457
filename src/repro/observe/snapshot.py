"""Cross-process observation snapshots: dump in a worker, merge in the parent.

Everything in :mod:`repro.observe` is process-local, so when the
experiment pipeline fans out per-program work to a
:class:`~concurrent.futures.ProcessPoolExecutor`
(:mod:`repro.experiments.parallel`), each worker's metrics (profiler
samples included), spans, notes, and events would be lost when the
process exits.  This
module closes that gap:

* a worker calls :func:`dump_snapshot` at the end of its task and
  returns the payload (plain dicts + picklable
  :class:`~repro.observe.spans.SpanRecord` objects) through the pool;
* the parent calls :func:`merge_snapshot`, which folds counters,
  gauges, raw histogram observations, and notes into the parent
  registry, grafts the worker's span tree under a caller-chosen path
  (``pipeline/worker:<name>/...``), rebases worker
  ``time.perf_counter`` span starts into the parent's clock, and
  re-sequences the worker's flight-recorder events
  (:mod:`repro.observe.events`) into the parent's recorder — and its
  JSONL sink — with the same clock rebasing.

Merging is tolerant of **partial snapshots**: a worker that died
mid-task (or an older payload missing newer sections) merges whatever
sections it does carry — missing ``metrics``/``events`` keys are
skipped, and malformed event entries are counted as dropped
rather than aborting the merge.

Merged manifests therefore look like serial ones — same counter totals,
same ``stages`` rollup (stage span names are unchanged by grafting) —
plus one extra ``worker:<name>`` span per program recording the fan-out
itself.  See ``docs/OBSERVABILITY.md`` ("Parallel runs and worker
snapshot merging").
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.observe.events import dump_events_state, merge_events_state
from repro.observe.metrics import get_registry
from repro.observe.spans import SpanRecord

#: Payload format version; parent and workers always share a code tree,
#: but a mismatch (e.g. a stale pickle replayed from disk) should fail
#: loudly rather than merge garbage.
SNAPSHOT_VERSION = 1


def dump_snapshot() -> Dict[str, object]:
    """Everything this process observed, as one picklable payload."""
    return {
        "version": SNAPSHOT_VERSION,
        "metrics": get_registry().dump_state(),
        # None while event recording is disabled; plain dicts otherwise.
        "events": dump_events_state(),
    }


def merge_snapshot(
    snapshot: Dict[str, object],
    under: str = "",
    clock_offset: float = 0.0,
    attrs: Optional[Dict[str, str]] = None,
) -> None:
    """Fold a :func:`dump_snapshot` payload into this process's state.

    ``under`` re-roots the worker's spans: a worker span with path
    ``program:gcc/simulate`` merged with ``under="pipeline/worker:gcc"``
    lands as ``pipeline/worker:gcc/program:gcc/simulate``.
    ``clock_offset`` is added to every span's ``start_s`` so timelines
    recorded against the worker's ``perf_counter`` epoch line up with
    the parent's.  ``attrs`` (e.g. ``{"worker": "gcc"}``) are stamped
    onto every grafted span that does not already carry the key.
    """
    version = snapshot.get("version")
    if version != SNAPSHOT_VERSION:
        raise ValueError(f"unsupported snapshot version {version!r}")
    registry = get_registry()
    # .get throughout: a worker that died mid-task can ship a payload
    # missing whole sections; merge what survived.
    state = snapshot.get("metrics") or {}
    registry.merge_state(state)
    for record in state.get("spans", []):
        merged_attrs = dict(record.attrs)
        for key, value in (attrs or {}).items():
            merged_attrs.setdefault(key, value)
        registry.add_span(SpanRecord(
            name=record.name,
            path=f"{under}/{record.path}" if under else record.path,
            parent=(f"{under}/{record.parent}" if record.parent else under)
            if under else record.parent,
            start_s=record.start_s + clock_offset,
            duration_s=record.duration_s,
            error=record.error,
            attrs=merged_attrs,
        ))
    merge_events_state(
        snapshot.get("events"),
        clock_offset=clock_offset,
        worker=(attrs or {}).get("worker", ""),
    )
