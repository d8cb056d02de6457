"""Process-local metrics: counters, gauges, histograms, and notes.

Observation is **off by default**.  Every module-level recording helper
(:func:`inc`, :func:`set_gauge`, :func:`observe_value`, :func:`note`)
checks one module global and returns immediately when disabled, so an
instrumented call site costs a single function call and branch.  The hot
layers go further and hoist that check out of their loops entirely: the
CPU dispatch loop and the one-pass simulation engine record *summaries
after the run*, never per event, so the disabled path adds O(1) work per
run (guarded by ``benchmarks/test_observe_overhead.py``).

The registry is process-local and shared: :func:`get_registry` returns
the singleton that spans, the pipeline, and the CLI all write into, and
that :class:`~repro.observe.manifest.RunManifest` snapshots at the end
of a run.  Increments take the registry lock, so concurrent writers
(e.g. a future threaded pipeline) cannot lose updates.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Union

Number = Union[int, float]


class Counter:
    """A monotonically increasing count (events seen, cache hits, ...)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self.value = 0
        self._lock = lock

    def inc(self, amount: Number = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        with self._lock:
            self.value += amount


class Gauge:
    """A point-in-time value; ``set`` overwrites (last write wins)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self.value: Number = 0
        self._lock = lock

    def set(self, value: Number) -> None:
        """Record the current value of the measured quantity."""
        with self._lock:
            self.value = value


class Histogram:
    """A distribution of observed values with on-demand summary stats."""

    __slots__ = ("name", "values", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self.values: List[float] = []
        self._lock = lock

    def observe(self, value: Number) -> None:
        """Record one observation."""
        with self._lock:
            self.values.append(float(value))

    @property
    def count(self) -> int:
        return len(self.values)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile of the observations (q in [0, 100])."""
        if not self.values:
            raise ValueError(f"histogram {self.name}: no observations")
        ordered = sorted(self.values)
        rank = min(len(ordered) - 1, max(0, round(q / 100.0 * (len(ordered) - 1))))
        return ordered[rank]

    def summary(self) -> Dict[str, float]:
        """count/min/max/mean/p50/p90/p95/p99/total of the observations."""
        if not self.values:
            return {"count": 0}
        return {
            "count": len(self.values),
            "min": min(self.values),
            "max": max(self.values),
            "mean": sum(self.values) / len(self.values),
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "total": sum(self.values),
        }


class MetricsRegistry:
    """All metrics for one process: named counters, gauges, histograms,
    free-form note lists, and completed span records.

    Metric creation and increments share one lock; disabled runs never
    reach the registry at all (the module-level helpers gate on
    :func:`is_enabled`).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        #: key -> list of strings (e.g. cache file names a run touched).
        self.notes: Dict[str, List[str]] = {}
        #: Completed :class:`~repro.observe.spans.SpanRecord` objects.
        self.spans: List[object] = []

    # -- metric accessors (create on first use) -------------------------

    def counter(self, name: str) -> Counter:
        """The counter named ``name``, created on first use."""
        counter = self.counters.get(name)
        if counter is None:
            with self._lock:
                counter = self.counters.setdefault(name, Counter(name, self._lock))
        return counter

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name``, created on first use."""
        gauge = self.gauges.get(name)
        if gauge is None:
            with self._lock:
                gauge = self.gauges.setdefault(name, Gauge(name, self._lock))
        return gauge

    def histogram(self, name: str) -> Histogram:
        """The histogram named ``name``, created on first use."""
        histogram = self.histograms.get(name)
        if histogram is None:
            with self._lock:
                histogram = self.histograms.setdefault(
                    name, Histogram(name, self._lock)
                )
        return histogram

    # -- recording shortcuts --------------------------------------------

    def inc(self, name: str, amount: Number = 1) -> None:
        """Increment counter ``name`` by ``amount``."""
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: Number) -> None:
        """Set gauge ``name`` to ``value``."""
        self.gauge(name).set(value)

    def observe_value(self, name: str, value: Number) -> None:
        """Record ``value`` into histogram ``name``."""
        self.histogram(name).observe(value)

    def note(self, key: str, value: str) -> None:
        """Append ``value`` to the note list under ``key``."""
        with self._lock:
            self.notes.setdefault(key, []).append(str(value))

    def add_span(self, record) -> None:
        """Append a completed span record."""
        with self._lock:
            self.spans.append(record)

    # -- export ----------------------------------------------------------

    def dump_state(self) -> Dict[str, object]:
        """A picklable raw dump of everything recorded so far.

        Unlike :meth:`snapshot` this keeps histograms as their raw
        observation lists and spans as live
        :class:`~repro.observe.spans.SpanRecord` objects, so a worker
        process can ship its registry to the parent and the parent can
        merge it losslessly (percentiles recompute over the union).
        """
        with self._lock:
            return {
                "counters": {n: c.value for n, c in self.counters.items()},
                "gauges": {n: g.value for n, g in self.gauges.items()},
                "histograms": {n: list(h.values) for n, h in self.histograms.items()},
                "notes": {k: list(v) for k, v in self.notes.items()},
                "spans": list(self.spans),
            }

    def merge_state(self, state: Dict[str, object]) -> None:
        """Fold a :meth:`dump_state` payload into this registry.

        Counters add, gauges last-write-win, histogram observations and
        note lists append.  Spans are *not* merged here — their paths
        usually need re-rooting first; see
        :func:`repro.observe.snapshot.merge_snapshot`.
        """
        for name, value in state.get("counters", {}).items():
            self.inc(name, value)
        for name, value in state.get("gauges", {}).items():
            self.set_gauge(name, value)
        for name, values in state.get("histograms", {}).items():
            histogram = self.histogram(name)
            for value in values:
                histogram.observe(value)
        for key, values in state.get("notes", {}).items():
            for value in values:
                self.note(key, value)

    def snapshot(self) -> Dict[str, object]:
        """A plain-JSON view of everything recorded so far."""
        with self._lock:
            return {
                "counters": {n: c.value for n, c in sorted(self.counters.items())},
                "gauges": {n: g.value for n, g in sorted(self.gauges.items())},
                "histograms": {
                    n: h.summary() for n, h in sorted(self.histograms.items())
                },
                "notes": {k: list(v) for k, v in sorted(self.notes.items())},
                "spans": [s.to_dict() for s in self.spans],
            }

    def reset(self) -> None:
        """Drop every metric, note, and span (tests, fresh runs)."""
        with self._lock:
            self.counters.clear()
            self.gauges.clear()
            self.histograms.clear()
            self.notes.clear()
            self.spans.clear()


# ---------------------------------------------------------------------------
# Module-level switch + singleton
# ---------------------------------------------------------------------------

_ENABLED = False
_REGISTRY = MetricsRegistry()


def is_enabled() -> bool:
    """Whether observation is on (see :func:`enable`)."""
    return _ENABLED


def enable() -> None:
    """Turn observation on for this process."""
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    """Turn observation off for this process."""
    global _ENABLED
    _ENABLED = False


def get_registry() -> MetricsRegistry:
    """The process-wide registry all instrumented layers write into."""
    return _REGISTRY


#: Callbacks run by :func:`reset` so sibling modules (span stacks,
#: sampling profiles) clear their own process state alongside the
#: registry without this module importing them (they import us).
_RESET_HOOKS: List[Callable[[], None]] = []


def register_reset_hook(hook: Callable[[], None]) -> None:
    """Run ``hook`` on every :func:`reset` (idempotent per function)."""
    if hook not in _RESET_HOOKS:
        _RESET_HOOKS.append(hook)


def reset() -> None:
    """Clear the process-wide registry *and* sibling observation state
    (open-span stacks, sampling profiles); enablement is unchanged."""
    _REGISTRY.reset()
    for hook in _RESET_HOOKS:
        hook()


# -- no-op-when-disabled recording helpers (the instrumented call sites) ----

def inc(name: str, amount: Number = 1) -> None:
    """Increment counter ``name``; no-op while observation is disabled."""
    if _ENABLED:
        _REGISTRY.inc(name, amount)


def set_gauge(name: str, value: Number) -> None:
    """Set gauge ``name``; no-op while observation is disabled."""
    if _ENABLED:
        _REGISTRY.set_gauge(name, value)


def observe_value(name: str, value: Number) -> None:
    """Record into histogram ``name``; no-op while observation is disabled."""
    if _ENABLED:
        _REGISTRY.observe_value(name, value)


def note(key: str, value: str) -> None:
    """Append to note list ``key``; no-op while observation is disabled."""
    if _ENABLED:
        _REGISTRY.note(key, value)
