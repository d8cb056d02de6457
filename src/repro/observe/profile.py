"""Sampling profiler for the two hot loops.

The CPU dispatch loop and the one-pass simulation engine are the only
places this repository burns serious cycles, and both are deliberately
free of per-iteration instrumentation (``docs/OBSERVABILITY.md``).  This
module answers "where do those cycles go?" without breaking that rule:

* **CPU** — :mod:`repro.machine.cpu` piggybacks on the instruction-budget
  comparison its loop already performs: when profiling is on, the budget
  checkpoint fires every ``stride`` instructions and records the opcode
  executing at that instant.  A 1-in-``stride`` systematic sample of the
  dynamic opcode mix, at the cost of re-arming one local integer — and
  with profiling off the checkpoint *is* the budget check, so the
  disabled loop is byte-for-byte the pre-profiler loop.
* **engine** — :func:`repro.simulate.simulate_sessions`, the phase-2
  shell, samples the whole trace's packed ``kinds`` column with an
  extended slice (``kinds[::stride]``) *after* the pass, whichever
  kernel ran it, so neither event loop is touched and the disabled path
  stays one function call per run (under the <3% guard in
  ``benchmarks/test_observe_overhead.py``).

Sampled counts are estimates: multiply by the stride to approximate
true dynamic counts (the report does this).  The default stride is
prime so the sample cannot alias with loop periodicity in the workload.

Enable with :func:`enable_profiling`, ``REPRO_PROFILE=1`` (or
``REPRO_PROFILE=<stride>``), or the CLI's ``--profile`` flag.  When
observation (:mod:`repro.observe.metrics`) is also enabled, samples are
mirrored into the registry as ``profile.cpu.opcode.<MNEMONIC>`` /
``profile.engine.event.<KIND>`` counters plus ``profile.*.stride``
gauges, so they travel inside run manifests and can be diffed.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Tuple

from repro.observe import metrics as _metrics

#: Prime, so 1-in-N sampling cannot lock onto loop periodicity.
DEFAULT_SAMPLE_STRIDE = 97


def _opcode_names() -> Dict[int, str]:
    # Lazy: repro.machine imports repro.observe, so a top-level import
    # here would be circular.
    from repro.machine import isa

    return isa.OPCODE_NAMES


def _event_kind_names() -> Dict[int, str]:
    from repro.trace.events import EventKind

    return {int(kind): kind.name for kind in EventKind}


class SampleProfile:
    """Accumulated opcode/event-kind samples for one process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.cpu_stride = 0
        self.engine_stride = 0
        #: opcode int -> number of samples (multiply by stride to estimate).
        self.cpu_opcodes: Dict[int, int] = {}
        #: event-kind int -> number of samples.
        self.engine_events: Dict[int, int] = {}

    # -- recording (called once per run, never per iteration) -----------

    def record_cpu(self, samples: Dict[int, int]) -> None:
        """Merge one run's opcode samples; mirror into the metrics registry."""
        names = _opcode_names()
        with self._lock:
            for opcode, count in samples.items():
                self.cpu_opcodes[opcode] = self.cpu_opcodes.get(opcode, 0) + count
        for opcode, count in samples.items():
            name = names.get(opcode, f"op{opcode}")
            _metrics.inc(f"profile.cpu.opcode.{name}", count)
        _metrics.set_gauge("profile.cpu.stride", self.cpu_stride)

    def record_engine(self, samples: Dict[int, int]) -> None:
        """Merge one run's event-kind samples; mirror into the registry."""
        names = _event_kind_names()
        with self._lock:
            for kind, count in samples.items():
                self.engine_events[kind] = self.engine_events.get(kind, 0) + count
        for kind, count in samples.items():
            name = names.get(kind, f"kind{kind}")
            _metrics.inc(f"profile.engine.event.{name}", count)
        _metrics.set_gauge("profile.engine.stride", self.engine_stride)

    def merge_samples(
        self,
        cpu_opcodes: Dict[int, int],
        engine_events: Dict[int, int],
    ) -> None:
        """Fold another process's raw samples into this store.

        Unlike :meth:`record_cpu`/:meth:`record_engine` this does *not*
        mirror into the metrics registry: a worker already mirrored its
        samples as ``profile.*`` counters, and those counters are merged
        separately, so mirroring again would double-count.
        """
        with self._lock:
            for opcode, count in cpu_opcodes.items():
                self.cpu_opcodes[opcode] = self.cpu_opcodes.get(opcode, 0) + count
            for kind, count in engine_events.items():
                self.engine_events[kind] = self.engine_events.get(kind, 0) + count

    # -- views -----------------------------------------------------------

    def top_opcodes(self, n: int = 10) -> List[Tuple[str, int, int]]:
        """Top-``n`` opcodes as ``(mnemonic, samples, estimated_count)``."""
        names = _opcode_names()
        with self._lock:
            ranked = sorted(self.cpu_opcodes.items(), key=lambda kv: -kv[1])[:n]
        stride = self.cpu_stride or 1
        return [
            (names.get(op, f"op{op}"), count, count * stride)
            for op, count in ranked
        ]

    def top_events(self, n: int = 10) -> List[Tuple[str, int, int]]:
        """Top-``n`` event kinds as ``(name, samples, estimated_count)``."""
        names = _event_kind_names()
        with self._lock:
            ranked = sorted(self.engine_events.items(), key=lambda kv: -kv[1])[:n]
        stride = self.engine_stride or 1
        return [
            (names.get(kind, f"kind{kind}"), count, count * stride)
            for kind, count in ranked
        ]

    def snapshot(self) -> Dict[str, object]:
        """Plain-JSON view of the accumulated samples."""
        opcode_names = _opcode_names()
        event_names = _event_kind_names()
        with self._lock:
            return {
                "cpu_stride": self.cpu_stride,
                "engine_stride": self.engine_stride,
                "cpu_opcodes": {
                    opcode_names.get(op, f"op{op}"): count
                    for op, count in sorted(self.cpu_opcodes.items())
                },
                "engine_events": {
                    event_names.get(kind, f"kind{kind}"): count
                    for kind, count in sorted(self.engine_events.items())
                },
            }

    def reset(self) -> None:
        """Drop accumulated samples (strides/enablement unchanged)."""
        with self._lock:
            self.cpu_opcodes.clear()
            self.engine_events.clear()


# ---------------------------------------------------------------------------
# Module-level switch + singleton (mirrors repro.observe.metrics)
# ---------------------------------------------------------------------------

_PROFILER = SampleProfile()
_PROFILING = False


def _parse_env_stride(raw: str) -> int:
    raw = raw.strip().lower()
    if raw in ("", "0", "false", "no", "off"):
        return 0
    if raw in ("1", "true", "yes", "on"):
        return DEFAULT_SAMPLE_STRIDE
    try:
        return max(1, int(raw))
    except ValueError:
        return DEFAULT_SAMPLE_STRIDE


def is_profiling() -> bool:
    """Whether sampling profiling is on for this process."""
    return _PROFILING


def enable_profiling(stride: int = DEFAULT_SAMPLE_STRIDE) -> None:
    """Turn profiling on with a 1-in-``stride`` sample rate."""
    global _PROFILING
    if stride < 1:
        raise ValueError(f"sample stride must be >= 1, got {stride}")
    _PROFILER.cpu_stride = stride
    _PROFILER.engine_stride = stride
    _PROFILING = True


def disable_profiling() -> None:
    """Turn profiling off for this process."""
    global _PROFILING
    _PROFILING = False
    _PROFILER.cpu_stride = 0
    _PROFILER.engine_stride = 0


def get_profiler() -> SampleProfile:
    """The process-wide sample store the hot layers flush into."""
    return _PROFILER


def cpu_sample_stride() -> int:
    """The CPU loop's sample stride, or 0 while profiling is disabled."""
    return _PROFILER.cpu_stride if _PROFILING else 0


def engine_sample_stride() -> int:
    """The engine's sample stride, or 0 while profiling is disabled."""
    return _PROFILER.engine_stride if _PROFILING else 0


def reset_profile() -> None:
    """Clear accumulated samples (does not change enablement)."""
    _PROFILER.reset()


# observe.reset() clears profiles along with metrics and span state.
_metrics.register_reset_hook(reset_profile)

_env = os.environ.get("REPRO_PROFILE")
if _env is not None:
    _stride = _parse_env_stride(_env)
    if _stride:
        enable_profiling(_stride)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render_profile_report(top_n: int = 10) -> str:
    """Top-``top_n`` opcodes and event kinds with estimated shares."""
    profiler = get_profiler()
    sections = ["Sampling profile"]

    def _table(
        title: str, rows: List[Tuple[str, int, int]], stride: int, total: int
    ) -> str:
        total = total or 1
        lines = [f"{title} (1-in-{stride} sampled)"]
        lines.append(f"  {'name':<12} {'samples':>8} {'~count':>12} {'share':>7}")
        for name, samples, estimate in rows:
            lines.append(
                f"  {name:<12} {samples:>8,} {estimate:>12,} "
                f"{100.0 * samples / total:>6.1f}%"
            )
        return "\n".join(lines)

    opcodes = profiler.top_opcodes(top_n)
    if opcodes:
        sections.append(_table(
            "CPU opcodes", opcodes, profiler.cpu_stride or 1,
            sum(profiler.cpu_opcodes.values()),
        ))
    events = profiler.top_events(top_n)
    if events:
        sections.append(_table(
            "Engine events", events, profiler.engine_stride or 1,
            sum(profiler.engine_events.values()),
        ))
    if len(sections) == 1:
        sections.append("(no samples recorded — is profiling enabled?)")
    return "\n\n".join(sections)
