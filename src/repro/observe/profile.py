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

The metrics registry is the one store of the samples: each run's
samples are added to ``profile.cpu.opcode.<MNEMONIC>`` /
``profile.engine.event.<KIND>`` counters, with the strides in the
``profile.*.stride`` gauges, so they travel inside run manifests, merge
across pool workers like every other counter, and can be diffed.
Samples are therefore recorded only while observation is also on.
``repro-experiments show`` renders them as top-N tables; sampled counts
are estimates (multiply by the stride to approximate true dynamic
counts).  The default stride is prime so the sample cannot alias with
loop periodicity in the workload.

Enable with :func:`enable_profiling` or the CLI's ``--profile`` flag.
"""

from __future__ import annotations

from typing import Dict

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
    """The sample strides, and the flush of one run's samples into the
    registry's ``profile.*`` counters."""

    def __init__(self) -> None:
        self.cpu_stride = 0
        self.engine_stride = 0

    # -- recording (called once per run, never per iteration) -----------

    def record_cpu(self, samples: Dict[int, int]) -> None:
        """Add one run's opcode samples to the ``profile.cpu.*`` metrics."""
        names = _opcode_names()
        for opcode, count in samples.items():
            name = names.get(opcode, f"op{opcode}")
            _metrics.inc(f"profile.cpu.opcode.{name}", count)
        _metrics.set_gauge("profile.cpu.stride", self.cpu_stride)

    def record_engine(self, samples: Dict[int, int]) -> None:
        """Add one run's event-kind samples to the ``profile.engine.*``
        metrics."""
        names = _event_kind_names()
        for kind, count in samples.items():
            name = names.get(kind, f"kind{kind}")
            _metrics.inc(f"profile.engine.event.{name}", count)
        _metrics.set_gauge("profile.engine.stride", self.engine_stride)


# ---------------------------------------------------------------------------
# Module-level switch + singleton (mirrors repro.observe.metrics)
# ---------------------------------------------------------------------------

_PROFILER = SampleProfile()
_PROFILING = False


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
    """The process-wide profiler the hot layers flush their samples into."""
    return _PROFILER


def cpu_sample_stride() -> int:
    """The CPU loop's sample stride, or 0 while profiling is disabled."""
    return _PROFILER.cpu_stride if _PROFILING else 0


def engine_sample_stride() -> int:
    """The engine's sample stride, or 0 while profiling is disabled."""
    return _PROFILER.engine_stride if _PROFILING else 0
