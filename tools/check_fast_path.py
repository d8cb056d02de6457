#!/usr/bin/env python
"""Fast path vs reference loop: byte-identity check over the workloads.

Runs phase 1 of each workload (``run_workload``) twice, with
``Cpu._execute`` replaced so that every segment calls one of the CPU's
two loop methods directly: once the reference loop (``Cpu._loop``) and
once the block-compiled fast path (``Cpu._fast_loop``).  The runs must
agree byte for byte on the trace columns, and exactly on the trace
meta, the :class:`~repro.trace.objects.ObjectRegistry` objects, the
:class:`~repro.machine.cpu.CpuState` (cycles included) and the program
output.

    PYTHONPATH=src python tools/check_fast_path.py --scale full

prints one line per program and exits non-zero on the first mismatch.
``tests/machine/test_fast_path.py`` runs the same check at smoke scale.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

PROGRAMS = ("bps", "ctex", "gcc", "qcd", "spice")
LOOPS = ("_loop", "_fast_loop")


def traced_run(name: str, scale: str, loop: str) -> dict:
    """Phase 1 of workload ``name`` at ``scale`` ("smoke" or "full"),
    through :func:`~repro.workloads.base.run_workload` with every CPU
    segment on the loop method ``loop``; the comparable parts of the
    result."""
    from repro.machine.cpu import Cpu
    from repro.workloads import get_workload
    from repro.workloads.base import run_workload

    workload = get_workload(name)
    size = workload.smoke_scale if scale == "smoke" else workload.default_scale
    seconds = 0.0

    def execute(cpu, start_pc, max_instructions):
        nonlocal seconds
        started = time.perf_counter()
        try:
            return getattr(cpu, loop)(start_pc, max_instructions)
        finally:
            seconds += time.perf_counter() - started

    chosen = Cpu._execute
    Cpu._execute = execute
    try:
        run = run_workload(workload, size)
    finally:
        Cpu._execute = chosen
    digest = hashlib.sha256()
    for column in run.trace.as_arrays():
        digest.update(column.tobytes())
    return {
        "columns": digest.hexdigest(),
        "meta": vars(run.trace.meta),
        "registry": [vars(obj) for obj in run.registry.objects],
        "state": vars(run.state),
        "output": run.output,
        "seconds": seconds,
    }


def mismatches(reference: dict, fast: dict) -> list:
    """Names of the parts on which two :func:`traced_run` results differ."""
    return [key for key in reference if key != "seconds" and reference[key] != fast[key]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=("smoke", "full"), default="full")
    parser.add_argument("--programs", nargs="+", choices=PROGRAMS, default=PROGRAMS)
    args = parser.parse_args(argv)
    for name in args.programs:
        reference, fast = (traced_run(name, args.scale, loop) for loop in LOOPS)
        differ = mismatches(reference, fast)
        print(f"{name:6s} {reference['state']['instructions']:>10d} instructions  "
              f"reference {reference['seconds']:6.2f} s  fast {fast['seconds']:6.2f} s  "
              f"{'MISMATCH: ' + ', '.join(differ) if differ else 'identical'}")
        if differ:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
