#!/usr/bin/env python
"""Fast path vs reference loop: identity check over the workloads.

Every run replaces ``Cpu._execute`` so that each CPU segment calls one
of the CPU's two loop methods directly: once the reference loop
(``Cpu._loop``) and once the function-compiled fast path
(``Cpu._fast_loop``).  Three kinds of run are compared:

* **phase 1** of each workload (``run_workload``, unwatched functions):
  the runs must agree byte for byte on the trace columns, and exactly
  on the trace meta, the :class:`~repro.trace.objects.ObjectRegistry`
  objects, the :class:`~repro.machine.cpu.CpuState` (cycles included)
  and the program output.  Each run's trace is also saved with
  ``save_trace`` and read back with ``load_trace``; the fast path's
  round-tripped trace must equal the reference loop's in-memory one;
* a **bare run** of each workload (``Cpu.run`` with no tracer, the
  unwatched functions without frame or store records): the runs must
  agree on the ``CpuState``, memory and output;
* **debugger sessions** on gcc (watched functions), one per approach of
  the ``live`` benchmark workload (NH, VM-4K, VM-8K, TP and CP), each
  watching the same global, local and heap object, and one VM-4K
  session watching the heap object only, which starts on the unwatched
  functions and switches to the watched ones inside malloc, in the
  middle of a chain of direct calls: the runs must agree on the hits,
  ``WmsStats``, notifications, breakpoint events, CPU counters and trap
  counts, ``SimOs`` counters, protected pages, memory and output.  A
  session under VM, TP or CP also counts the calls of its strategy's
  handler (``HANDLERS``), printed beside its hits: on the fast path the
  watched compiled code runs every monitor miss in place, so the
  handler must run once per hit and no more.  The reference loop runs
  it on every event, so the count is not compared across the loops;
* **page-size sessions** on bps, VM-4K and VM-8K, watching
  ``PAGE_SIZE_WATCHES``, whose pages take different stores under the
  two page sizes (gcc's watches do not at smoke scale); compared as the
  debugger sessions are.

    PYTHONPATH=src python tools/check_fast_path.py --scale full

prints one line per run pair and exits non-zero on the first mismatch.
``tests/machine/test_fast_path.py`` and
``tests/debugger/test_fast_tier_sessions.py`` run the same checks at
smoke scale.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import pickle
import random
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

PROGRAMS = ("bps", "ctex", "gcc", "qcd", "spice")
LOOPS = ("_loop", "_fast_loop")
#: The live workload's approaches: label, strategy, page size.
APPROACHES = (
    ("NH", "native", 4096),
    ("VM-4K", "vm", 4096),
    ("VM-8K", "vm", 8192),
    ("TP", "trap", 4096),
    ("CP", "code", 4096),
)
#: gcc's session watches: a global, a local ("function.variable") and
#: the object a function's allocation of that ordinal returns.
GCC_WATCHES = {"global": "n_folds", "local": "mix.h", "heap": ("ob_alloc", 0)}
#: The heap-only session: label, strategy, page size and its one watch.
HEAP_ONLY = ("heap-only VM-4K", "vm", 4096, {"heap": GCC_WATCHES["heap"]})
#: bps's page-size watches: every watch is hit, and the VM-4K and VM-8K
#: sessions take different faults.
PAGE_SIZE_WATCHES = {"global": "open_heap", "local": "node_score.likelihood",
                     "heap": ("main", 0)}
#: The VM approaches the page-size sessions run under.
VM_APPROACHES = tuple(a for a in APPROACHES if a[1] == "vm")
#: A stopping session turns its breakpoints to logging after this many
#: stops, so every session finishes.
MAX_STOPS = 40
#: Strategy -> the class and name of the handler its events reach; the
#: watched compiled code runs that handler's misses in place.
HANDLERS = {"vm": ("VirtualMemoryWms", "_handle_fault"),
            "trap": ("TrapPatchWms", "_handle_trap"),
            "code": ("CodePatchWms", "_check")}


@contextlib.contextmanager
def on_loop(loop: str):
    """Run every CPU segment inside the block on the loop method
    ``loop``; yields a one-item list that accumulates their seconds."""
    from repro.machine.cpu import Cpu

    seconds = [0.0]

    def execute(cpu, start_pc, max_instructions):
        started = time.perf_counter()
        try:
            return getattr(cpu, loop)(start_pc, max_instructions)
        finally:
            seconds[0] += time.perf_counter() - started

    chosen = Cpu._execute
    Cpu._execute = execute
    try:
        yield seconds
    finally:
        Cpu._execute = chosen


@contextlib.contextmanager
def handler_calls():
    """Count, inside the block, the calls of each strategy's handler in
    ``HANDLERS``; yields a dict strategy -> calls.  The handlers are
    wrapped on their classes, so a WMS built inside the block installs
    (and registers its miss path for) the wrapped one."""
    import repro.core as core

    calls = {strategy: 0 for strategy in HANDLERS}
    saved = []
    for strategy, (class_name, name) in HANDLERS.items():
        owner = getattr(core, class_name)
        original = owner.__dict__[name]

        def counted(*args, _original=original, _strategy=strategy):
            calls[_strategy] += 1
            return _original(*args)

        saved.append((owner, name, original))
        setattr(owner, name, counted)
    try:
        yield calls
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)


def traced_run(name: str, scale: str, loop: str) -> dict:
    """Phase 1 of workload ``name`` at ``scale`` ("smoke" or "full"),
    through :func:`~repro.workloads.base.run_workload` with every CPU
    segment on the loop method ``loop``; the comparable parts of the
    result."""
    from repro.workloads import get_workload
    from repro.workloads.base import run_workload

    from repro.trace import load_trace, save_trace

    workload = get_workload(name)
    size = workload.smoke_scale if scale == "smoke" else workload.default_scale
    with on_loop(loop) as seconds:
        run = run_workload(workload, size)
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / f"{name}.npz"
        save_trace(run.trace, run.registry, path)
        saved = _trace_parts(*load_trace(path))
    return {
        **_trace_parts(run.trace, run.registry),
        "saved": saved,
        "state": vars(run.state),
        "output": run.output,
        "seconds": seconds[0],
    }


def bare_run(name: str, scale: str, loop: str) -> dict:
    """Workload ``name`` at ``scale`` run with no tracer, every CPU
    segment on the loop method ``loop``; the comparable parts."""
    from repro.machine import Cpu, Memory, load_program
    from repro.minic.runtime import Runtime
    from repro.workloads import get_workload

    workload = get_workload(name)
    size = workload.smoke_scale if scale == "smoke" else workload.default_scale
    program = _program(name, scale)
    memory = Memory(program.layout)
    cpu = Cpu(memory, layout=program.layout)
    runtime = Runtime(cpu, program.layout)
    runtime.install()
    cpu.attach(load_program(program, program.layout))
    workload.setup(memory, cpu.loaded_program, size)
    with on_loop(loop) as seconds:
        state = cpu.run("main", ())
    workload.check(state, runtime, size)
    return {
        "state": vars(state),
        "memory": hashlib.sha256(pickle.dumps(memory.words, 5)).hexdigest(),
        "output": list(runtime.output),
        "seconds": seconds[0],
    }


def _trace_parts(trace, registry) -> dict:
    """The comparable parts of a trace and its object registry."""
    digest = hashlib.sha256()
    for column in trace.as_arrays():
        digest.update(column.tobytes())
    return {
        "columns": digest.hexdigest(),
        "meta": vars(trace.meta),
        "registry": [vars(obj) for obj in registry.objects],
    }


@functools.lru_cache(maxsize=None)
def _program(name: str, scale: str):
    """Workload ``name`` compiled at ``scale`` (sessions do not modify it)."""
    from repro.workloads import get_workload

    workload = get_workload(name)
    return workload.compile(workload.smoke_scale if scale == "smoke" else workload.default_scale)


def pick_watches(name: str, scale: str, seed: int) -> dict:
    """A seeded global, local and heap watch for workload ``name`` (the
    heap watch is the ``main``-context allocation of a small ordinal)."""
    from repro.machine.loader import load_program

    image = load_program(_program(name, scale))
    rng = random.Random(seed)
    globals_ = sorted(var.name for var in image.global_vars
                      if getattr(var, "owner_function", None) is None)
    locals_ = sorted(f"{func.name}.{var.name}" for func in image.functions
                     for var in func.frame_vars())
    return {"global": rng.choice(globals_), "local": rng.choice(locals_),
            "heap": ("main", rng.randrange(4))}


def live_run(name: str, scale: str, loop: str, strategy: str, page_size: int,
             watches: dict, stop: bool = False) -> dict:
    """One debugger session on workload ``name`` at ``scale`` under
    ``strategy`` with ``watches`` (any of the global, local and heap
    watch), every CPU segment on the loop method ``loop``; the
    comparable parts of the session, and the calls of the strategy's
    handler (``None`` under NH).

    With ``stop`` the watches stop instead of logging, a control
    breakpoint stops at the local watch's function, and the session is
    continued until it finishes; each stop is recorded, with the CPU's
    counters, ``sp`` and ``fp`` and every frame's linkage and registers.
    """
    from repro.debugger import Debugger
    from repro.debugger.breakpoints import BreakpointAction
    from repro.workloads import get_workload

    workload = get_workload(name)
    size = workload.smoke_scale if scale == "smoke" else workload.default_scale
    program = _program(name, scale)
    action = "stop" if stop else "log"
    stops, error, state = [], None, None
    with on_loop(loop) as seconds, handler_calls() as calls:
        debugger = Debugger(program, strategy=strategy, page_size=page_size)
        workload.setup(debugger.memory, debugger.image, size)
        breakpoints = []
        if "global" in watches:
            breakpoints.append(debugger.watch_global(watches["global"], action=action))
        if "local" in watches:
            func, var = watches["local"].split(".", 1)
            breakpoints.append(debugger.watch_local(func, var, action=action))
            if stop:
                breakpoints.append(debugger.break_at(func))
        if "heap" in watches:
            context, ordinal = watches["heap"]
            breakpoints.append(
                debugger.watch_heap(context, alloc_ordinal=ordinal, action=action))
        cpu = debugger.cpu
        try:
            outcome = debugger.run()
            while outcome.stopped:
                info = outcome.stop
                frames = tuple((f.func.name, f.ret_pc, f.saved_fp, f.dest_reg, tuple(f.regs))
                               for f in cpu.frames)
                stops.append((info.breakpoint.id, info.pc, info.location,
                              tuple(info.call_stack), repr(info.event.value),
                              cpu.instructions, cpu.cycles, cpu.stores,
                              cpu.sp, cpu.fp, frames))
                if len(stops) == MAX_STOPS:
                    for bp in breakpoints:
                        bp.action = BreakpointAction.LOG
                outcome = debugger.cont()
            state = vars(outcome.state)
        except Exception as exc:  # compared across loops
            error = f"{type(exc).__name__}: {exc}"
    wms = debugger.wms
    return {
        "error": error,
        "state": state,
        "stops": stops,
        "counters": (cpu.instructions, cpu.cycles, cpu.stores, dict(cpu.trap_counts)),
        "hits": [bp.hit_count for bp in breakpoints],
        "stats": vars(wms.stats),
        "notifications": [
            (n.begin, n.end, n.pc, repr(n.value), [(m.begin, m.end) for m in n.monitors])
            for n in wms.notifications
        ],
        "events": [
            (e.breakpoint.id, e.pc, e.location, e.address, repr(e.value), e.call_stack)
            for e in debugger.events
        ],
        "os": dict(debugger.os.counters),
        "protected": sorted(cpu.page_table.write_protected),
        "memory": hashlib.sha256(pickle.dumps(debugger.memory.words, 5)).hexdigest(),
        "output": list(debugger.output),
        "handler_calls": calls.get(strategy),
        "seconds": seconds[0],
    }


def mismatches(reference: dict, fast: dict) -> list:
    """Names of the parts on which two run results differ; a phase-1
    run's ``saved`` (round-tripped) trace must equal the reference
    loop's in-memory trace."""
    differ = [key for key in reference
              if key not in ("seconds", "saved", "handler_calls")
              and reference[key] != fast[key]]
    if "saved" in fast and fast["saved"] != {key: reference[key] for key in fast["saved"]}:
        differ.append("saved")
    return differ


def _report(label: str, work: str, reference: dict, fast: dict) -> bool:
    """Print one run pair; false when they differ or, in a session, a
    fast-path miss reached the strategy's handler."""
    differ = mismatches(reference, fast)
    verdict = "MISMATCH: " + ", ".join(differ) if differ else "identical"
    calls = fast.get("handler_calls")
    if calls is not None:
        hits = fast["stats"]["hits"]
        verdict += f"  handler {calls} calls / {hits} hits"
        if calls != hits:
            verdict += f"  MISSES REACHED THE HANDLER: {calls - hits}"
    print(f"{label:19s} {work:>24s}  reference {reference['seconds']:6.2f} s  "
          f"fast {fast['seconds']:6.2f} s  {verdict}")
    return not differ and (calls is None or calls == fast["stats"]["hits"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=("smoke", "full"), default="full")
    parser.add_argument("--programs", nargs="+", choices=PROGRAMS, default=PROGRAMS)
    args = parser.parse_args(argv)
    for name in args.programs:
        for label, run in ((name, traced_run), (f"{name} bare", bare_run)):
            reference, fast = (run(name, args.scale, loop) for loop in LOOPS)
            work = f"{reference['state']['instructions']} instructions"
            if not _report(label, work, reference, fast):
                return 1
    if "gcc" in args.programs:
        for label, strategy, page_size in APPROACHES:
            reference, fast = (
                live_run("gcc", args.scale, loop, strategy, page_size, GCC_WATCHES)
                for loop in LOOPS
            )
            work = f"{sum(reference['hits'])} hits"
            if not _report(f"gcc {label}", work, reference, fast):
                return 1
        label, strategy, page_size, watches = HEAP_ONLY
        reference, fast = (
            live_run("gcc", args.scale, loop, strategy, page_size, watches)
            for loop in LOOPS
        )
        if not _report(f"gcc {label}", f"{sum(reference['hits'])} hits", reference, fast):
            return 1
    if "bps" in args.programs:
        for label, strategy, page_size in VM_APPROACHES:
            reference, fast = (
                live_run("bps", args.scale, loop, strategy, page_size, PAGE_SIZE_WATCHES)
                for loop in LOOPS
            )
            work = f"{reference['os']['faults_delivered']} faults"
            if not _report(f"bps {label}", work, reference, fast):
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
