"""Debugger sessions on the fast tier's watched functions vs the reference loop.

Every test runs the same session twice, with each CPU segment calling
``Cpu._loop`` or ``Cpu._fast_loop`` directly, and demands the same
outcome: hits, ``WmsStats``, notifications, breakpoint events, stops,
CPU counters and trap counts, ``SimOs`` counters, protected pages,
memory and output; for errors, the same exception with the same
counters.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro import observe
from repro.core import (
    BitmapMonitorMap,
    CodePatchWms,
    IntervalMonitorMap,
    OptimizedCodePatchWms,
    TrapPatchWms,
    VirtualMemoryWms,
)
from repro.debugger import Debugger
from repro.errors import (
    AlignmentFault,
    CpuLimitExceeded,
    MemoryFault,
    UnhandledFault,
    WmsError,
)
from repro.machine import Cpu, Memory, isa, load_program
from repro.machine.layout import DEFAULT_LAYOUT
from repro.machine.paging import Protection
from repro.machine.traps import TrapKind
from repro.minic.compiler import compile_source
from repro.minic.runtime import Runtime
from repro.sim_os import Signal, SimOs
from repro.trace.tracer import Tracer

LOOPS = ("_loop", "_fast_loop")
GLOBAL = DEFAULT_LAYOUT.global_base


def _load_tool():
    path = Path(__file__).resolve().parents[2] / "tools" / "check_fast_path.py"
    spec = importlib.util.spec_from_file_location("check_fast_path", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TOOL = _load_tool()


def _watches(name):
    """The seeded global, local and heap watch of workload ``name``."""
    return TOOL.pick_watches(name, "smoke", seed=0)


def _both_loops(run, *args, **kwargs):
    """``run(loop, *args, **kwargs)`` on both loops, reference first;
    assert they agree."""
    reference, fast = (run(loop, *args, **kwargs) for loop in LOOPS)
    assert TOOL.mismatches(reference, fast) == []
    return reference, fast


def _both(run, *args, **kwargs):
    """The reference result of :func:`_both_loops`."""
    return _both_loops(run, *args, **kwargs)[0]


# ---------------------------------------------------------------------------
# Whole workloads under every approach
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("approach", TOOL.APPROACHES, ids=[a[0] for a in TOOL.APPROACHES])
@pytest.mark.parametrize("name", TOOL.PROGRAMS)
def test_sessions_identical_at_smoke_scale(name, approach):
    _label, strategy, page_size = approach
    watches = _watches(name)

    def run(loop):
        return TOOL.live_run(name, "smoke", loop, strategy, page_size, watches)

    result = _both(run)
    assert result["error"] is None
    assert sum(result["hits"]) > 0


@pytest.mark.parametrize("approach", TOOL.APPROACHES, ids=[a[0] for a in TOOL.APPROACHES])
def test_stop_sequences_identical_across_run_and_cont(approach):
    _label, strategy, page_size = approach
    watches = _watches("gcc")

    def run(loop):
        return TOOL.live_run("gcc", "smoke", loop, strategy, page_size, watches, stop=True)

    result = _both(run)
    assert result["error"] is None
    assert len(result["stops"]) == TOOL.MAX_STOPS


def test_heap_only_session_switches_tables_inside_a_call_chain(monkeypatch):
    """The heap-only session of the CI check starts on the unwatched
    functions and switches to the watched ones when malloc installs the
    watch, with the allocating function called directly several frames
    deep."""
    tables = []
    function_table = Cpu._function_table

    def spy(self, watched, *args):
        tables.append((watched, [frame.func.name for frame in self.frames]))
        return function_table(self, watched, *args)

    monkeypatch.setattr(Cpu, "_function_table", spy)
    label, strategy, page_size, watches = TOOL.HEAP_ONLY

    def run(loop):
        return TOOL.live_run("gcc", "smoke", loop, strategy, page_size, watches)

    result = _both(run)
    assert result["error"] is None and result["hits"][0] > 0
    assert [watched for watched, _ in tables] == [False, True]
    assert tables[1][1][-1] == "ob_alloc" and len(tables[1][1]) >= 3


def test_gcc_picks_of_the_ci_check_exist_at_smoke_scale():
    def run(loop):
        return TOOL.live_run("gcc", "smoke", loop, "vm", 4096, TOOL.GCC_WATCHES)

    assert all(_both(run)["hits"])


# ---------------------------------------------------------------------------
# Edge cases
# ---------------------------------------------------------------------------


_COUNTING = compile_source("""
int g;
int h[3];
int main() { int i; for (i = 0; i < 3; i++) { g = g + i; h[i % 3] = g; } return g; }
""", "counting")


def _session(loop, strategy, max_instructions=100_000):
    debugger = Debugger(_COUNTING, strategy=strategy)
    cpu = debugger.cpu
    cpu._execute = getattr(cpu, loop)
    watch = debugger.watch_global("g")
    patched = []  # instruction count at each CHK or TRAP
    if strategy == "code":
        check = cpu.check_hook
        cpu.check_hook = lambda *args: (patched.append(cpu.instructions), check(*args))
    else:
        deliver = cpu.trap_sink
        cpu.trap_sink = lambda *args: (patched.append(cpu.instructions), deliver(*args))
    error = None
    try:
        debugger.run(max_instructions=max_instructions)
    except Exception as exc:  # compared across loops
        error = (type(exc), str(exc))
    return {
        "error": error,
        "counters": (cpu.instructions, cpu.cycles, cpu.stores, dict(cpu.trap_counts)),
        "patched": patched,
        "hits": watch.hit_count,
        "stats": vars(debugger.wms.stats),
        "os": dict(debugger.os.counters),
        "globals": debugger.memory.words[GLOBAL >> 2:(GLOBAL >> 2) + 4],
        "frames": [(f.func.name, list(f.regs)) for f in cpu.frames],
    }


@pytest.mark.parametrize("strategy", ["trap", "code"])
def test_budget_ending_at_and_around_each_chk_or_trap(strategy):
    full = _both(_session, strategy)
    assert full["error"] is None and full["hits"] == 3
    assert len(full["patched"]) == full["counters"][2] > 0
    for at in full["patched"]:
        for budget in (at - 1, at, at + 1):
            result = _both(_session, strategy, max_instructions=budget)
            assert result["error"][0] is CpuLimitExceeded
            assert result["patched"] == [n for n in full["patched"] if n <= budget]


def _hand_program():
    """main: store 7 to an aligned global word, then to a misaligned one."""
    return SimpleNamespace(name="hand", globals=[], functions=[SimpleNamespace(
        name="main", n_regs=4, frame_size=8, params=[], local_vars=[],
        static_vars=[], source_line=0, code=[
            (isa.LDI, 0, GLOBAL), (isa.LDI, 1, 7), (isa.ST, 0, 0, 1),
            (isa.ST, 0, 6, 1), (isa.RET, None),
        ])])


@pytest.mark.parametrize("loop", LOOPS)
def test_misaligned_store_to_a_protected_page_faults_before_trapping(loop):
    image = load_program(_hand_program())
    cpu = Cpu(Memory(image.layout), layout=image.layout)
    Runtime(cpu, image.layout).install()
    cpu.attach(image)
    os = SimOs(cpu)
    os.sigaction(Signal.SIGSEGV, os.emulate)
    cpu.page_table.protect([GLOBAL >> cpu.page_table.page_shift])
    pc = cpu._push_entry(image.function_index("main"), [])
    with pytest.raises(AlignmentFault):
        getattr(cpu, loop)(pc, 1_000)
    assert cpu.trap_counts == {TrapKind.WRITE_FAULT: 1}
    assert (cpu.instructions, cpu.stores) == (4, 1)
    assert cpu.memory.words[GLOBAL >> 2] == 7


class _Boom(Exception):
    pass


_RECURSIVE = compile_source("""
int g;
int f(int n) { int x; x = n; g = g + n; if (n > 0) { x = x + f(n - 1); } return x; }
int main() { return f(5); }
""", "recursive")


def _raising_hooks(loop, raise_on):
    """Enter and exit hooks on ``f`` that raise on calls ``raise_on``.
    The session resumes after an enter hook raises, and ends when an
    exit hook does (it leaves no resume point).  Returns the comparable
    outcome."""
    debugger = Debugger(_RECURSIVE, strategy="vm")
    cpu = debugger.cpu
    cpu._execute = getattr(cpu, loop)
    debugger.watch_global("g")
    calls = []
    f = debugger.image.function_index("f")

    def hook(kind):
        def run(func, frame_base):
            calls.append((kind, frame_base, cpu.instructions, cpu.cycles))
            if len(calls) in raise_on:
                raise _Boom(kind)
        return run

    cpu.enter_hooks.setdefault(f, []).append(hook("enter"))
    cpu.exit_hooks.setdefault(f, []).append(hook("exit"))
    raised, state, segment = [], None, cpu.run
    while True:
        try:
            state = segment()
            break
        except _Boom as boom:
            raised.append((boom.args, cpu.instructions, cpu.cycles, cpu.stores,
                           cpu.fp, cpu.sp, [(fr.func.name, list(fr.regs)) for fr in cpu.frames]))
            if boom.args == ("exit",):
                break
            segment = cpu.resume
    return {"calls": calls, "raised": raised, "state": state and vars(state),
            "stats": vars(debugger.wms.stats), "memory": debugger.memory.words}


@pytest.mark.parametrize("raise_on", [(1,), (3,), (3, 4), (6,), (8,), (12,)])
def test_hook_that_raises(raise_on):
    result = _both(_raising_hooks, raise_on=raise_on)
    assert len(result["raised"]) == len(raise_on)
    assert (result["state"] is None) == (max(raise_on) > 6)


def test_trap_counters_reported_from_both_tiers():
    counters = []
    was_enabled = observe.is_enabled()
    for loop in LOOPS:
        observe.reset()
        observe.enable()
        try:
            _session(loop, "vm")
            snapshot = observe.get_registry().snapshot()["counters"]
        finally:
            if not was_enabled:
                observe.disable()
            observe.reset()
        counters.append({k: v for k, v in snapshot.items() if k.startswith("cpu.")})
    assert counters[0] == counters[1]
    assert counters[0]["cpu.traps.write_fault"] > 0
    assert counters[0]["cpu.runs"] == 1


def test_builtin_that_installs_a_monitor_switches_to_watched_blocks():
    """A heap watch installs its monitor inside malloc, mid-segment, on a
    session that starts with nothing watched."""
    program = compile_source("""
    int main() { int *p; int i; p = malloc(12);
      for (i = 0; i < 3; i++) { p[i] = i + 40; } free(p); return 0; }
    """, "heap")

    def run(loop, strategy):
        debugger = Debugger(program, strategy=strategy)
        debugger.cpu._execute = getattr(debugger.cpu, loop)
        watch = debugger.watch_heap("main")
        debugger.run()
        return {"values": [e.value for e in watch.events],
                "stats": vars(debugger.wms.stats)}

    for strategy in ("native", "vm"):
        assert _both(run, strategy=strategy)["values"] == [40, 41, 42]


# ---------------------------------------------------------------------------
# Monitor misses the watched compiled code runs in place, and their fallbacks
# ---------------------------------------------------------------------------


_BUMP = compile_source("""
int g;
int h[3];
int bump(int i) { int t; t = g + i; g = t; h[i % 3] = t; return t; }
int main() { int i; int x; x = 0; for (i = 0; i < 12; i++) { x = x + bump(i); } return x; }
""", "bump")


def _handler(debugger):
    """The bound handler the events of ``debugger``'s strategy reach."""
    return getattr(debugger.wms, TOOL.HANDLERS[debugger.strategy][1])


def _recording(seen, call):
    """``call``, a check hook or trap handler (the CPU its last
    argument), recording the CPU's counters at each call in ``seen``."""
    def record(*args):
        cpu = args[-1]
        seen.append((cpu.instructions, cpu.cycles, cpu.stores))
        return call(*args)
    return record


def _bump_session(loop, strategy, change=None, at_hit=4, wms=None, record=False,
                  traced=False, max_instructions=100_000):
    """``_BUMP`` under ``strategy`` watching ``g`` and ``bump.t`` (whose
    hooks make the watched functions run).  ``wms(debugger)`` replaces the
    session's WMS before the watches; ``change(debugger, seen)`` runs in
    the notification callback of hit ``at_hit``; with ``record`` every
    event's check hook or trap sink call is recorded (so every event takes
    the full path); with ``traced`` a phase-1 tracer is attached too.
    Counts the calls of the strategy's handler (not compared across the
    loops)."""
    with TOOL.handler_calls() as calls:
        debugger = Debugger(_BUMP, strategy=strategy)
        cpu = debugger.cpu
        cpu._execute = getattr(cpu, loop)
        if wms is not None:
            debugger.wms.detach()
            debugger.wms = wms(debugger)
            debugger.wms.callback = debugger._on_notification
        watches = [debugger.watch_global("g"), debugger.watch_local("bump", "t")]
        seen = []
        notify = debugger.wms.callback

        def on_hit(notification):
            notify(notification)
            if change is not None and len(debugger.events) == at_hit:
                change(debugger, seen)

        debugger.wms.callback = on_hit
        if record and strategy == "code":
            cpu.check_hook = _recording(seen, cpu.check_hook)
        elif record:
            cpu.trap_sink = _recording(seen, cpu.trap_sink)
        tracer = Tracer(cpu, debugger.image, "bump") if traced else None
        if tracer is not None:
            tracer.begin()
        error = None
        try:
            debugger.run(max_instructions=max_instructions)
        except Exception as exc:  # compared across loops
            error = (type(exc), str(exc))
    wms = debugger.wms
    return {
        "error": error,
        "counters": (cpu.instructions, cpu.cycles, cpu.stores, dict(cpu.trap_counts)),
        "resume": (cpu._resume_pc, cpu._trap_pc),
        "seen": seen,
        "hits": [bp.hit_count for bp in watches],
        "stats": vars(wms.stats),
        "cached_misses": getattr(wms, "stats_cached_misses", None),
        "os": dict(debugger.os.counters),
        "protected": sorted(cpu.page_table.write_protected),
        "miss_paths": [path is not None for path in cpu.miss_paths],
        "globals": debugger.memory.words[GLOBAL >> 2:(GLOBAL >> 2) + 4],
        "frames": [(f.func.name, list(f.regs)) for f in cpu.frames],
        "trace": tracer and TOOL._trace_parts(tracer.finish(), tracer.registry),
        "handler_calls": calls[strategy],
    }


def _replace_check_hook(debugger, seen):
    debugger.cpu.check_hook = _recording(seen, debugger.cpu.check_hook)


def _reroute(debugger, seen):
    signal = Signal.SIGTRAP if debugger.strategy == "trap" else Signal.SIGSEGV
    debugger.os.sigaction(signal, _recording(seen, _handler(debugger)))


def _detach(debugger, seen):
    debugger.wms.detach()


def test_check_tool_fails_when_a_fast_path_miss_reaches_the_handler(capsys):
    """The reference loop calls the handler on every event, so the calls
    are not compared across the loops; on the fast path they must equal
    the hits."""
    reference = {"seconds": 0.0, "stats": {"hits": 2}, "handler_calls": 9}
    assert TOOL._report("gcc TP", "2 hits", reference, dict(reference, handler_calls=2))
    assert not TOOL._report("gcc TP", "2 hits", reference, dict(reference, handler_calls=3))
    assert "MISSES REACHED THE HANDLER: 1" in capsys.readouterr().out


@pytest.mark.parametrize("strategy", ["vm", "trap", "code"])
def test_misses_run_in_place_without_hooks(strategy):
    """A session watching one global sets no hook: under TrapPatch the
    registered miss path alone makes the watched functions run."""
    def run(loop):
        return TOOL.live_run("gcc", "smoke", loop, strategy, 4096, {"global": "n_folds"})

    reference, fast = _both_loops(run)
    stats = reference["stats"]
    assert stats["checks"] > stats["hits"] > 0
    assert fast["handler_calls"] == stats["hits"]


@pytest.mark.parametrize("strategy", ["vm", "trap", "code"])
def test_misses_run_in_place_on_the_fast_path(strategy):
    reference, fast = _both_loops(_bump_session, strategy)
    stats = reference["stats"]
    assert stats["checks"] > stats["hits"] > 0
    assert reference["handler_calls"] == stats["checks"]
    assert fast["handler_calls"] == stats["hits"]


@pytest.mark.parametrize("strategy", ["vm", "trap", "code"])
def test_misses_take_the_full_path_under_a_tracer(strategy):
    """With a tracer attached the watched functions have no miss path:
    every event reaches the handler, and the trace is the reference
    loop's."""
    reference, fast = _both_loops(_bump_session, strategy, traced=True)
    assert reference["error"] is None and reference["trace"]["columns"]
    assert fast["handler_calls"] == reference["stats"]["checks"] > reference["stats"]["hits"]


@pytest.mark.parametrize("strategy, change", [
    ("code", _replace_check_hook), ("trap", _reroute), ("vm", _reroute),
    ("code", _detach), ("trap", _detach), ("vm", _detach),
], ids=["code-check-hook", "trap-sigaction", "vm-sigaction",
        "code-detach", "trap-detach", "vm-detach"])
def test_hit_handler_that_changes_the_route_mid_segment(strategy, change):
    """From the next event on, misses take the full path: a replaced
    check hook or rerouted signal sees every event the reference loop
    gives it, and a detached WMS none."""
    reference, fast = _both_loops(_bump_session, strategy, change=change)
    if change is _detach:
        # TrapPatch faults at the next TRAP; the others end when bump's
        # exit hook removes the detached monitor of t.
        assert reference["error"][0] is (UnhandledFault if strategy == "trap" else WmsError)
        assert reference["miss_paths"] == [False, False, False]
        assert fast["handler_calls"] == 4
    else:
        assert reference["error"] is None and len(reference["seen"]) > 4


@pytest.mark.parametrize("wms_class, map_factory", [
    (OptimizedCodePatchWms, BitmapMonitorMap),
    (CodePatchWms, IntervalMonitorMap),
    (TrapPatchWms, IntervalMonitorMap),
    (VirtualMemoryWms, IntervalMonitorMap),
], ids=["optimized-code", "code-interval", "trap-interval", "vm-interval"])
def test_strategies_without_a_miss_path_take_the_full_path(wms_class, map_factory):
    def make(debugger):
        os = () if wms_class.strategy == "code" else (debugger.os,)
        return wms_class(debugger.cpu, *os, map_factory=map_factory)

    reference, fast = _both_loops(_bump_session, wms_class.strategy, wms=make)
    assert reference["miss_paths"] == [False, False, False]
    stats = reference["stats"]
    assert stats["checks"] > stats["hits"] > 0
    if wms_class is not OptimizedCodePatchWms:  # whose _check is its own
        assert fast["handler_calls"] == stats["checks"]


def _hand_session(loop, strategy, code, register=None, protect=None):
    """A hand-written ``main`` (``code``) under a TrapPatch or
    VirtualMemory WMS watching the word at ``GLOBAL``, with a monitor
    register on the word at ``register`` whose faults are recorded, the
    page of ``protect`` write-protected by hand, and a no-op exit hook on
    ``main`` so that the watched function runs."""
    image = load_program(SimpleNamespace(name="hand", globals=[], functions=[SimpleNamespace(
        name="main", n_regs=4, frame_size=8, params=[], local_vars=[],
        static_vars=[], source_line=0, code=code)]))
    cpu = Cpu(Memory(image.layout), layout=image.layout)
    Runtime(cpu, image.layout).install()
    cpu.attach(image)
    os = SimOs(cpu)
    seen = []
    with TOOL.handler_calls() as calls:
        wms = TrapPatchWms(cpu, os) if strategy == "trap" else VirtualMemoryWms(cpu, os)
        wms.install_monitor(GLOBAL, GLOBAL + 4)
        if register is not None:
            cpu.monitor_registers.allocate(register, register + 4)
            os.sigaction(Signal.SIGMON, _recording(seen, lambda frame, cpu: None))
        if protect is not None:
            os.mprotect(protect, 4, Protection.READ)
        main = image.function_index("main")
        cpu.exit_hooks[main] = [lambda func, frame_base: None]
        pc = cpu._push_entry(main, [])
        error = None
        try:
            getattr(cpu, loop)(pc, 1_000)
        except Exception as exc:  # compared across loops
            error = (type(exc), str(exc))
    return {
        "error": error,
        "counters": (cpu.instructions, cpu.cycles, cpu.stores, dict(cpu.trap_counts)),
        "resume": (cpu._resume_pc, cpu._trap_pc),
        "seen": seen,
        "stats": vars(wms.stats),
        "os": dict(os.counters),
        "protected": sorted(cpu.page_table.write_protected),
        "globals": cpu.memory.words[GLOBAL >> 2:(GLOBAL >> 2) + 4],
        "handler_calls": calls[strategy],
    }


@pytest.mark.parametrize("offset", [6, DEFAULT_LAYOUT.memory_size],
                         ids=["misaligned", "out-of-range"])
def test_trap_to_a_bad_address_takes_the_full_path(offset):
    code = [(isa.LDI, 0, GLOBAL), (isa.LDI, 1, 7), (isa.TRAP, 0, 4, 1),
            (isa.TRAP, 0, offset, 1), (isa.TRAP, 0, 8, 1), (isa.RET, None)]
    reference, fast = _both_loops(_hand_session, "trap", code)
    assert reference["error"][0] is MemoryFault
    assert (reference["handler_calls"], fast["handler_calls"]) == (2, 1)


@pytest.mark.parametrize("strategy", ["trap", "vm"])
def test_store_to_a_monitor_register_word_takes_the_full_path(strategy):
    store = isa.TRAP if strategy == "trap" else isa.ST
    code = [(isa.LDI, 0, GLOBAL), (isa.LDI, 1, 7), (store, 0, 4, 1),
            (store, 0, 12, 1), (store, 0, 0, 1), (store, 0, 8, 1), (isa.RET, None)]
    reference, fast = _both_loops(_hand_session, strategy, code, register=GLOBAL + 12)
    assert reference["error"] is None and len(reference["seen"]) == 1
    assert reference["stats"] == {"installs": 1, "removes": 0, "hits": 1, "checks": 4}
    assert (reference["handler_calls"], fast["handler_calls"]) == (4, 2)


def test_fault_on_a_page_the_wms_did_not_protect_takes_the_full_path():
    """Its handler emulates the store and leaves the page unprotected."""
    other = GLOBAL + 2 * 4096  # two default pages up
    code = [(isa.LDI, 0, GLOBAL), (isa.LDI, 1, 7), (isa.LDI, 2, other),
            (isa.ST, 0, 4, 1), (isa.ST, 2, 0, 1), (isa.ST, 2, 4, 1),
            (isa.ST, 0, 8, 1), (isa.RET, None)]
    reference, fast = _both_loops(_hand_session, "vm", code, protect=other)
    assert reference["protected"] == [GLOBAL >> 12]
    assert (reference["handler_calls"], fast["handler_calls"]) == (3, 1)


@pytest.mark.parametrize("strategy", ["vm", "trap", "code"])
def test_budget_stop_right_after_a_miss(strategy):
    """Budgets that end at and just after each event: the counters,
    the resume and trap pcs and every count are equal, also where the
    last event before the stop was a miss run in place."""
    events = _both(_bump_session, strategy, record=True)["seen"]
    assert len(events) > 20
    for instructions, _cycles, _stores in events[::8]:
        for budget in (instructions, instructions + 1):
            result = _both(_bump_session, strategy, max_instructions=budget)
            assert result["error"][0] is CpuLimitExceeded
