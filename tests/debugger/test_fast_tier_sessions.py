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
from repro.debugger import Debugger
from repro.errors import AlignmentFault, CpuLimitExceeded
from repro.machine import Cpu, Memory, isa, load_program
from repro.machine.layout import DEFAULT_LAYOUT
from repro.machine.traps import TrapKind
from repro.minic.compiler import compile_source
from repro.minic.runtime import Runtime
from repro.sim_os import Signal, SimOs

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


def _both(run, *args, **kwargs):
    """``run(loop, *args, **kwargs)`` on both loops; assert they agree."""
    reference, fast = (run(loop, *args, **kwargs) for loop in LOOPS)
    assert TOOL.mismatches(reference, fast) == []
    return reference


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
