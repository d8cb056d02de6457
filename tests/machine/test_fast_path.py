"""The function-compiled fast path against the reference loop.

Every test runs the same program twice, calling ``Cpu._loop`` and
``Cpu._fast_loop`` directly on fresh machines, and demands the same
outcome: exit value, :class:`CpuState`, counters, memory, ``sp`` and
``fp``, the frames' linkage and register lists, trace and, for faults,
the same exception type and message with the same
``instructions``/``cycles``/``stores``.  (Python's own errors, such as a
negative shift count, may leave the faulting block's register writes
out of its frame's register list; its callers' lists still match.)
"""

from __future__ import annotations

import importlib.util
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro import observe
from repro.errors import (
    AlignmentFault,
    CpuLimitExceeded,
    MemoryFault,
    MiniCRuntimeError,
    ReproError,
    StackOverflow,
)
from repro.machine import Cpu, Memory, isa, load_program
from repro.machine import blocks
from repro.machine import cpu as cpu_module
from repro.machine.cpu import _DRAIN_STRIDE
from repro.machine.layout import DEFAULT_LAYOUT, MemoryLayout
from repro.machine.traps import TrapKind
from repro.minic.compiler import compile_source
from repro.minic.instrument import apply_code_patch, apply_trap_patch
from repro.minic.runtime import Runtime
from repro.observe import profile as observe_profile
from repro.trace import tracer as tracer_module
from repro.trace.tracer import Tracer

LOOPS = ("_loop", "_fast_loop")
GLOBAL = DEFAULT_LAYOUT.global_base
_PLAIN = "int g; int f(int x) { g = x; return x; } int main() { return f(3); }"


def _load_tool():
    path = Path(__file__).resolve().parents[2] / "tools" / "check_fast_path.py"
    spec = importlib.util.spec_from_file_location("check_fast_path", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hand_image(*functions):
    """Load hand-written functions ``(name, n_regs, frame_size, code)``
    (branch targets function-local) as an image."""
    compiled = SimpleNamespace(name="hand", globals=[], functions=[
        SimpleNamespace(name=name, n_regs=n_regs, frame_size=frame_size,
                        params=[], local_vars=[], static_vars=[],
                        code=list(code), source_line=0)
        for name, n_regs, frame_size, code in functions
    ])
    return load_program(compiled)


def _machine(image):
    cpu = Cpu(Memory(image.layout), layout=image.layout)
    runtime = Runtime(cpu, image.layout)
    runtime.install()
    cpu.attach(image)
    return cpu, runtime


def _run(image, loop, max_instructions=100_000, tracer_cls=None, configure=None):
    """Run ``image`` from ``main`` on ``loop``; ``configure(cpu, seen)``
    may install hooks that append what they see to ``seen``."""
    cpu, runtime = _machine(image)
    seen = []
    if configure is not None:
        configure(cpu, seen)
    tracer = None
    if tracer_cls is not None:
        tracer = tracer_cls(cpu, image, "t")
        tracer.begin()
        runtime.heap.listeners.append(tracer)
    pc = cpu._push_entry(image.function_index("main"), [])
    state = error = None
    try:
        state = getattr(cpu, loop)(pc, max_instructions)
    except Exception as exc:  # compared across loops below
        error = exc
    return SimpleNamespace(cpu=cpu, runtime=runtime, tracer=tracer,
                           state=state, error=error, seen=seen)


def _both(image, **kwargs):
    """Run on both loops; assert the outcomes agree; return them."""
    ref, fast = (_run(image, loop, **kwargs) for loop in LOOPS)
    assert type(ref.error) is type(fast.error)
    assert str(ref.error) == str(fast.error)
    assert (ref.cpu.instructions, ref.cpu.cycles, ref.cpu.stores) == (
        fast.cpu.instructions, fast.cpu.cycles, fast.cpu.stores)
    assert ref.state == fast.state
    assert ref.cpu.memory.words == fast.cpu.memory.words
    assert ref.runtime.output == fast.runtime.output
    assert (ref.cpu.sp, ref.cpu.fp) == (fast.cpu.sp, fast.cpu.fp)
    assert ref.cpu._resume_pc == fast.cpu._resume_pc
    assert _linkage(ref.cpu) == _linkage(fast.cpu)
    assert ref.seen == fast.seen
    registers = (_registers(ref.cpu), _registers(fast.cpu))
    if ref.error is not None and not isinstance(ref.error, ReproError):
        registers = tuple(frames[:-1] for frames in registers)
    assert registers[0] == registers[1]
    return ref, fast


def _registers(cpu):
    return [(frame.func.name, list(frame.regs)) for frame in cpu.frames]


def _linkage(cpu):
    return [(frame.func.name, frame.ret_pc, frame.saved_fp, frame.dest_reg)
            for frame in cpu.frames]


def _minic(source, layout=DEFAULT_LAYOUT):
    return load_program(compile_source(source, "t", layout), layout)


def _source(image, traced, watched):
    """The generated source of every function factory of ``image``."""
    compiler = blocks._Compiler(image, image.layout, watched)
    return "\n".join(source for _, source, _, _ in compiler.sources(traced))


# ---------------------------------------------------------------------------
# Whole programs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["bps", "ctex", "gcc", "qcd", "spice"])
def test_workloads_identical_at_smoke_scale(name):
    tool = _load_tool()
    for run in (tool.traced_run, tool.bare_run):
        reference, fast = (run(name, "smoke", loop) for loop in LOOPS)
        assert tool.mismatches(reference, fast) == []


@pytest.mark.parametrize("small_slices", [False, True])
def test_drained_columns_and_counts_match_whole_run(monkeypatch, small_slices):
    """The columns and meta counts the tracer builds drain by drain
    match a run's traced with the default slices.  With small slices,
    drains split hooks and expansions split the log, and the fast path
    offers a drain every few instructions, so its inline frame records
    cross drain boundaries too."""
    source = """
    int g[6];
    int leaf(int a) { int t; t = a * 2; g[a % 6] = t; return t; }
    int mid(int n) { int i; int s; int *p;
      s = 0;
      for (i = 0; i < n; i++) { s = s + leaf(i); }
      p = malloc(8); p[0] = s; p = realloc(p, 40); p[1] = s; free(p);
      return s; }
    int main() { int k; int total; total = 0;
      for (k = 0; k < 9; k++) { total = total + mid(k); }
      return total; }
    """
    image = _minic(source)
    whole = _run(image, "_loop", tracer_cls=Tracer)
    expected = whole.tracer.finish(whole.state)
    if small_slices:
        monkeypatch.setattr(tracer_module, "LOG_SLICE", 5)
        monkeypatch.setattr(tracer_module, "EXPAND_EVENTS", 3)
        monkeypatch.setattr(cpu_module, "_DRAIN_STRIDE", 7)

    for loop in LOOPS:
        run = _run(image, loop, tracer_cls=Tracer)
        trace = run.tracer.finish(run.state)
        assert vars(trace.meta) == vars(expected.meta)
        for got, want in zip(trace.as_arrays(), expected.as_arrays()):
            assert got.tobytes() == want.tobytes()


class _DrainSizes(Tracer):
    """A tracer that records how many log records each drain sees."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.drained = []

    def drain(self):
        self.drained.append(len(self.log))
        super().drain()


#: ``t0``..``t14``: each of ``t1``..``t14`` stores and calls the one
#: below it twice, with no backward jump anywhere (32,767 calls).
_CALL_TREE = "int t0(int x) { g[x & 3] = x; return x + 1; }\n" + "".join(
    f"int t{k}(int x) {{ g[x & 3] = x; return t{k - 1}(x) + t{k - 1}(x + 1); }}\n"
    for k in range(1, 15))


@pytest.mark.parametrize("functions,body", [
    # Call-free, about one store per twelve instructions.
    ("", "for (i = 0; i < 40000; i++) { s = s ^ i; if ((i & 7) == 0) { g[i & 3] = s; } }"),
    # A call and a return (inline frame records) every iteration.
    ("", "for (i = 0; i < 6000; i++) { s = s + f(i); }"),
    # Direct calls 15 deep: the callees' entries and the return points
    # are the only places that check the budget.
    (_CALL_TREE, "s = t14(1);"),
], ids=["call-free", "calls", "call-tree"])
def test_fast_tracer_log_stays_bounded(functions, body):
    """The fast path offers a drain every _DRAIN_STRIDE instructions; the
    tracer drains only a full log, so a run drains at most once per
    LOG_SLICE records (plus the final drain), and no drain sees more than
    LOG_SLICE + _DRAIN_STRIDE records."""
    source = """
    int g[4];
    int f(int x) { return x + 1; }
    %s
    int main() { int i; int s; s = 0; %s return s; }
    """ % (functions, body)
    run = _run(_minic(source), "_fast_loop", max_instructions=10_000_000,
               tracer_cls=_DrainSizes)
    assert run.error is None
    trace = run.tracer.finish(run.state)
    drained = run.tracer.drained
    records = sum(drained)
    assert len(drained) <= -(-records // tracer_module.LOG_SLICE) + 1
    # Draining at every checkpoint would exceed that.
    assert run.state.instructions // _DRAIN_STRIDE > len(drained) + 1
    assert max(drained) <= tracer_module.LOG_SLICE + _DRAIN_STRIDE
    assert trace.meta.n_writes == run.state.stores


# ---------------------------------------------------------------------------
# Faults: same exception, same counters
# ---------------------------------------------------------------------------


def _store_then(*tail):
    """main: one frame store and one global store, then ``tail``."""
    return _hand_image(("main", 8, 8, [
        (isa.LEAF, 0, 4), (isa.LDI, 1, 11), (isa.ST, 0, 0, 1),
        (isa.LDI, 2, GLOBAL), (isa.ST, 2, 4, 1),
        *tail,
        (isa.RET, None),
    ]))


@pytest.mark.parametrize("tail,error", [
    ([(isa.LDI, 3, GLOBAL + 2), (isa.LD, 4, 3, 0)], AlignmentFault),
    ([(isa.LD, 4, 2, 6)], AlignmentFault),
    ([(isa.LD, 5, 0, 0), (isa.ADD, 6, 5, 5), (isa.LD, 4, 6, 1)], AlignmentFault),
    ([(isa.LDI, 3, DEFAULT_LAYOUT.memory_size), (isa.ST, 3, 0, 1)], MemoryFault),
    ([(isa.LDI, 3, -4), (isa.LD, 4, 3, 0)], MemoryFault),
    ([(isa.LD, 4, 2, DEFAULT_LAYOUT.memory_size)], MemoryFault),
    ([(isa.ST, 2, -GLOBAL - 8, 1)], MemoryFault),
])
def test_memory_faults(tail, error):
    ref, fast = _both(_store_then(*tail))
    assert type(ref.error) is error
    assert ref.cpu.stores == 2


@pytest.mark.parametrize("source", [
    "int main() { int z; z = 0; return 5 / z; }",
    "int main() { int z; z = 0; return 5 % z; }",
    "int main() { float z; z = 0.0; return 1.0 / z; }",
    "int main() { float z; z = -0.0; return 1.0 / z; }",
])
def test_division_by_zero(source):
    ref, _fast = _both(_minic(source))
    assert type(ref.error) is MiniCRuntimeError


def _chain(locals_="", fault=""):
    """main -> a1 -> b2 -> c3, each storing and keeping registers live
    across its call; c3 declares ``locals_`` and runs ``fault``."""
    return """
    int g[8];
    int c3(int x) { int z; int *p; %s g[3] = x; z = x - x; p = &g[0]; %s return x + 1; }
    int b2(int x) { int t; t = x * 3; g[2] = t; return c3(t + 1) + t; }
    int a1(int x) { int t; t = x + 5; g[1] = t; return b2(t) - 1; }
    int main() { int k; k = 2; return a1(k) + k; }
    """ % (locals_, fault)


_BUDGET_PROGRAMS = {
    "one-block-loop": """
    int g;
    int main() { int i; for (i = 0; i < 50; i++) { g = g + i * 3; } return g; }
    """,
    # Nested loops, an if/else and a short-circuit condition: many
    # blocks, forward jumps and two back-edges.
    "multi-block-loop": """
    int g[4];
    int main() { int i; int j; int s; s = 0;
      for (i = 0; i < 6; i++) {
        j = 0;
        while (j < i) { if (j > 1 && i != 4) { s = s + j; } else { g[j & 3] = s; } j++; }
        s = s ^ i;
      }
      return s; }
    """,
    "recursive": """
    int depth;
    int fib(int n) { int r; depth = depth + 1; if (n < 2) { r = n; } else { r = fib(n - 1) + fib(n - 2); } return r; }
    int main() { return fib(6); }
    """,
    "call-chain": _chain(),
}


#: A 16 KiB machine: each of the many runs below compares all of memory.
_SMALL_LAYOUT = MemoryLayout(global_base=0x1000, heap_base=0x2000, stack_limit=0x3000,
                             stack_top=0x4000, memory_size=0x4000)


@pytest.mark.parametrize("name", sorted(_BUDGET_PROGRAMS))
def test_budget_ending_anywhere_in_a_block(name):
    """Budgets that end at every instruction of the run: the compiled
    function leaves at a checkpoint once its span might not fit, and the
    reference loop stops at the exact instruction."""
    image = _minic(_BUDGET_PROGRAMS[name], _SMALL_LAYOUT)
    total = _run(image, "_loop").state.instructions
    for budget in range(1, total + 2):
        ref, _fast = _both(image, max_instructions=budget)
        if budget < total:
            assert type(ref.error) is CpuLimitExceeded
        else:
            assert ref.error is None


def test_loops_nested_deeper_than_the_limit():
    """Loops nested past ``_MAX_LOOP_DEPTH`` share their enclosing loop's
    ``while``; the compiled function still runs them exactly."""
    depth = blocks._MAX_LOOP_DEPTH + 3
    names = [f"i{k}" for k in range(depth)]
    body = "if ((s & 3) == 1) { s = s + 7; } else { g[s & 3] = s; s = s ^ 5; }"
    for name in reversed(names):
        body = f"for ({name} = 0; {name} < 2; {name}++) {{ {body} s = s + 1; }}"
    image = _minic(f"""
    int g[4];
    int main() {{ {' '.join(f'int {name};' for name in names)} int s; s = 0; {body} return s; }}
    """)
    assert max(source.count("while True:") for source in
               _source(image, traced=False, watched=False).split("def make")) \
        == blocks._MAX_LOOP_DEPTH + 1
    ref, _fast = _both(image, max_instructions=10_000_000)
    assert ref.error is None and ref.state.instructions > 2 ** depth


def _counters(cpu):
    return (cpu.instructions, cpu.cycles, cpu.stores, list(cpu.frames[-1].regs))


def test_step_mid_function_resumes_with_exact_counters():
    """Every CHK of a code-patched loop is an inline step in the middle of
    a compiled function: the check hook sees the same counters and
    registers on both loops, and the function goes on after it."""
    program = apply_code_patch(compile_source("""
    int g[8];
    int f(int n) { int i; int s; s = 0;
      for (i = 0; i < n; i++) { g[i & 7] = s; s = s + i; } return s; }
    int main() { int k; int t; t = 0; for (k = 0; k < 5; k++) { t = t + f(k + 3); } return t; }
    """, "t"))
    image = load_program(program)

    def configure(cpu, seen):
        cpu.check_hook = lambda address, pc, cpu_: seen.append((pc, address, _counters(cpu_)))

    ref, _fast = _both(image, configure=configure)
    assert len(ref.seen) == ref.state.stores > 20


def test_hand_over_mid_function_resumes_with_exact_counters():
    """A loop whose body holds a step and, on its last iteration, an
    instruction the compiler does not take: the hand-over happens in the
    middle of the function with exact counters, and the reference loop
    runs the rest."""
    image = _hand_image(("main", 6, 8, [
        (isa.LDI, 0, GLOBAL), (isa.LDI, 1, 0), (isa.LDI, 2, 5), (isa.LDI, 3, 1),
        # loop head (pc 4)
        (isa.LT, 4, 1, 2), (isa.BF, 4, 13),
        (isa.CHK, 0, 0), (isa.ST, 0, 0, 1),
        (isa.ADD, 1, 1, 3),
        (isa.EQ, 5, 1, 2), (isa.BF, 5, 4),
        (isa.NOP, "odd"),
        (isa.JMP, 4),
        # exit (pc 13)
        (isa.LD, 5, 0, 0), (isa.RET, 5),
    ]))

    def configure(cpu, seen):
        cpu.check_hook = lambda address, pc, cpu_: seen.append((pc, _counters(cpu_)))

    ref, _fast = _both(image, configure=configure)
    assert [pc for pc, _ in ref.seen] == [6] * 5
    assert ref.state.exit_value == 4


@pytest.mark.parametrize("last,configure", [
    ((isa.CHK, 0, 0), lambda cpu: None),
    ((isa.CHK, 0, 0), lambda cpu: setattr(cpu, "check_hook", lambda a, pc, c: None)),
    ((isa.ST, 0, 0, 1), lambda cpu: (cpu.monitor_registers.allocate(GLOBAL, GLOBAL + 4),
                                     setattr(cpu, "trap_sink", lambda frame, c: None))),
], ids=["chk", "chk-hooked", "watched-st"])
def test_step_at_a_functions_last_instruction_hands_over(last, configure):
    """A step at the last instruction of a function falls off its end into
    the next function's code: the fast path hands that over to the
    reference loop instead of entering its own function there."""
    image = _hand_image(
        ("main", 4, 8, [(isa.LDI, 0, GLOBAL), (isa.LDI, 1, 7), last]),
        ("next", 4, 8, [(isa.LD, 2, 0, 0), (isa.ADD, 2, 2, 1), (isa.RET, 2)]),
    )
    outcomes = []
    for loop in LOOPS:
        cpu, _runtime = _machine(image)
        configure(cpu)
        pc = cpu._push_entry(image.function_index("main"), [])
        state = getattr(cpu, loop)(pc, 1_000)
        outcomes.append((state, cpu.instructions, cpu.cycles, cpu.stores,
                         cpu.trap_counts, cpu.memory.words[GLOBAL >> 2]))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0].exit_value == (14 if last[0] == isa.ST else 7)


def test_factory_bound_holds_per_function_factories():
    """One factory per MiniC function, memoized by source in a cache of
    at most 64: a program with more functions than that still runs, and
    the cache holds no more than 64."""
    functions = "".join(f"int f{i}(int x) {{ return x + {i}; }}\n" for i in range(70))
    calls = " + ".join(f"f{i}(1)" for i in range(70))
    image = _minic(functions + f"int main() {{ return {calls}; }}")
    blocks._factory.cache_clear()
    ref, fast = _both(image)
    assert fast.state.exit_value == sum(1 + i for i in range(70))
    info = blocks._factory.cache_info()
    assert info.maxsize == 64
    assert info.currsize == 64
    assert info.misses == len(image.functions)


def _record_checks(cpu, seen):
    cpu.check_hook = lambda address, pc, cpu_: seen.append(_snapshot(cpu_))


_FAULTS = [
    ("zero-divisor", "x = x / z;", MiniCRuntimeError),
    ("memory-fault", "p = p - 100000000; x = p[0];", MemoryFault),
    ("builtin", "p = malloc(100000000);", MiniCRuntimeError),
    ("python-error", "x = x << (z - 1);", ValueError),
]


@pytest.mark.parametrize("fault,error,watched", [
    pytest.param(fault, error, watched, id=name + ("-watched" if watched else ""))
    for watched in (False, True) for name, fault, error in _FAULTS
])
def test_errors_three_calls_deep(fault, error, watched):
    """An error in a function three direct calls deep leaves every
    frame, ``sp``, ``fp``, the callers' registers and the counters as
    the reference loop leaves them.  Watched (a code-patched image with
    a check hook), an error the reference loop raises without syncing
    its counters leaves those of the last inline step."""
    program = compile_source(_chain(fault=fault), "t")
    if watched:
        program = apply_code_patch(program)
    ref, fast = _both(load_program(program), configure=_record_checks if watched else None)
    assert type(ref.error) is error
    assert [frame.func.name for frame in fast.cpu.frames] == ["main", "a1", "b2", "c3"]


def test_stack_overflow_three_calls_deep():
    """A direct call whose frame does not fit leaves to the driver, which
    raises StackOverflow as the reference loop does."""
    ref, fast = _both(_minic(_chain(locals_="int pad[1200];"), _SMALL_LAYOUT))
    assert type(ref.error) is StackOverflow
    assert [frame.func.name for frame in fast.cpu.frames] == ["main", "a1", "b2"]


def test_recursion_deeper_than_the_direct_call_cap():
    """Past MAX_DIRECT_DEPTH frames a CALL goes through the driver: a
    recursion more than three times that deep, and deeper than Python's
    recursion limit, runs and traces exactly."""
    depth = 3 * blocks.MAX_DIRECT_DEPTH + sys.getrecursionlimit()
    image = _minic("""
    int g[8];
    int down(int n) { int t; if (n == 0) { return g[3]; } g[n & 7] = n; t = down(n - 1); return t + n; }
    int main() { return down(%d); }
    """ % depth)
    ref, fast = _both(image, tracer_cls=Tracer)
    assert ref.state.max_call_depth == depth + 2
    assert ref.state.exit_value == 3 + depth * (depth + 1) // 2
    traces = [run.tracer.finish(run.state).as_arrays() for run in (ref, fast)]
    for want, got in zip(*traces):
        assert got.tobytes() == want.tobytes()


def test_stack_overflow():
    ref, _fast = _both(_minic("""
    int forever(int n) { int pad[64]; pad[0] = n; return forever(n + 1); }
    int main() { return forever(0); }
    """), max_instructions=10_000_000)
    assert type(ref.error) is StackOverflow


def test_builtin_that_raises():
    ref, _fast = _both(_minic("""
    int main() { int *p; int *q; p = malloc(40); p[0] = 1; q = malloc(100000000); return 0; }
    """))
    assert type(ref.error) is MiniCRuntimeError
    assert "heap exhausted" in str(ref.error)


@pytest.mark.parametrize("tail,error", [
    ([(isa.LDI, 3, -1), (isa.SHL, 4, 1, 3)], ValueError),
    ([(isa.LDI, 3, float("inf")), (isa.F2I, 4, 3)], OverflowError),
    ([(isa.LDI, 3, float("nan")), (isa.F2I, 4, 3)], ValueError),
])
def test_python_errors_propagate_as_on_the_reference_loop(tail, error):
    ref, _fast = _both(_store_then(*tail))
    assert type(ref.error) is error


# ---------------------------------------------------------------------------
# Watched call chains: inline steps and direct calls under hooks
# ---------------------------------------------------------------------------


#: main -> a1 -> b2 -> c3 in loops; every function stores, c3 at depth 4.
_WATCHED_CHAIN = """
int g[8];
int c3(int x) { int z; g[3] = x; z = x * 2; g[(x & 3) + 4] = z; return z + 1; }
int b2(int x) { int t; t = x * 3; g[2] = t; return c3(t + 1) + t; }
int a1(int x) { int t; int i; t = 0;
  for (i = 0; i < 3; i++) { g[1] = t; t = t + b2(x + i); } return t - 1; }
int main() { int k; int s; s = 0; for (k = 0; k < 2; k++) { s = s + a1(k); } return s; }
"""


class _Stop(Exception):
    """A hook's debugger stop."""


def _snapshot(cpu):
    """Everything a stop or hook may see of the machine."""
    return (cpu.instructions, cpu.cycles, cpu.stores, cpu.sp, cpu.fp, cpu._resume_pc,
            _linkage(cpu), _registers(cpu))


def _watched_chain(patch=None):
    program = compile_source(_WATCHED_CHAIN, "t", _SMALL_LAYOUT)
    return load_program(patch(program) if patch else program, _SMALL_LAYOUT)


def _stop_every_third_deep(cpu, seen):
    """Record the machine; stop at every third call three or more deep."""
    seen.append(_snapshot(cpu))
    if len(cpu.frames) >= 3 and len(seen) % 3 == 0:
        raise _Stop


def _check_stops(cpu, seen):
    cpu.check_hook = lambda address, pc, cpu_: _stop_every_third_deep(cpu_, seen)


def _trap_stops(cpu, seen):
    def sink(frame, cpu_):
        cpu_.emulate_store(*frame.store_operands)
        _stop_every_third_deep(cpu_, seen)

    cpu.trap_sink = sink


def _monitor_stops(cpu, seen):
    base = cpu.layout.global_base
    cpu.monitor_registers.allocate(base, base + 32)
    cpu.trap_sink = lambda frame, cpu_: _stop_every_third_deep(cpu_, seen)


def _stopping_session(image, loop, configure):
    """Run ``image`` on ``loop`` with ``configure(cpu, seen)``'s hooks,
    resuming after every stop; what each stop and the end leave."""
    cpu, _runtime = _machine(image)
    cpu._execute = getattr(cpu, loop)
    seen, stops = [], []
    configure(cpu, seen)
    segment = cpu.run
    while True:
        try:
            state = segment()
            break
        except _Stop:
            stops.append(_snapshot(cpu))
            segment = cpu.resume
    return {"seen": seen, "stops": stops, "state": state, "end": _snapshot(cpu),
            "memory": cpu.memory.words, "traps": cpu.trap_counts}


@pytest.mark.parametrize("patch,configure", [
    (apply_code_patch, _check_stops),
    (apply_trap_patch, _trap_stops),
    (None, _monitor_stops),
], ids=["check", "trap", "monitor"])
def test_hook_raising_deep_in_direct_calls_then_resume(patch, configure):
    """A hook that raises inside a function three or four direct calls
    deep leaves counters, ``sp``/``fp``, every frame's linkage and
    registers and the resume pc as the reference loop leaves them, and
    resume() goes on to the same end."""
    image = _watched_chain(patch)
    ref, fast = (_stopping_session(image, loop, configure) for loop in LOOPS)
    assert ref == fast
    assert len(ref["stops"]) > 5
    assert min(len(stop[6]) for stop in ref["stops"]) >= 3
    assert max(len(stop[6]) for stop in ref["stops"]) == 4


def test_resume_after_a_stop_at_a_watched_store_stays_on_the_fast_tier(tiers):
    """A store does not end its block in the watched table, so a stop at
    one resumes in the middle of a block: that pc becomes a block start
    of a recompiled function, and no segment runs on the reference loop."""
    image = _watched_chain()
    compiled = blocks.compiled_image(image, image.layout, True)
    before = list(compiled.starts)
    result = _stopping_session(image, "_fast_loop", _monitor_stops)
    assert "reference" not in tiers and tiers.count("fast") == len(result["stops"]) + 1
    added = [pc for pc, (old, new) in enumerate(zip(before, compiled.starts)) if old != new]
    assert added and all(image.code[pc - 1][0] == isa.ST for pc in added)
    assert result == _stopping_session(image, "_loop", _monitor_stops)


def _installs_hook_mid_run(kind, function, when):
    """A check hook that, at the check ``when`` selects, installs a
    ``kind`` ("enter" or "exit") hook on ``function`` recording the
    machine at each call."""
    def configure(cpu, seen):
        index = cpu.loaded_program.function_index(function)
        hooks = cpu.enter_hooks if kind == "enter" else cpu.exit_hooks

        def hook(func, frame_base):
            seen.append((kind, func.name, frame_base, _snapshot(cpu)))

        def check(address, pc, cpu_):
            seen.append(("check", pc, address, _snapshot(cpu_)))
            if index not in hooks and when(cpu_, seen):
                hooks[index] = [hook]

        cpu.check_hook = check

    return configure


@pytest.mark.parametrize("kind,function,when", [
    # Installed at the fifth check: later calls of c3 from b2 run it.
    ("enter", "c3", lambda cpu, seen: len(seen) >= 5),
    # Installed in c3 on b2, which is on the stack and returns next.
    ("exit", "b2", lambda cpu, seen: cpu.frames[-1].func.name == "c3"),
    # Installed in b2 on main, which returns last.
    ("exit", "main", lambda cpu, seen: cpu.frames[-1].func.name == "b2"),
], ids=["enter", "exit-on-stack", "exit-of-main"])
def test_check_hook_installs_a_hook_mid_run(kind, function, when):
    ref, fast = _both(_watched_chain(apply_code_patch),
                      configure=_installs_hook_mid_run(kind, function, when))
    assert ref.error is None
    assert sum(item[0] == kind for item in ref.seen) > (0 if function == "main" else 2)


def _record_monitor_faults(cpu, seen):
    base = cpu.layout.global_base
    cpu.monitor_registers.allocate(base + 8, base + 16)
    cpu.trap_sink = lambda frame, cpu_: seen.append(_snapshot(cpu_))


@pytest.mark.parametrize("patch,configure", [
    (apply_code_patch, _record_checks),
    (None, _record_monitor_faults),
], ids=["check", "monitor"])
def test_budget_ending_at_and_just_after_an_inline_step(patch, configure):
    """Budgets that end at each inline step and at the instruction after
    it, at every call depth: the same error with the same counters,
    frames and hook calls."""
    image = _watched_chain(patch)
    full, _fast = _both(image, configure=configure)
    steps = [snapshot[0] for snapshot in full.seen]
    assert len(steps) > 10
    for at in steps:
        for budget in (at, at + 1):
            ref, _fast = _both(image, configure=configure, max_instructions=budget)
            assert type(ref.error) is CpuLimitExceeded
            assert len(ref.seen) == sum(n <= budget for n in steps)


@pytest.mark.parametrize("exit_hook", [False, True], ids=["checks", "checks-and-exit-hook"])
def test_recursion_deeper_than_the_direct_call_cap_under_a_watch(exit_hook):
    """Past MAX_DIRECT_DEPTH frames a watched CALL goes through the
    driver too: every check of a code-patched recursion more than three
    times that deep, and deeper than Python's recursion limit, sees the
    same machine, and the run traces exactly; with an exit hook every
    RET reaches the driver."""
    depth = 3 * blocks.MAX_DIRECT_DEPTH + sys.getrecursionlimit()
    image = load_program(apply_code_patch(compile_source("""
    int g[8];
    int down(int n) { int t; if (n == 0) { return g[3]; } g[n & 7] = n; t = down(n - 1); return t + n; }
    int main() { return down(%d); }
    """ % depth, "t")))

    def configure(cpu, seen):
        def record():
            seen.append((cpu.instructions, cpu.cycles, cpu.stores, cpu.fp, len(cpu.frames)))

        cpu.check_hook = lambda address, pc, cpu_: record()
        if exit_hook:
            cpu.exit_hooks[image.function_index("down")] = [lambda func, frame_base: record()]

    ref, fast = _both(image, configure=configure, tracer_cls=Tracer)
    assert ref.state.max_call_depth == depth + 2
    assert ref.state.exit_value == 3 + depth * (depth + 1) // 2
    assert max(item[-1] for item in ref.seen) == depth + 2
    traces = [run.tracer.finish(run.state).as_arrays() for run in (ref, fast)]
    for want, got in zip(*traces):
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# The code generator
# ---------------------------------------------------------------------------


def test_float_immediates_pass_through_the_constants_table():
    image = _hand_image(("main", 8, 8, [
        (isa.LDI, 0, float("inf")), (isa.LDI, 1, -0.0), (isa.LDI, 2, float("nan")),
        (isa.LDI, 3, GLOBAL),
        (isa.ST, 3, 0, 0), (isa.ST, 3, 4, 1), (isa.ST, 3, 8, 2),
        (isa.FADD, 4, 0, 1), (isa.ST, 3, 12, 4),
        (isa.FMUL, 5, 1, 1), (isa.ST, 3, 16, 5),
        (isa.RET, 1),
    ]))
    ref, fast = _both(image)
    for run in (ref, fast):
        words = run.cpu.memory.words[GLOBAL >> 2:(GLOBAL >> 2) + 5]
        assert words[0] == math.inf and words[3] == math.inf
        assert math.copysign(1.0, words[1]) == -1.0
        assert math.isnan(words[2])
        assert math.copysign(1.0, run.state.exit_value) == -1.0
    for traced, watched in [(False, False), (True, False), (False, True)]:
        source = _source(image, traced, watched)
        assert "inf" not in source and "nan" not in source and "-0.0" not in source
        assert "K0" in source


@pytest.mark.parametrize("bad", [
    (isa.LD, 1, 0, "__import__('os').getpid()"),
    (isa.LD, 1, 0, 2.5),
    (isa.MOV, True, 0),
    (isa.ADD, 1, 0, 99),
    (isa.LEAF, 1, None),
    (isa.LDI, -1, 3),
])
def test_non_int_or_out_of_range_operands_are_not_compiled(bad):
    image = _hand_image(("main", 4, 8, [(isa.LDI, 0, GLOBAL), bad, (isa.RET, 0)]))
    source = _source(image, traced=True, watched=True)
    assert "__import__" not in source and "2.5" not in source
    ref, fast = (_run(image, loop) for loop in LOOPS)
    assert type(ref.error) is type(fast.error)
    if ref.error is None:
        assert ref.state == fast.state


def test_unsupported_instruction_hands_over_mid_function():
    image = _hand_image(("main", 4, 8, [
        (isa.LDI, 0, GLOBAL), (isa.LDI, 1, 5), (isa.ST, 0, 0, 1),
        (isa.NOP, "odd"), (isa.LD, 2, 0, 0), (isa.RET, 2),
    ]))
    ref, fast = _both(image)
    assert fast.state.exit_value == 5


@pytest.mark.parametrize("image", [
    _minic(_PLAIN),
    _hand_image(("main", 4, 8, [(isa.LDI, 0, GLOBAL), (isa.ST, 0, 0, 0),
                                (isa.NOP, "odd"), (isa.ST, 0, 4, 0), (isa.RET, 0)])),
], ids=["plain", "handover"])
def test_cpu_counters_reported_once_per_segment(image):
    counters = []
    was_enabled = observe.is_enabled()
    for loop in LOOPS:
        observe.reset()
        observe.enable()
        try:
            _run(image, loop)
            snapshot = observe.get_registry().snapshot()["counters"]
        finally:
            if not was_enabled:
                observe.disable()
            observe.reset()
        counters.append({k: v for k, v in snapshot.items() if k.startswith("cpu.")})
    assert counters[0] == counters[1]
    assert counters[0]["cpu.runs"] == 1


# ---------------------------------------------------------------------------
# Tier selection
# ---------------------------------------------------------------------------


@pytest.fixture
def tiers(monkeypatch):
    """Records each loop a run enters and each function table variant the
    fast path builds ("unwatched" or "watched")."""
    calls = []
    for name, label in (("_loop", "reference"), ("_fast_loop", "fast")):
        original = getattr(Cpu, name)

        def spy(self, pc, budget, _original=original, _label=label):
            calls.append(_label)
            return _original(self, pc, budget)

        monkeypatch.setattr(Cpu, name, spy)
    function_table = Cpu._function_table

    def table_spy(self, watched, *args):
        calls.append("watched" if watched else "unwatched")
        return function_table(self, watched, *args)

    monkeypatch.setattr(Cpu, "_function_table", table_spy)
    return calls


def _configured_run(configure, source=_PLAIN, patch=None):
    program = compile_source(source, "t")
    image = load_program(patch(program) if patch else program)
    cpu, _runtime = _machine(image)
    configure(cpu, image)
    return cpu.run("main")


@pytest.mark.parametrize("configure,table", [
    (lambda cpu, image: None, "unwatched"),
    (lambda cpu, image: cpu.enter_hooks.setdefault(1, [lambda f, fp: None]), "watched"),
    (lambda cpu, image: cpu.exit_hooks.setdefault(0, [lambda f, fp: None]), "watched"),
    (lambda cpu, image: cpu.enter_hooks.setdefault(0, []), "unwatched"),
    (lambda cpu, image: setattr(cpu, "check_hook", lambda a, pc, c: None), "watched"),
    (lambda cpu, image: cpu.page_table.protect([1]), "watched"),
    (lambda cpu, image: cpu.monitor_registers.allocate(8, 12), "watched"),
])
def test_tier_selection(tiers, configure, table):
    """Only the profiler picks the reference loop; hooks, protected pages
    and monitor registers pick the watched function table."""
    assert _configured_run(configure).exit_value == 3
    assert tiers == ["fast", table]


@pytest.mark.parametrize("hooked", [False, True])
def test_patched_image_runs_on_fast_tier(tiers, hooked):
    """A code-patched image runs on the fast path: its CHKs are steps,
    on the unwatched table without a check hook."""
    checks = []

    def configure(cpu, image):
        if hooked:
            cpu.check_hook = lambda address, pc, cpu_: checks.append((address, pc))

    state = _configured_run(configure, patch=apply_code_patch)
    assert state.exit_value == 3
    assert tiers == ["fast", "watched" if hooked else "unwatched"]
    assert state.stores > 0
    assert len(checks) == (state.stores if hooked else 0)


def test_profiled_run_uses_reference_loop(tiers):
    observe_profile.enable_profiling(7)
    try:
        _configured_run(lambda cpu, image: None)
    finally:
        observe_profile.disable_profiling()
    assert tiers == ["reference"]


def test_builtin_that_protects_a_page_hands_over():
    """After a builtin leaves a page protected, the next store to it
    must trap, exactly as on the reference loop."""
    image = _minic("""
    int g; int h;
    int main() { int i; g = 1; print_int(g); for (i = 0; i < 3; i++) { h = h + i; } return h; }
    """)
    page = image.global_var("h").address >> 12
    outcomes = []
    for loop in LOOPS:
        cpu, runtime = _machine(image)
        traps = []

        def sink(frame, cpu_, _traps=traps):
            _traps.append(frame.kind)
            cpu_.emulate_store(*frame.store_operands)

        def protecting(cpu_, args, _print=runtime._print_int):
            cpu_.page_table.protect([page])
            return _print(cpu_, args)

        cpu.builtins = [protecting if fn == runtime._print_int else fn
                        for fn in cpu.builtins]
        cpu.trap_sink = sink
        pc = cpu._push_entry(image.function_index("main"), [])
        state = getattr(cpu, loop)(pc, 100_000)
        outcomes.append((state, traps, runtime.output))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1] == [TrapKind.WRITE_FAULT] * 3
    assert outcomes[0][0].exit_value == 3
