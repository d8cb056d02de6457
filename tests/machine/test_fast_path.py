"""The block-compiled fast path against the reference loop.

Every test runs the same program twice, calling ``Cpu._loop`` and
``Cpu._fast_loop`` directly on fresh machines, and demands the same
outcome: exit value, :class:`CpuState`, counters, memory, the frames'
register lists, trace and, for faults, the same exception type and
message with the same ``instructions``/``cycles``/``stores``.  (Python's
own errors, such as a negative shift count, may leave the faulting
block's register writes out of the register list.)
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
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
from repro.machine.layout import DEFAULT_LAYOUT
from repro.machine.traps import TrapKind
from repro.minic.compiler import compile_source
from repro.minic.instrument import apply_code_patch
from repro.minic.runtime import Runtime
from repro.observe import profile as observe_profile
from repro.trace.stream import ChunkingTracer
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


def _run(image, loop, max_instructions=100_000, tracer_cls=None, **tracer_kw):
    cpu, runtime = _machine(image)
    tracer = None
    if tracer_cls is not None:
        tracer = tracer_cls(cpu, image, "t", **tracer_kw)
        tracer.begin()
        runtime.heap.listeners.append(tracer)
    pc = cpu._push_entry(image.function_index("main"), [])
    state = error = None
    try:
        state = getattr(cpu, loop)(pc, max_instructions)
    except Exception as exc:  # compared across loops below
        error = exc
    return SimpleNamespace(cpu=cpu, runtime=runtime, tracer=tracer,
                           state=state, error=error)


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
    if ref.error is None or isinstance(ref.error, ReproError):
        assert _registers(ref.cpu) == _registers(fast.cpu)
    return ref, fast


def _registers(cpu):
    return [(frame.func.name, list(frame.regs)) for frame in cpu.frames]


def _minic(source):
    return load_program(compile_source(source, "t"))


def _source(image, traced, watched):
    """The generated source of every function factory of ``image``."""
    compiler = blocks._Compiler(image, image.layout, watched)
    return "\n".join(source for source, _, _ in compiler.sources(traced))


# ---------------------------------------------------------------------------
# Whole programs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["bps", "ctex", "gcc", "qcd", "spice"])
def test_workloads_identical_at_smoke_scale(name):
    tool = _load_tool()
    reference, fast = (tool.traced_run(name, "smoke", loop) for loop in LOOPS)
    assert tool.mismatches(reference, fast) == []


@pytest.mark.parametrize("small_slices", [False, True])
def test_chunk_boundaries_and_contents_match_per_hook_rule(monkeypatch, small_slices):
    """ChunkingTracer cuts after the first hook at or past chunk_events
    buffered events: model that rule hook by hook and compare.  With
    small slices, drains split hooks and expansions split the log, and
    the fast path offers a drain every few instructions, so its inline
    frame records cross drain boundaries too."""
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
    expected = whole.tracer.finish(whole.state).as_arrays()
    if small_slices:
        monkeypatch.setattr(tracer_module, "LOG_SLICE", 5)
        monkeypatch.setattr(tracer_module, "EXPAND_EVENTS", 3)
        monkeypatch.setattr(cpu_module, "_DRAIN_STRIDE", 7)

    sizes = None
    for loop in LOOPS:
        cpu, runtime = _machine(image)
        chunks = []
        tracer = ChunkingTracer(cpu, image, "t", emit=chunks.append, chunk_events=16)
        tracer.begin()
        hook_sizes = [len(tracer._static_ranges)]
        if loop == "_loop":
            # Record every hook's event count; the fast run appends
            # stores to the tracer's log directly.
            cpu.tracer = _HookSizes(tracer, hook_sizes)
        runtime.heap.listeners.append(cpu.tracer)
        pc = cpu._push_entry(image.function_index("main"), [])
        state = getattr(cpu, loop)(pc, 1_000_000)
        tracer.finish(state)
        if sizes is None:
            sizes = _per_hook_chunk_sizes(hook_sizes, 16, total=len(expected.kinds))
            assert len(sizes) > 10
        assert [chunk.n_events for chunk in chunks] == sizes
        for column, want in zip(("kinds", "col_a", "col_b", "col_c"), expected):
            got = np.concatenate([getattr(chunk, column) for chunk in chunks])
            assert got.tobytes() == want.tobytes()


class _HookSizes:
    """Forwards every hook to a tracer and records how many events it adds."""

    def __init__(self, tracer, sizes):
        self.tracer = tracer
        self.sizes = sizes

    def on_enter(self, func, frame_base):
        self.tracer.on_enter(func, frame_base)
        self.sizes.append(int(self.tracer._plan_len[func.index]))

    def on_exit(self, func, frame_base):
        self.tracer.on_exit(func, frame_base)
        self.sizes.append(int(self.tracer._plan_len[func.index]))

    def on_write(self, address):
        self.tracer.on_write(address)
        self.sizes.append(1)

    def on_alloc(self, address, size):
        self.tracer.on_alloc(address, size)
        self.sizes.append(1)

    def on_free(self, address, size):
        tracked = address in self.tracer._live_heap
        self.tracer.on_free(address, size)
        self.sizes.append(int(tracked))

    def on_realloc(self, old, old_size, new, new_size):
        tracked = old in self.tracer._live_heap
        self.tracer.on_realloc(old, old_size, new, new_size)
        self.sizes.append(2 * tracked)


def _per_hook_chunk_sizes(hook_sizes, chunk_events, total):
    sizes, buffered = [], 0
    for size in hook_sizes:
        buffered += size
        if buffered >= chunk_events:
            sizes.append(buffered)
            buffered = 0
    tail = total - sum(sizes)  # the close-out removes join the last chunk
    return sizes + ([tail] if tail else [])


class _DrainSizes(Tracer):
    """A tracer that records how many log records each drain sees."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.drained = []

    def drain(self):
        self.drained.append(len(self.log))
        super().drain()


@pytest.mark.parametrize("body", [
    # Call-free, about one store per twelve instructions.
    "for (i = 0; i < 40000; i++) { s = s ^ i; if ((i & 7) == 0) { g[i & 3] = s; } }",
    # A call and a return (inline frame records) every iteration.
    "for (i = 0; i < 6000; i++) { s = s + f(i); }",
], ids=["call-free", "calls"])
def test_fast_tracer_log_stays_bounded(body):
    """The fast path offers a drain every _DRAIN_STRIDE instructions; the
    tracer drains only a full log, so a run drains at most once per
    LOG_SLICE records (plus the final drain), and no drain sees more than
    LOG_SLICE + _DRAIN_STRIDE records."""
    source = """
    int g[4];
    int f(int x) { return x + 1; }
    int main() { int i; int s; s = 0; %s return s; }
    """ % body
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


def test_budget_ending_anywhere_in_a_block():
    image = _minic("""
    int g;
    int main() { int i; for (i = 0; i < 50; i++) { g = g + i * 3; } return g; }
    """)
    for budget in range(1, 80):
        ref, _fast = _both(image, max_instructions=budget)
        assert type(ref.error) is CpuLimitExceeded


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
    """Records each loop a run enters and each block table variant the
    fast path builds ("unwatched" or "watched")."""
    calls = []
    for name, label in (("_loop", "reference"), ("_fast_loop", "fast")):
        original = getattr(Cpu, name)

        def spy(self, pc, budget, _original=original, _label=label):
            calls.append(_label)
            return _original(self, pc, budget)

        monkeypatch.setattr(Cpu, name, spy)
    block_table = Cpu._block_table

    def table_spy(self, watched):
        calls.append("watched" if watched else "unwatched")
        return block_table(self, watched)

    monkeypatch.setattr(Cpu, "_block_table", table_spy)
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
    and monitor registers pick the watched block table."""
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
        observe_profile.reset_profile()
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
