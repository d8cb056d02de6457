"""Differential fuzzing of the MiniC toolchain.

Two oracles over randomly generated programs:

1. **Semantics oracle** — every generated MiniC program is also emitted
   as Python with C-exact integer semantics (truncating division,
   dividend-sign remainder, 0/1 comparisons); compiled-and-simulated
   results must match the Python evaluation exactly.

2. **Instrumentation equivalence** — the same program run plain,
   trap-patched, and code-patched must produce identical results and
   identical store counts (the rewrites may never change observable
   behaviour).

3. **Fast path equivalence** — the same program traced on the CPU's
   reference loop and on its function-compiled fast path must leave the
   same :class:`CpuState`, trace columns, object registry and memory;
   and the same program debugged with a random watch (a local of
   ``main``, of a helper or of the recursion, the array or one of its
   elements) under a random strategy must give the same stops, events,
   statistics and memory, or the same error, on both loops.

The generator covers assignments, compound assignment, ++/--, ternaries,
nested ifs, and bounded for-loops, over int variables and an int array,
and calls: one to three helper functions with zero to three int
parameters, called in expressions, as statements and inside loops, and
a bounded recursion.  The helpers write a global and return values
masked to ten bits, so results stay small.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.debugger import Debugger
from repro.machine import Cpu, Memory, load_program
from repro.machine.cpu import _c_div, _c_mod
from repro.minic.compiler import compile_source
from repro.minic.instrument import apply_code_patch, apply_trap_patch
from repro.minic.runtime import Runtime
from repro.sim_os import Signal, SimOs
from repro.trace.tracer import Tracer

VARS = ("a", "b", "c", "d")
ARRAY = "arr"
ARRAY_LEN = 5
#: The global every helper adds to.
TOTAL = "hg"
PARAMS = ("p0", "p1", "p2")


class _Gen:
    """Builds a MiniC body and a semantically identical Python body.

    ``scope`` names the int locals an expression may read and a statement
    may assign, ``callees`` the ``(name, arity)`` of the functions it may
    call.  A body makes at most ``call_sites`` calls in its text, inside
    loops only with ``calls_in_loops``, and nests at most ``max_depth``
    loops or ifs.
    """

    def __init__(self, draw, scope=VARS, callees=(), call_sites=0,
                 calls_in_loops=True, max_depth=2) -> None:
        self.draw = draw
        self.scope = scope
        self.callees = callees
        self.call_sites = call_sites
        self.calls_in_loops = calls_in_loops
        self.max_depth = max_depth
        self.c_lines = []
        self.py_lines = []
        self.depth = 0
        self.loop_id = 0
        self.in_loop = 0

    # -- emission ----------------------------------------------------------

    def emit(self, c_text: str, py_text: str) -> None:
        pad = "  " * (self.depth + 1)
        py_pad = "    " * (self.depth + 1)
        self.c_lines.append(pad + c_text)
        self.py_lines.append(py_pad + py_text)

    # -- expressions ----------------------------------------------------------

    def can_call(self) -> bool:
        return bool(self.callees) and self.call_sites > 0 and (
            self.calls_in_loops or not self.in_loop)

    def call(self, depth: int):
        """A call of one of ``callees``: (c_text, py_text)."""
        self.call_sites -= 1
        name, arity = self.draw(st.sampled_from(self.callees))
        args = [self.expr(depth + 1) for _ in range(arity)]
        if name == "rec":  # bound the recursion depth
            args[0] = tuple(f"({text}) & 7" for text in args[0])
        return tuple(f"{name}({', '.join(arg[i] for arg in args)})" for i in (0, 1))

    def expr(self, depth: int = 0):
        """Returns (c_text, py_text); both evaluate to the same int."""
        choice = self.draw(st.integers(0, 8 if depth < 2 else 2))
        if choice == 8:
            if self.can_call():
                return self.call(depth)
            choice = 1
        if choice == 0:
            value = self.draw(st.integers(-30, 30))
            return (str(value) if value >= 0 else f"({value})",) * 2
        if choice == 1:
            name = self.draw(st.sampled_from(self.scope))
            return name, name
        if choice == 2:
            index = self.draw(st.integers(0, ARRAY_LEN - 1))
            return f"{ARRAY}[{index}]", f"{ARRAY}[{index}]"
        if choice in (3, 4):
            op = self.draw(st.sampled_from(["+", "-", "*"]))
            lc, lp = self.expr(depth + 1)
            rc, rp = self.expr(depth + 1)
            return f"({lc} {op} {rc})", f"({lp} {op} {rp})"
        if choice == 5:
            # Division/remainder by a nonzero constant, C semantics.
            op = self.draw(st.sampled_from(["/", "%"]))
            lc, lp = self.expr(depth + 1)
            denom = self.draw(st.integers(1, 9))
            fn = "_c_div" if op == "/" else "_c_mod"
            return f"({lc} {op} {denom})", f"{fn}({lp}, {denom})"
        if choice == 6:
            op = self.draw(st.sampled_from(["<", "<=", ">", ">=", "==", "!="]))
            lc, lp = self.expr(depth + 1)
            rc, rp = self.expr(depth + 1)
            return f"({lc} {op} {rc})", f"(1 if {lp} {op} {rp} else 0)"
        cc, cp = self.expr(depth + 1)
        tc, tp = self.expr(depth + 1)
        ec, ep = self.expr(depth + 1)
        return (
            f"({cc} ? {tc} : {ec})",
            f"({tp} if {cp} != 0 else {ep})",
        )

    # -- statements ----------------------------------------------------------

    def statement(self) -> None:
        choice = self.draw(st.integers(0, 7 if self.depth < self.max_depth else 3))
        if choice == 7:
            if self.can_call():
                c_call, py_call = self.call(0)
                self.emit(f"{c_call};", py_call)
                return
            choice = 0
        if choice in (0, 1):
            target = self.draw(st.sampled_from(self.scope))
            c_expr, py_expr = self.expr()
            self.emit(f"{target} = {c_expr};", f"{target} = {py_expr}")
        elif choice == 2:
            target = self.draw(st.sampled_from(self.scope))
            op = self.draw(st.sampled_from(["+", "-", "*"]))
            c_expr, py_expr = self.expr()
            self.emit(f"{target} {op}= {c_expr};", f"{target} = {target} {op} ({py_expr})")
        elif choice == 3:
            target = self.draw(st.sampled_from(self.scope))
            op = self.draw(st.sampled_from(["++", "--"]))
            sign = "+" if op == "++" else "-"
            prefix = self.draw(st.booleans())
            c_text = f"{op}{target};" if prefix else f"{target}{op};"
            self.emit(c_text, f"{target} = {target} {sign} 1")
        elif choice == 4:
            index = self.draw(st.integers(0, ARRAY_LEN - 1))
            c_expr, py_expr = self.expr()
            self.emit(f"{ARRAY}[{index}] = {c_expr};", f"{ARRAY}[{index}] = {py_expr}")
        elif choice == 5:
            c_cond, py_cond = self.expr()
            self.emit(f"if ({c_cond}) {{", f"if ({py_cond}) != 0:")
            self.depth += 1
            self.block(max_statements=3)
            self.depth -= 1
            self.emit("}", "pass")
        else:
            count = self.draw(st.integers(1, 4))
            loop_var = f"i{self.loop_id}"
            self.loop_id += 1
            self.emit(
                f"for ({loop_var} = 0; {loop_var} < {count}; {loop_var}++) {{",
                f"for {loop_var} in range({count}):",
            )
            self.depth += 1
            self.in_loop += 1
            self.block(max_statements=3)
            self.in_loop -= 1
            self.depth -= 1
            self.emit("}", "pass")

    def block(self, max_statements: int) -> None:
        for _ in range(self.draw(st.integers(1, max_statements))):
            self.statement()


def _helper(draw, name: str, arity: int, callees) -> tuple:
    """Helper ``name``: locals, a few statements (one loop level, no
    call inside it, at most two calls), an addition to the global total
    and a ten-bit result; (c_source, py_source)."""
    params = PARAMS[:arity]
    gen = _Gen(draw, scope=params + ("t",), callees=callees, call_sites=2,
               calls_in_loops=False, max_depth=1)
    start = draw(st.integers(-10, 10))
    gen.block(max_statements=3)
    ret_c, ret_py = gen.expr()
    loop_decls = "".join(f"  int i{index};\n" for index in range(gen.loop_id))
    body_c = "\n".join(gen.c_lines)
    body_py = "\n".join("    " + line for line in gen.py_lines)
    c_source = f"""
int {name}({', '.join(f'int {p}' for p in params)}) {{
  int t;
{loop_decls}  t = {start};
{body_c}
  {TOTAL} = ({TOTAL} + t) & 65535;
  return ({ret_c}) & 1023;
}}
"""
    py_source = f"""
    def {name}({', '.join(params)}):
        nonlocal {TOTAL}
        t = {start}
{body_py}
        {TOTAL} = ({TOTAL} + t) & 65535
        return ({ret_py}) & 1023
"""
    return c_source, py_source


def _recursion(draw) -> tuple:
    """``rec(n, x)``: recurses ``n`` deep (callers pass ``n & 7``)."""
    gen = _Gen(draw, scope=("n", "x"))
    (step_c, step_py), (add_c, add_py) = gen.expr(), gen.expr()
    c_source = f"""
int rec(int n, int x) {{
  if (n <= 0) {{ return x & 1023; }}
  return (rec(n - 1, ({step_c}) & 1023) + {add_c}) & 1023;
}}
"""
    py_source = f"""
    def rec(n, x):
        if n <= 0:
            return x & 1023
        return (rec(n - 1, ({step_py}) & 1023) + {add_py}) & 1023
"""
    return c_source, py_source


def _generate(draw):
    functions = [_recursion(draw)]
    callees = [("rec", 2)]
    for index in range(draw(st.integers(1, 3))):
        name, arity = f"h{index}", draw(st.integers(0, 3))
        functions.append(_helper(draw, name, arity, tuple(callees)))
        callees.append((name, arity))

    gen = _Gen(draw, callees=tuple(callees), call_sites=6)
    init = [draw(st.integers(-10, 10)) for _ in VARS]
    gen.block(max_statements=8)
    n_loops = gen.loop_id

    decls = "\n".join(f"  int {name};" for name in VARS)
    loop_decls = "\n".join(f"  int i{index};" for index in range(n_loops))
    inits = "\n".join(f"  {name} = {value};" for name, value in zip(VARS, init))
    body = "\n".join(gen.c_lines)
    result = " + ".join(f"{name} * {weight}" for name, weight in zip(VARS, (1, 7, 13, 31)))
    array_sum = " + ".join(f"{ARRAY}[{i}] * {i + 3}" for i in range(ARRAY_LEN))
    c_source = f"""
int {ARRAY}[{ARRAY_LEN}];
int {TOTAL};
{"".join(c for c, _ in functions)}
int main() {{
{decls}
{loop_decls}
{inits}
{body}
  return ({result} + {array_sum} + {TOTAL} * 3) & 1048575;
}}
"""
    py_body = "\n".join(gen.py_lines) or "    pass"
    py_inits = "\n".join(
        f"    {name} = {value}" for name, value in zip(VARS, init)
    )
    py_source = f"""
def run(_c_div, _c_mod):
    {ARRAY} = [0] * {ARRAY_LEN}
    {TOTAL} = 0
{"".join(py for _, py in functions)}
{py_inits}
{py_body}
    return ({result} + {array_sum} + {TOTAL} * 3) & 1048575
"""
    return c_source, py_source


def _run_compiled(program) -> tuple:
    image = load_program(program)
    cpu = Cpu(Memory())
    runtime = Runtime(cpu)
    runtime.install()
    cpu.attach(image)
    os = SimOs(cpu)
    os.sigaction(Signal.SIGTRAP, lambda frame, c: os.emulate(frame, c))
    cpu.check_hook = lambda addr, pc, c: None
    state = cpu.run("main", max_instructions=2_000_000)
    return state.exit_value, state.stores


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_compiler_matches_python_oracle(data):
    c_source, py_source = _generate(data.draw)
    namespace = {}
    exec(py_source, namespace)  # noqa: S102 - test-local generated code
    expected = namespace["run"](_c_div, _c_mod)

    program = compile_source(c_source, "fuzz")
    got, _stores = _run_compiled(program)
    assert got == expected, f"\n--- C ---\n{c_source}\n--- py ---\n{py_source}"


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_instrumentation_preserves_behaviour(data):
    c_source, _py_source = _generate(data.draw)
    program = compile_source(c_source, "fuzz")
    plain_result, plain_stores = _run_compiled(program)
    trap_result, trap_stores = _run_compiled(apply_trap_patch(program))
    code_result, code_stores = _run_compiled(apply_code_patch(program))
    assert trap_result == plain_result
    assert code_result == plain_result
    assert trap_stores == plain_stores
    assert code_stores == plain_stores


def _nonzero_blocks(words, size: int = 4096) -> dict:
    """The ``size``-word blocks of a memory's words that hold a word not
    equal to 0, by start index: two memories compare equal exactly when
    their word lists do, at a small fraction of the 4M-word list's
    size (and of the time to repr it when a comparison fails)."""
    return {start: words[start:start + size]
            for start in range(0, len(words), size)
            if words[start:start + size].count(0) != size}


def _run_traced(program, loop: str) -> tuple:
    """Trace ``program`` calling the CPU loop method ``loop`` directly."""
    image = load_program(program)
    cpu = Cpu(Memory())
    runtime = Runtime(cpu)
    runtime.install()
    cpu.attach(image)
    tracer = Tracer(cpu, image, "fuzz")
    tracer.begin()
    pc = cpu._push_entry(image.function_index("main"), [])
    state = getattr(cpu, loop)(pc, 2_000_000)
    columns = [column.tobytes() for column in tracer.finish(state).as_arrays()]
    registry = [vars(obj) for obj in tracer.registry.objects]
    return state, columns, registry, _nonzero_blocks(cpu.memory.words)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_fast_path_matches_reference_loop(data):
    c_source, _py_source = _generate(data.draw)
    program = compile_source(c_source, "fuzz")
    reference = _run_traced(program, "_loop")
    fast = _run_traced(program, "_fast_loop")
    assert reference == fast, f"\n--- C ---\n{c_source}"


def _run_watched(program, loop: str, strategy: str, page_size: int, watch: str,
                 action: str) -> dict:
    """Debug ``program`` with one data breakpoint, every segment on the
    CPU loop method ``loop``, continuing through every stop.

    An error the session raises (``native`` runs out of monitor
    registers when a watched local has more than four live activations)
    is part of the result, with the counters it left."""
    debugger = Debugger(program, strategy=strategy, page_size=page_size)
    cpu = debugger.cpu
    cpu._execute = getattr(cpu, loop)
    if isinstance(watch, tuple):  # (function, local)
        bp = debugger.watch_local(*watch, action=action)
    elif watch == ARRAY:
        bp = debugger.watch_global(ARRAY, action=action)
    else:  # one element of the array, by address
        begin = debugger.symbols.global_range(ARRAY)[0] + 4 * int(watch[len(ARRAY):])
        bp = debugger.watch_address(begin, begin + 4, action=action)
    stops, error, state = [], None, None
    try:
        outcome = debugger.run(max_instructions=2_000_000)
        while outcome.stopped and len(stops) < 30:
            stops.append((outcome.stop.pc, outcome.stop.event.value,
                          cpu.instructions, cpu.cycles, cpu.stores))
            outcome = debugger.cont(max_instructions=2_000_000)
        state = outcome.state
    except Exception as exc:  # compared across loops
        error = f"{type(exc).__name__}: {exc}"
    return {
        "error": error,
        "stops": stops,
        "state": state,
        "events": [(e.pc, e.address, e.value) for e in bp.events],
        "stats": vars(debugger.wms.stats),
        "counters": (cpu.instructions, cpu.cycles, cpu.stores, dict(cpu.trap_counts)),
        "os": dict(debugger.os.counters),
        "memory": _nonzero_blocks(cpu.memory.words),
    }


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_watched_fast_path_matches_reference_loop(data):
    c_source, _py_source = _generate(data.draw)
    program = compile_source(c_source, "fuzz")
    strategy = data.draw(st.sampled_from(["native", "vm", "trap", "code"]))
    page_size = data.draw(st.sampled_from([4096, 8192]))
    # Locals of the helpers and the recursion put enter and exit hooks on
    # functions the fast path calls directly.
    locals_ = [("main", name) for name in VARS] + [
        (func.name, var.name) for func in load_program(program).functions
        if func.name != "main" for var in func.frame_vars()]
    watch = data.draw(st.sampled_from(
        locals_ + [ARRAY] + [f"{ARRAY}{i}" for i in range(ARRAY_LEN)]))
    action = data.draw(st.sampled_from(["log", "stop"]))
    reference, fast = (
        _run_watched(program, loop, strategy, page_size, watch, action)
        for loop in ("_loop", "_fast_loop")
    )
    assert reference == fast, f"\n--- C ---\n{c_source}"


RECURSION_5 = """
int rec(int n, int x) {
  if (n <= 0) { return x & 1023; }
  return (rec(n - 1, (x + n) & 1023) + 1) & 1023;
}
int main() {
  return rec(5, 1);
}
"""


@pytest.mark.parametrize("action", ["log", "stop"])
def test_watched_recursion_past_the_monitor_registers_fails_alike(action):
    """A watched local of a recursion six activations deep needs a fifth
    monitor register at ``rec(1)``'s entry: both loops raise the same
    error with the same counters."""
    program = compile_source(RECURSION_5, "rec5")
    reference, fast = (
        _run_watched(program, loop, "native", 4096, ("rec", "x"), action)
        for loop in ("_loop", "_fast_loop")
    )
    assert reference["error"] == (
        "MonitorRegisterExhausted: all 4 hardware monitor registers in use")
    assert reference["stats"]["installs"] == 4
    assert reference == fast
