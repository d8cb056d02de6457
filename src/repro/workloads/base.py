"""Workload abstraction and the phase-1 runner.

A :class:`Workload` supplies MiniC source (parameterized by a scale
knob), pokes its input data into the debuggee's global segment before the
run (the analogue of the paper's program inputs — ``rtl.c`` for GCC, a
TeX document for CTEX, ...), and states a self-check so a broken workload
cannot silently produce a meaningless trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro import observe
from repro.errors import PipelineError
from repro.machine.cpu import Cpu, CpuState
from repro.machine.loader import LoadedProgram, load_program
from repro.machine.memory import Memory
from repro.minic.compiler import CompiledProgram, compile_source
from repro.minic.runtime import Runtime
from repro.trace.events import EventTrace
from repro.trace.objects import ObjectRegistry
from repro.trace.tracer import Tracer


class Workload:
    """One benchmark program.

    Subclasses set :attr:`name` and implement :meth:`source` (MiniC text
    for a given scale), optionally :meth:`setup` (write input data into
    globals), and :meth:`check` (validate the program's result).
    """

    name: str = "workload"
    #: Scale used by the full table-reproduction experiments.
    default_scale: int = 1
    #: Scale used by fast tests.
    smoke_scale: int = 1

    def source(self, scale: int) -> str:
        """MiniC source text at the given scale."""
        raise NotImplementedError

    def setup(self, memory: Memory, image: LoadedProgram, scale: int) -> None:
        """Write input data into the global segment before the run."""

    def check(self, state: CpuState, runtime: Runtime, scale: int) -> None:
        """Validate the run; raise :class:`PipelineError` on nonsense."""
        if state.exit_value is None:
            raise PipelineError(f"{self.name}: program returned no value")

    def compile(self, scale: Optional[int] = None) -> CompiledProgram:
        """Compile this workload at ``scale`` (default: full scale)."""
        scale = self.default_scale if scale is None else scale
        return compile_source(self.source(scale), self.name)


@dataclass
class WorkloadRun:
    """Everything phase 1 produces for one workload run."""

    workload: Workload
    scale: int
    program: CompiledProgram
    trace: EventTrace
    registry: ObjectRegistry
    state: CpuState
    output: list


def run_workload(
    workload: Workload,
    scale: Optional[int] = None,
    max_instructions: int = 500_000_000,
    on_progress: Optional[Callable[[str], None]] = None,
) -> WorkloadRun:
    """Phase 1 for one workload: compile, run under the tracer, check."""
    scale = workload.default_scale if scale is None else scale
    if on_progress:
        on_progress(f"compiling {workload.name} (scale {scale})")
    with observe.span("compile", program=workload.name):
        program = workload.compile(scale)
    layout = program.layout
    image = load_program(program, layout)
    memory = Memory(layout)
    cpu = Cpu(memory, layout=layout)
    runtime = Runtime(cpu, layout)
    runtime.install()
    cpu.attach(image)
    workload.setup(memory, image, scale)
    tracer = Tracer(cpu, image, workload.name)
    tracer.begin()
    runtime.heap.listeners.append(tracer)
    if on_progress:
        on_progress(f"tracing {workload.name}")
    with observe.span("trace", program=workload.name):
        state = cpu.run("main", (), max_instructions)
        trace = tracer.finish(state)
    workload.check(state, runtime, scale)
    # Phase 1 is done with the machine.  Its runtime and CPU reference each
    # other (the CPU holds the runtime's builtins, which are bound
    # methods), so whatever they reach lives until the next full garbage
    # collection, next to the following program's machine.  Unhook the
    # tracer, whose trace the caller may drop early, and drop the words.
    runtime.heap.listeners.remove(tracer)
    memory.words = []
    return WorkloadRun(
        workload=workload,
        scale=scale,
        program=program,
        trace=trace,
        registry=tracer.registry,
        state=state,
        output=list(runtime.output),
    )
