"""Phase-1 tracer: runs an instrumented program and records its trace.

Plays the role of the paper's post-processed assembly: while the program
runs, every store emits a WriteEvent, every function entry/exit emits
Install/RemoveMonitorEvents for that function's automatic variables (all
instantiations of a variable share one ObjectDesc), and the allocator's
listener interface emits events at heap-object boundaries.  Globals and
function statics are installed once at startup.

:func:`trace_program` is the convenience driver: build the machine, run
the program under a tracer, return the trace, the object registry, and
the final CPU state.

When observation is on (:mod:`repro.observe`), :meth:`Tracer.finish`
reports the ``trace.events`` / ``trace.writes`` / ``trace.installs`` /
``trace.removes`` / ``trace.objects_registered`` counters — once per
run, never per event, so the per-store hooks stay uninstrumented.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import observe

from repro.machine.cpu import Cpu, CpuState
from repro.machine.layout import MemoryLayout
from repro.machine.loader import LoadedProgram, load_program
from repro.machine.memory import Memory
from repro.minic.compiler import CompiledProgram
from repro.minic.runtime import Runtime
from repro.trace.events import EventKind, EventTrace
from repro.trace.objects import ObjectRegistry


#: Log records a hook lets accumulate before the log is expanded.
LOG_SLICE = 1 << 14
#: Events one expansion step produces at most (unless a single record,
#: a frame with more variables, needs more), which bounds its temporaries.
EXPAND_EVENTS = 1 << 16

# Tags in the low two bits of a negative (``~word``) log record.
_ENTER, _EXIT, _SIDE = 0, 1, 2


class Tracer:
    """Observes one run and builds the event trace.

    Every hook appends one int64 record to :attr:`log`:

    * a store appends its address (always ``>= 0``: stores are range
      checked before the hook runs);
    * a function entry or exit appends ``~(((frame_base << F) | index)
      << 2 | tag)``, ``F`` bits being enough for any function index;
    * a heap or static event appends ``~(side << 2 | 2)``, ``side``
      indexing an explicit ``(kind, a, b, c, ends_hook)`` side record.

    :meth:`drain` expands the records, at most :data:`EXPAND_EVENTS`
    events at a time, into the four :class:`EventTrace` columns with
    NumPy: a store becomes one WRITE, a frame record one INSTALL or
    REMOVE per variable of the function's frame plan, a side record its
    one event.  A hook drains when the log reaches :data:`LOG_SLICE`;
    the CPU's fast path appends store addresses straight to :attr:`log`
    and drains at its own checkpoints.
    """

    def __init__(self, cpu: Cpu, image: LoadedProgram, program_name: str = "") -> None:
        self.cpu = cpu
        self.image = image
        self.trace = EventTrace(program_name or image.name)
        self.registry = ObjectRegistry()
        #: One int64 record per hook (see the class docstring).
        self.log = array("q")
        #: Heap and static events of the records still in the log.
        self._side: List[Tuple[int, int, int, int, bool]] = []
        self._func_bits = max(1, len(image.functions).bit_length())
        #: Every function's frame plan, flattened: per function index the
        #: start and length of its run in the offset/size/object arrays.
        self._plan_start = self._plan_len = None
        self._plan_obj = self._plan_off = self._plan_size = None
        #: live heap blocks: address -> (object id, size)
        self._live_heap: Dict[int, Tuple[int, int]] = {}
        #: (object id, address, size) of globals/statics installed at start.
        self._static_ranges: List[Tuple[int, int, int]] = []

    # ------------------------------------------------------------------
    # Setup / teardown
    # ------------------------------------------------------------------

    def begin(self) -> None:
        """Install global and static objects; hook the CPU and allocator."""
        statics = []
        for var in self.image.global_vars:
            if var.owner_function is None:
                obj = self.registry.global_(var.name, var.size_bytes)
            else:
                obj = self.registry.static(var.owner_function, var.name, var.size_bytes)
            statics.append((obj.id, var.address, var.size_bytes))
        flat: List[Tuple[int, int, int]] = []
        starts, lengths = [], []
        for func in self.image.functions:
            starts.append(len(flat))
            for var in func.frame_vars():
                obj = self.registry.local(func.name, var.name, var.size_bytes, var.is_param)
                flat.append((var.offset, var.size_bytes, obj.id))
            lengths.append(len(flat) - starts[-1])
        self._plan_start = np.array(starts, dtype=np.int64)
        self._plan_len = np.array(lengths, dtype=np.int64)
        columns = np.array(flat, dtype=np.int64).reshape(-1, 3).T.copy()
        self._plan_off, self._plan_size, self._plan_obj = columns
        for i, (object_id, address, size) in enumerate(statics):
            # Installing the statics is one hook: a chunk may end only
            # after the last of them.
            self._side_event(EventKind.INSTALL, object_id, address,
                             address + size, i == len(statics) - 1)
        self._static_ranges = statics
        self.cpu.tracer = self

    def finish(self, state: Optional[CpuState] = None) -> EventTrace:
        """Close all open monitor windows and finalize metadata."""
        self._close_windows()
        self._finalize_meta()
        self.trace.validate()
        self._report_counters(len(self.trace))
        return self.trace

    def _close_windows(self) -> None:
        """Emit the closing removes for everything still live, unhook,
        and expand the whole log."""
        for address, (object_id, size) in list(self._live_heap.items()):
            self._side_event(EventKind.REMOVE, object_id, address, address + size, False)
        self._live_heap.clear()
        for object_id, address, size in self._static_ranges:
            self._side_event(EventKind.REMOVE, object_id, address, address + size, False)
        self.cpu.tracer = None
        self.drain()

    def _finalize_meta(self) -> None:
        self.trace.meta.cycles = self.cpu.cycles
        self.trace.meta.instructions = self.cpu.instructions
        self.trace.meta.stores = self.cpu.stores

    def _report_counters(self, n_events: int) -> None:
        if observe.is_enabled():
            meta = self.trace.meta
            observe.inc("trace.events", n_events)
            observe.inc("trace.writes", meta.n_writes)
            observe.inc("trace.installs", meta.n_installs)
            observe.inc("trace.removes", meta.n_removes)
            observe.inc("trace.objects_registered", len(self.registry))

    # ------------------------------------------------------------------
    # The log
    # ------------------------------------------------------------------

    def _side_event(self, kind: int, a: int, b: int, c: int, ends_hook: bool = True) -> None:
        side = self._side
        side.append((kind, a, b, c, ends_hook))
        log = self.log
        log.append(~((len(side) - 1) << 2 | _SIDE))
        if len(log) >= LOG_SLICE:
            self.drain()

    def drain(self) -> None:
        """Expand every record in the log into trace events, at most
        :data:`EXPAND_EVENTS` events (or one record) at a time."""
        log = self.log
        if not log:
            return
        records = np.frombuffer(log, dtype=np.int64).copy()
        del log[:]
        side = np.array([event[:4] for event in self._side],
                        dtype=np.int64).reshape(-1, 4)
        side_ends = np.array([event[4] for event in self._side], dtype=bool)
        self._side.clear()

        # Decode every record: its tag (3 for a store), payload, function
        # index (frame records) and event count.
        word = ~records
        tag = np.where(records < 0, word & 3, 3)
        payload = word >> 2
        func = np.where(tag < _SIDE, payload & ((1 << self._func_bits) - 1), 0)
        counts = np.where(tag < _SIDE, self._plan_len[func], 1)
        ends = np.cumsum(counts)
        # A chunk may end after any record that ends a hook.
        side_records = tag == _SIDE
        eligible = ~side_records
        eligible[side_records] = side_ends[payload[side_records]]

        meta = self.trace.meta
        start = 0
        while start < len(records):
            done = int(ends[start - 1]) if start else 0
            stop = max(start + 1, int(np.searchsorted(ends, done + EXPAND_EVENTS, "right")))
            part = slice(start, stop)
            kinds, a, b, c = self._expand(records[part], tag[part], payload[part],
                                          func[part], counts[part], side)
            per_kind = np.bincount(kinds, minlength=4)
            meta.n_installs += int(per_kind[EventKind.INSTALL])
            meta.n_removes += int(per_kind[EventKind.REMOVE])
            meta.n_writes += int(per_kind[EventKind.WRITE])
            self._absorb(kinds, a, b, c, ends[part] - done, eligible[part])
            start = stop

    def _expand(self, records, tag, payload, func, counts, side):
        """The four event columns of decoded ``records``."""
        ends = np.cumsum(counts)
        total = int(ends[-1])
        rec = np.repeat(np.arange(len(records)), counts)
        event_tag = tag[rec]
        kinds = np.empty(total, dtype=np.int8)
        a = np.empty(total, dtype=np.int64)
        b = np.empty(total, dtype=np.int64)
        c = np.empty(total, dtype=np.int64)

        store = event_tag == 3
        address = records[rec[store]]
        kinds[store] = EventKind.WRITE
        a[store] = address
        b[store] = address + 4
        c[store] = 0

        frame = event_tag < _SIDE
        frame_rec = rec[frame]
        nth = np.arange(total)[frame] - (ends - counts)[frame_rec]
        flat = self._plan_start[func[frame_rec]] + nth
        begin = (payload[frame_rec] >> self._func_bits) + self._plan_off[flat]
        kinds[frame] = event_tag[frame] + 1  # INSTALL on entry, REMOVE on exit
        a[frame] = self._plan_obj[flat]
        b[frame] = begin
        c[frame] = begin + self._plan_size[flat]

        is_side = event_tag == _SIDE
        events = side[payload[rec[is_side]]]
        kinds[is_side] = events[:, 0]
        a[is_side] = events[:, 1]
        b[is_side] = events[:, 2]
        c[is_side] = events[:, 3]
        return kinds, a, b, c

    def _absorb(self, kinds, a, b, c, ends, eligible) -> None:
        """Append expanded events to the trace."""
        self._append(kinds, a, b, c, 0, len(kinds))

    def _append(self, kinds, a, b, c, lo: int, hi: int) -> None:
        trace = self.trace
        trace.kinds.frombytes(kinds[lo:hi].tobytes())
        trace.col_a.frombytes(a[lo:hi].tobytes())
        trace.col_b.frombytes(b[lo:hi].tobytes())
        trace.col_c.frombytes(c[lo:hi].tobytes())

    # ------------------------------------------------------------------
    # CPU tracer protocol
    # ------------------------------------------------------------------

    def on_enter(self, func, frame_base: int) -> None:
        log = self.log
        log.append(~(((frame_base << self._func_bits | func.index) << 2) | _ENTER))
        if len(log) >= LOG_SLICE:
            self.drain()

    def on_exit(self, func, frame_base: int) -> None:
        log = self.log
        log.append(~(((frame_base << self._func_bits | func.index) << 2) | _EXIT))
        if len(log) >= LOG_SLICE:
            self.drain()

    def on_write(self, address: int) -> None:
        """A word store to ``[address, address + 4)``."""
        log = self.log
        log.append(address)
        if len(log) >= LOG_SLICE:
            self.drain()

    # ------------------------------------------------------------------
    # Heap listener protocol
    # ------------------------------------------------------------------

    def on_alloc(self, address: int, size_bytes: int) -> None:
        frames = self.cpu.frames
        function = frames[-1].func.name if frames else "<startup>"
        context = tuple(frame.func.name for frame in frames)
        obj = self.registry.heap(function, context, size_bytes)
        self._live_heap[address] = (obj.id, size_bytes)
        self._side_event(EventKind.INSTALL, obj.id, address, address + size_bytes)

    def on_free(self, address: int, size_bytes: int) -> None:
        entry = self._live_heap.pop(address, None)
        if entry is None:
            return  # not a traced block (e.g. allocated before begin())
        object_id, size = entry
        self._side_event(EventKind.REMOVE, object_id, address, address + size)

    def on_realloc(
        self, old_address: int, old_size: int, new_address: int, new_size: int
    ) -> None:
        # Same ObjectDesc across the move (paper footnote 4).
        entry = self._live_heap.pop(old_address, None)
        if entry is None:
            return
        object_id, _size = entry
        self._side_event(EventKind.REMOVE, object_id, old_address,
                         old_address + old_size, False)
        self._side_event(EventKind.INSTALL, object_id, new_address, new_address + new_size)
        self._live_heap[new_address] = (object_id, new_size)


def trace_program(
    program: CompiledProgram,
    entry: str = "main",
    args=(),
    layout: Optional[MemoryLayout] = None,
    max_instructions: int = 500_000_000,
) -> Tuple[EventTrace, ObjectRegistry, CpuState]:
    """Compile-to-trace driver for phase 1.

    Loads ``program`` on a fresh machine, runs it under a tracer, and
    returns ``(trace, object registry, final cpu state)``.
    """
    layout = layout or program.layout
    image = load_program(program, layout)
    memory = Memory(layout)
    cpu = Cpu(memory, layout=layout)
    runtime = Runtime(cpu, layout)
    runtime.install()
    cpu.attach(image)
    tracer = Tracer(cpu, image, program.name)
    tracer.begin()
    runtime.heap.listeners.append(tracer)
    state = cpu.run(entry, args, max_instructions)
    trace = tracer.finish(state)
    return trace, tracer.registry, state
