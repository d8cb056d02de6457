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

from repro.errors import TraceFormatError, TraceRangeError
from repro.machine.cpu import Cpu, CpuState
from repro.machine.layout import MemoryLayout
from repro.machine.loader import LoadedProgram, load_program
from repro.machine.memory import Memory
from repro.minic.compiler import CompiledProgram
from repro.minic.runtime import Runtime
from repro.simulate import _native
from repro.trace.events import STORED_DTYPES, EventKind, EventTrace, as_int32
from repro.trace.objects import ObjectRegistry


#: Log records a hook lets accumulate before the log is expanded.
LOG_SLICE = 1 << 14
#: Events one expansion step produces at most (unless a single record,
#: a frame with more variables, needs more), which bounds its temporaries.
EXPAND_EVENTS = 1 << 16

# Tags in the low two bits of a negative (``~word``) log record.
_ENTER, _EXIT, _SIDE = 0, 1, 2
#: ``tracelog_expand``'s statuses: its output columns are too small, a
#: record is malformed, a value does not fit in int32.
_SHORT, _BAD, _RANGE = 1, 2, 3


class Tracer:
    """Observes one run and builds the event trace.

    Every hook appends one int64 record to :attr:`log`:

    * a store appends its address (always ``>= 0``: stores are range
      checked before the hook runs);
    * a function entry or exit appends the frame record
      ``~(frame_base << frame_shift | key)``, ``key`` being
      ``enter_keys[index]`` or ``exit_keys[index]`` for the function's
      index (its low two bits are the tag, the rest the index);
    * a heap or static event appends ``~(side << 2 | 2)``, ``side``
      indexing an explicit ``(kind, a, b, c)`` side record.

    :meth:`drain` expands the records into the four trace columns
    (:data:`~repro.trace.events.STORED_DTYPES`): a store becomes one
    WRITE, a frame record one INSTALL or REMOVE per variable of the
    function's frame plan, a side record its one event.  The tracer owns
    the columns and grows them geometrically (by at least an eighth,
    reallocating in place where the allocator can); each drain expands
    straight into them, after the events they already hold.  With the
    native library loaded (:mod:`repro.simulate._native`),
    ``tracelog_expand`` decodes and expands the whole log in C, in one
    call when the columns have room (else a first call sizes the drain
    and a second writes it).  Without it NumPy does the same, at most
    :data:`EXPAND_EVENTS` events at a time (:meth:`_expand`, also the
    native path's test oracle).  Either path refuses a value outside
    int32 with a :class:`~repro.errors.TraceRangeError`.  Growing a
    column may move its buffer, so no view of the columns leaves the
    tracer before :meth:`finish` trims them and hands them to the trace
    as its array backing.  A hook drains when the log reaches
    :data:`LOG_SLICE`.  The CPU's fast path appends store
    addresses and frame records straight to :attr:`log` (from
    :attr:`frame_shift`, :attr:`enter_keys` and :attr:`exit_keys`, so
    the encoding lives here only) and calls :meth:`drain_if_full` at its
    checkpoints, which drains only once the log has reached
    :data:`LOG_SLICE`.
    """

    def __init__(self, cpu: Cpu, image: LoadedProgram, program_name: str = "") -> None:
        self.cpu = cpu
        self.image = image
        self.trace = EventTrace(program_name or image.name)
        self.registry = ObjectRegistry()
        #: One int64 record per hook (see the class docstring).
        self.log = array("q")
        #: Heap and static events of the records still in the log.
        self._side: List[Tuple[int, int, int, int]] = []
        n_functions = len(image.functions)
        self._func_bits = max(1, n_functions.bit_length())
        #: A frame record is ``~(frame_base << frame_shift | key)``.
        self.frame_shift = self._func_bits + 2
        #: Per function index, the ``key`` of its entry and exit records.
        self.enter_keys = [index << 2 | _ENTER for index in range(n_functions)]
        self.exit_keys = [index << 2 | _EXIT for index in range(n_functions)]
        #: Every function's frame plan, flattened: per function index the
        #: start and length of its run in the offset/size/object arrays.
        self._plan_start = self._plan_len = None
        self._plan_obj = self._plan_off = self._plan_size = None
        self._plan_pointers: Tuple[int, ...] = ()
        #: The native expansion's counts, reused across drains.
        self._out = np.zeros(4, dtype=np.int64)
        #: The trace's columns, of which the first ``_n_events`` rows
        #: hold events (see the class docstring).
        self._columns = [np.empty(0, dtype) for dtype in STORED_DTYPES]
        self._n_events = 0
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
        self._plan_pointers = tuple(
            plan.ctypes.data for plan in (self._plan_start, self._plan_len, self._plan_off,
                                          self._plan_size, self._plan_obj))
        for object_id, address, size in statics:
            self._side_event(EventKind.INSTALL, object_id, address, address + size)
        self._static_ranges = statics
        self.cpu.tracer = self

    def finish(self, state: Optional[CpuState] = None) -> EventTrace:
        """Close all open monitor windows, unhook, expand the whole log
        and finalize metadata."""
        for address, (object_id, size) in list(self._live_heap.items()):
            self._side_event(EventKind.REMOVE, object_id, address, address + size)
        self._live_heap.clear()
        for object_id, address, size in self._static_ranges:
            self._side_event(EventKind.REMOVE, object_id, address, address + size)
        self.cpu.tracer = None
        self.drain()
        for column in self._columns:
            column.resize(self._n_events, refcheck=False)
        trace = self.trace
        trace.kinds, trace.col_a, trace.col_b, trace.col_c = self._columns
        self._columns = []
        meta = trace.meta
        meta.cycles = self.cpu.cycles
        meta.instructions = self.cpu.instructions
        meta.stores = self.cpu.stores
        trace.validate()
        if observe.is_enabled():
            observe.inc("trace.events", len(trace))
            observe.inc("trace.writes", meta.n_writes)
            observe.inc("trace.installs", meta.n_installs)
            observe.inc("trace.removes", meta.n_removes)
            observe.inc("trace.objects_registered", len(self.registry))
        return trace

    # ------------------------------------------------------------------
    # The log
    # ------------------------------------------------------------------

    def _side_event(self, kind: int, a: int, b: int, c: int) -> None:
        side = self._side
        side.append((kind, a, b, c))
        log = self.log
        log.append(~((len(side) - 1) << 2 | _SIDE))
        if len(log) >= LOG_SLICE:
            self.drain()

    def drain_if_full(self) -> None:
        """Drain once the log holds :data:`LOG_SLICE` records."""
        if len(self.log) >= LOG_SLICE:
            self.drain()

    def drain(self) -> None:
        """Expand every record in the log into trace events: in one call
        to the native library when it loads, else with NumPy, at most
        :data:`EXPAND_EVENTS` events (or one record) at a time."""
        if not self.log:
            return
        lib = _native.load_native_library()
        if lib is None:
            self._drain_numpy()
        else:
            self._drain_native(lib)
        del self.log[:]
        self._side.clear()

    def _reserve(self, n_events: int) -> None:
        """Room in the columns for ``n_events`` more events."""
        need = self._n_events + n_events
        capacity = len(self._columns[0])
        if need > capacity:
            capacity = max(need, capacity + (capacity >> 3))
            for column in self._columns:
                # No view of the columns is alive (class docstring).
                column.resize(capacity, refcheck=False)

    def _drain_native(self, lib) -> None:
        log = self.log
        n_records = len(log)
        side = self._side
        side_rows = array("q", [value for event in side for value in event])
        out = self._out
        offset = self._n_events
        columns = self._columns
        for _ in range(2):
            status = lib.tracelog_expand(
                log.buffer_info()[0], n_records, self._func_bits,
                *self._plan_pointers, len(self._plan_len),
                side_rows.buffer_info()[0], len(side),
                *(column.ctypes.data for column in columns), offset,
                len(columns[0]), out.ctypes.data)
            if status != _SHORT:
                break
            self._reserve(int(out[0]))
        if status == _BAD:
            raise TraceFormatError(f"malformed tracer log record {log[int(out[0])]}")
        if status == _RANGE:
            raise TraceRangeError(
                f"tracer log record {log[int(out[0])]} expands to a value "
                "outside int32")
        meta = self.trace.meta
        meta.n_installs += int(out[1])
        meta.n_removes += int(out[2])
        meta.n_writes += int(out[3])
        self._n_events = offset + int(out[0])

    def _drain_numpy(self) -> None:
        records = np.frombuffer(self.log, dtype=np.int64).copy()
        side = np.array(self._side, dtype=np.int64).reshape(-1, 4)

        # Decode every record: its tag (3 for a store), payload, function
        # index (frame records) and event count.
        word = ~records
        tag = np.where(records < 0, word & 3, 3)
        payload = word >> 2
        func = np.where(tag < _SIDE, payload & ((1 << self._func_bits) - 1), 0)
        counts = np.where(tag < _SIDE, self._plan_len[func], 1)
        ends = np.cumsum(counts)

        meta = self.trace.meta
        start = 0
        while start < len(records):
            done = int(ends[start - 1]) if start else 0
            stop = max(start + 1, int(np.searchsorted(ends, done + EXPAND_EVENTS, "right")))
            part = slice(start, stop)
            part_ends = ends[part] - done
            kinds, *addresses = self._expand(records[part], tag[part], payload[part],
                                             func[part], counts[part], part_ends, side)
            offset = self._n_events
            self._reserve(len(kinds))
            at = slice(offset, offset + len(kinds))
            self._columns[0][at] = kinds
            for column, values, name in zip(self._columns[1:], addresses,
                                            ("col_a", "col_b", "col_c")):
                column[at] = as_int32(values, name)
            self._n_events = at.stop
            per_kind = np.bincount(kinds, minlength=4)
            meta.n_installs += int(per_kind[EventKind.INSTALL])
            meta.n_removes += int(per_kind[EventKind.REMOVE])
            meta.n_writes += int(per_kind[EventKind.WRITE])
            start = stop

    def _expand(self, records, tag, payload, func, counts, ends, side):
        """The four event columns of decoded ``records``, whose events
        end at ``ends``: each kind of record scatters its events to
        their positions."""
        first = ends - counts
        total = int(ends[-1])
        kinds = np.empty(total, dtype=np.int8)
        a = np.empty(total, dtype=np.int64)
        b = np.empty(total, dtype=np.int64)
        c = np.empty(total, dtype=np.int64)

        store = np.flatnonzero(tag == 3)
        at = first[store]
        address = records[store]
        kinds[at] = EventKind.WRITE
        a[at] = address
        b[at] = address + 4
        c[at] = 0

        # A frame record's events are its function's plan, in order.
        frame = np.flatnonzero(tag < _SIDE)
        n = counts[frame]
        skip = np.cumsum(n) - n  # frame events before each frame record
        nth = np.arange(int(n.sum()))
        at = nth + np.repeat(first[frame] - skip, n)
        flat = nth + np.repeat(self._plan_start[func[frame]] - skip, n)
        begin = np.repeat(payload[frame] >> self._func_bits, n) + self._plan_off[flat]
        kinds[at] = np.repeat(tag[frame] + 1, n)  # INSTALL on entry, REMOVE on exit
        a[at] = self._plan_obj[flat]
        b[at] = begin
        c[at] = begin + self._plan_size[flat]

        is_side = np.flatnonzero(tag == _SIDE)
        at = first[is_side]
        events = side[payload[is_side]]
        kinds[at] = events[:, 0]
        a[at] = events[:, 1]
        b[at] = events[:, 2]
        c[at] = events[:, 3]
        return kinds, a, b, c

    # ------------------------------------------------------------------
    # CPU tracer protocol
    # ------------------------------------------------------------------

    def on_enter(self, func, frame_base: int) -> None:
        log = self.log
        log.append(~(frame_base << self.frame_shift | self.enter_keys[func.index]))
        if len(log) >= LOG_SLICE:
            self.drain()

    def on_exit(self, func, frame_base: int) -> None:
        log = self.log
        log.append(~(frame_base << self.frame_shift | self.exit_keys[func.index]))
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
        self._side_event(EventKind.REMOVE, object_id, old_address, old_address + old_size)
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
