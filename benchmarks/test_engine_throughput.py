"""Benchmark: raw throughput of the one-pass phase-2 simulator.

The engine is what makes this reproduction tractable (one pass for all
sessions instead of one replay per session); this benchmark tracks its
events-per-second on a synthetic trace with a realistic event mix
(~75% writes, ~25% install/remove) and overlapping multi-member
sessions.

Both backends run over the same trace, so the benchmark rows are the
speedup measurement: the compiled ``native`` kernel vs the scalar
``python`` reference (which the differential suite keeps
bit-identical).  The native row self-skips on boxes without a C
toolchain.
"""

import pytest

from repro.sessions.types import SessionDef, ONE_HEAP, ALL_HEAP_IN_FUNC
from repro.simulate import simulate_sessions
from repro.simulate._native import native_available
from repro.trace import EventTrace, ObjectRegistry

N_OBJECTS = 40
N_EVENTS = 120_000
BASE = 0x0020_0000
STRIDE = 256


def _build_trace(n_events=N_EVENTS):
    registry = ObjectRegistry()
    for _ in range(N_OBJECTS):
        registry.heap("f", ("main", "f"), 32)
    trace = EventTrace("throughput")
    state = 987654321
    live = {}

    def rand(bound):
        nonlocal state
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        return state % bound

    for _ in range(n_events):
        roll = rand(100)
        if roll < 75:
            word = rand(N_OBJECTS * STRIDE // 4)
            address = BASE + word * 4
            trace.append_write(address, address + 4)
        else:
            slot = rand(N_OBJECTS)
            if slot in live:
                begin, end = live.pop(slot)
                trace.append_remove(slot, begin, end)
            else:
                begin = BASE + slot * STRIDE
                end = begin + 4 * (1 + rand(8))
                live[slot] = (begin, end)
                trace.append_install(slot, begin, end)
    for slot, (begin, end) in sorted(live.items()):
        trace.append_remove(slot, begin, end)

    sessions = [
        SessionDef(index, ONE_HEAP, f"one{index}", (index,))
        for index in range(N_OBJECTS)
    ]
    sessions.append(
        SessionDef(N_OBJECTS, ALL_HEAP_IN_FUNC, "all", tuple(range(N_OBJECTS)))
    )
    sessions.append(
        SessionDef(N_OBJECTS + 1, ALL_HEAP_IN_FUNC, "half",
                   tuple(range(0, N_OBJECTS, 2)))
    )
    return trace, registry, sessions


@pytest.mark.parametrize("engine", [
    "python",
    pytest.param("native", marks=pytest.mark.skipif(
        not native_available(), reason="native kernel unavailable")),
])
def test_engine_throughput(benchmark, engine):
    trace, registry, sessions = _build_trace()
    result = benchmark(
        simulate_sessions, trace, registry, sessions, (4096, 8192),
        engine=engine,
    )
    assert result.total_writes > 0
    assert result.overlap_anomalies == 0
    # Sanity on the aggregate session: its hits are the sum of writes
    # that hit any member, so at least any single member's hits.
    hits = result.counts["hits"].tolist()
    by_label = dict(zip((s.label for s in result.sessions), hits))
    singles_max = max(
        (count for session, count in zip(result.sessions, hits)
         if session.kind == ONE_HEAP),
        default=0,
    )
    assert by_label["all"] >= singles_max
