"""The scalar reference kernel of the one-pass simulator.

The paper runs phase 2 once per monitor session; with thousands of
sessions over multi-million-event traces that is infeasible here, so
:func:`scalar_pass` computes exact counting variables for *all* sessions
in a single pass over the trace.  Three ideas make that work:

1. **Word ownership.** Live monitored objects never overlap (stack frames,
   heap blocks, and globals are disjoint regions), so a dict mapping each
   monitored word to its owning object resolves any write to the object —
   and hence to every session containing it — in O(1).

2. **Session membership is static.** ``object id -> (session indexes)``
   is precomputed (by the shell in :mod:`repro.simulate`), so a hit
   updates each affected session with one list increment.

3. **Lazy page accounting.** ``VMActivePageMiss`` needs "writes to page p
   while session s had an active monitor on p".  The kernel keeps one
   cumulative write counter per page and, per (page, session) pair, an
   active-monitor count plus the counter value captured when the count
   rose from zero; when it falls back to zero the difference is added to
   the session's raw active-page-write total.  Work happens only at
   install/remove transitions, never per write.  Then::

       VMActivePageMiss = raw_active_writes - hits

   because every hit lands on a page where the session is active (and is
   therefore contained in the raw total).

Invariants (property-tested in the test suite)::

    hits + misses == total writes        (for every session)
    0 <= active_page_misses <= misses    (for every session, page size)
    protects == unprotects               (trace closes all windows)

The kernel returns :class:`RawCounts`; the C kernel
(:mod:`repro.simulate.native_engine`) returns the same record, and the
shell turns either into a :class:`SimulationResult`.  Neither kernel
checks its input, observes or samples: the shell does that once for
both.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.sessions.types import SessionDef
from repro.trace.events import EventKind, TraceMeta


@dataclass
class SimulationResult:
    """All counting variables for one program's trace.

    ``sessions`` holds only the *studied* sessions — those with at least
    one monitor hit (zero-hit sessions are discarded, paper section 8).
    ``counts`` is the count table: column name (see
    :func:`repro.simulate.count_table`) -> one int64 value per studied
    session, in ``sessions`` order.
    """

    program: str
    meta: TraceMeta
    page_sizes: Tuple[int, ...]
    sessions: List[SessionDef] = field(default_factory=list)
    counts: Dict[str, np.ndarray] = field(default_factory=dict)
    total_writes: int = 0
    n_discarded: int = 0
    overlap_anomalies: int = 0


class RawCounts(NamedTuple):
    """One pass's counts, as both kernels return them.

    The per-session lists are indexed by ``SessionDef.index``; the
    per-page fields hold one such list per page size, in ``page_sizes``
    order.  ``raw_active`` is the uncorrected active-page write total
    (see the module docstring); open windows are already flushed.
    """

    installs: List[int]
    removes: List[int]
    hits: List[int]
    max_active: List[int]
    protects: List[List[int]]
    unprotects: List[List[int]]
    raw_active: List[List[int]]
    total_writes: int
    overlap_anomalies: int


def scalar_pass(
    obj_sessions: Sequence[Tuple[int, ...]],
    n_sessions: int,
    page_sizes: Sequence[int],
    kinds,
    col_a,
    col_b,
    col_c,
) -> RawCounts:
    """Replay the four trace columns once; see the module docstring.

    ``obj_sessions[object_id]`` lists the indexes of the sessions that
    contain the object, with multiplicity.
    """
    installs = [0] * n_sessions
    removes = [0] * n_sessions
    hits = [0] * n_sessions
    active_now = [0] * n_sessions
    max_active = [0] * n_sessions
    page_range = range(len(page_sizes))
    shifts = [size.bit_length() - 1 for size in page_sizes]
    page_writes: List[Dict[int, int]] = [dict() for _ in page_range]
    # (page * n_sessions + session) -> [active_count, start_write_count]
    pair_state: List[Dict[int, list]] = [dict() for _ in page_range]
    protects = [[0] * n_sessions for _ in page_range]
    unprotects = [[0] * n_sessions for _ in page_range]
    raw_active = [[0] * n_sessions for _ in page_range]
    total_writes = 0
    overlap_anomalies = 0
    word_owner: Dict[int, int] = {}

    # Hoisted per-event state: one tuple per page size so the write
    # path touches no list indexing, and bound dict methods so the
    # loop does no attribute lookups.
    write_states = [
        (shifts[i], page_writes[i], page_writes[i].get) for i in page_range
    ]
    install_states = [
        (shifts[i], page_writes[i].get, pair_state[i], pair_state[i].get,
         protects[i])
        for i in page_range
    ]
    remove_states = [
        (shifts[i], page_writes[i].get, pair_state[i].get, unprotects[i],
         raw_active[i])
        for i in page_range
    ]
    owner_get = word_owner.get
    owner_pop = word_owner.pop
    WRITE = int(EventKind.WRITE)
    INSTALL = int(EventKind.INSTALL)
    # ndarray columns become plain lists first: iterating numpy scalars
    # through this loop costs ~3x in boxing overhead.
    columns = tuple(
        column.tolist() if hasattr(column, "dtype") else column
        for column in (kinds, col_a, col_b, col_c)
    )

    for kind, a, b, c in zip(*columns):
        if kind == WRITE:
            total_writes += 1
            for shift, pw, pw_get in write_states:
                page = a >> shift
                pw[page] = pw_get(page, 0) + 1
            if b - a <= 4:
                obj = owner_get(a)
                if obj is not None:
                    for s in obj_sessions[obj]:
                        hits[s] += 1
            else:
                # Multi-word write: one hit per session, however many
                # member words it touches.
                touched = set()
                for word in range(a, b, 4):
                    obj = owner_get(word)
                    if obj is not None:
                        touched.update(obj_sessions[obj])
                for s in touched:
                    hits[s] += 1
        elif kind == INSTALL:
            owners = obj_sessions[a]
            for s in owners:
                installs[s] += 1
                active_now[s] += 1
                if active_now[s] > max_active[s]:
                    max_active[s] = active_now[s]
            for word in range(b, c, 4):
                if word in word_owner:
                    overlap_anomalies += 1
                word_owner[word] = a
            for shift, pw_get, pairs, pairs_get, prot in install_states:
                for page in range(b >> shift, ((c - 1) >> shift) + 1):
                    base = page * n_sessions
                    for s in owners:
                        state = pairs_get(base + s)
                        if state is None or state[0] == 0:
                            pairs[base + s] = [1, pw_get(page, 0)]
                            prot[s] += 1
                        else:
                            state[0] += 1
        else:  # REMOVE
            owners = obj_sessions[a]
            for s in owners:
                removes[s] += 1
                active_now[s] -= 1
            for word in range(b, c, 4):
                if owner_pop(word, None) is None:
                    overlap_anomalies += 1
            for shift, pw_get, pairs_get, unprot, raw in remove_states:
                for page in range(b >> shift, ((c - 1) >> shift) + 1):
                    base = page * n_sessions
                    for s in owners:
                        state = pairs_get(base + s)
                        if state is None or state[0] == 0:
                            overlap_anomalies += 1
                            continue
                        state[0] -= 1
                        if state[0] == 0:
                            unprot[s] += 1
                            raw[s] += pw_get(page, 0) - state[1]

    # Defensive flush: close any windows the trace left open.
    for i in page_range:
        pw = page_writes[i]
        for key, state in pair_state[i].items():
            if state[0] > 0:
                page, s = divmod(key, n_sessions)
                unprotects[i][s] += 1
                raw_active[i][s] += pw.get(page, 0) - state[1]

    return RawCounts(installs, removes, hits, max_active, protects,
                     unprotects, raw_active, total_writes, overlap_anomalies)
