"""Tests for the one-pass simulation engine.

Covers hand-computed small traces, the awkward cases (recursion,
realloc, multi-page objects), the documented invariants, and a
brute-force per-session oracle over randomized traces.  Every case runs
on the scalar reference backend, and on the native one where the kernel
loads.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PipelineError
from repro.sessions.types import SessionDef, ONE_HEAP, ALL_HEAP_IN_FUNC
from repro.simulate import simulate_sessions
from repro.simulate._native import native_available
from repro.trace import EventTrace, ObjectRegistry

from test_vector_equivalence import assert_identical

#: The backends every case runs on: python always, native where it loads.
ENGINES = ("python", "native") if native_available() else ("python",)


@pytest.fixture(params=ENGINES)
def engine(request):
    return request.param


def make_registry(n_objects):
    registry = ObjectRegistry()
    for _ in range(n_objects):
        registry.heap("f", ("main", "f"), 16)
    return registry


def row(result, index=0):
    """The counts of studied session ``index``: column -> int."""
    return {name: int(column[index]) for name, column in result.counts.items()}


def sessions_of(member_lists):
    return [
        SessionDef(index, ONE_HEAP if len(members) == 1 else ALL_HEAP_IN_FUNC,
                   f"s{index}", tuple(members))
        for index, members in enumerate(member_lists)
    ]


class TestHandComputed:
    def test_single_hit_and_miss(self, engine):
        registry = make_registry(1)
        trace = EventTrace("t")
        trace.append_install(0, 0x1000, 0x1010)
        trace.append_write(0x1004, 0x1008)   # hit
        trace.append_write(0x2000, 0x2004)   # miss
        trace.append_remove(0, 0x1000, 0x1010)
        result = simulate_sessions(trace, registry, sessions_of([[0]]), (4096,),
                                   engine=engine)
        counts = row(result)
        assert counts["hits"] == 1
        assert counts["misses"] == 1
        assert counts["installs"] == 1
        assert counts["removes"] == 1

    def test_write_outside_window_is_miss(self, engine):
        registry = make_registry(1)
        trace = EventTrace("t")
        trace.append_write(0x1004, 0x1008)   # before install
        trace.append_install(0, 0x1000, 0x1010)
        trace.append_remove(0, 0x1000, 0x1010)
        trace.append_write(0x1004, 0x1008)   # after remove
        result = simulate_sessions(trace, registry, sessions_of([[0]]), (4096,),
                                   engine=engine)
        # Zero hits: the session is discarded entirely.
        assert result.sessions == []
        assert result.n_discarded == 1

    def test_active_page_miss(self, engine):
        registry = make_registry(1)
        trace = EventTrace("t")
        trace.append_install(0, 0x1000, 0x1008)
        trace.append_write(0x1004, 0x1008)   # hit, same page
        trace.append_write(0x1100, 0x1104)   # miss, same 4K page -> APM
        trace.append_write(0x9000, 0x9004)   # miss, other page
        trace.append_remove(0, 0x1000, 0x1008)
        result = simulate_sessions(trace, registry, sessions_of([[0]]), (4096,),
                                   engine=engine)
        counts = row(result)
        assert counts["active_page_misses_4096"] == 1
        assert counts["protects_4096"] == 1
        assert counts["unprotects_4096"] == 1

    def test_page_transitions_shared_page(self, engine):
        """Two session members on one page: a single protect window."""
        registry = make_registry(2)
        trace = EventTrace("t")
        trace.append_install(0, 0x1000, 0x1008)
        trace.append_install(1, 0x1100, 0x1108)
        trace.append_write(0x1000, 0x1004)
        trace.append_remove(0, 0x1000, 0x1008)
        trace.append_write(0x1100, 0x1104)
        trace.append_remove(1, 0x1100, 0x1108)
        both = sessions_of([[0, 1]])
        result = simulate_sessions(trace, registry, both, (4096,),
                                   engine=engine)
        counts = row(result)
        assert counts["protects_4096"] == 1
        assert counts["unprotects_4096"] == 1
        assert counts["hits"] == 2

    def test_multi_page_object(self, engine):
        registry = make_registry(1)
        trace = EventTrace("t")
        trace.append_install(0, 0x0FF8, 0x1010)  # spans two 4K pages
        trace.append_write(0x0FF8, 0x0FFC)
        trace.append_write(0x100C, 0x1010)
        trace.append_remove(0, 0x0FF8, 0x1010)
        result = simulate_sessions(trace, registry, sessions_of([[0]]), (4096,),
                                   engine=engine)
        counts = row(result)
        assert counts["hits"] == 2
        assert counts["protects_4096"] == 2   # both pages transitioned
        assert counts["unprotects_4096"] == 2

    def test_recursive_instantiations_same_object(self, engine):
        """Two live instantiations of one object id (recursion)."""
        registry = make_registry(1)
        trace = EventTrace("t")
        trace.append_install(0, 0x1000, 0x1008)   # outer frame
        trace.append_install(0, 0x2000, 0x2008)   # inner frame
        trace.append_write(0x1000, 0x1004)        # hit via outer
        trace.append_write(0x2000, 0x2004)        # hit via inner
        trace.append_remove(0, 0x2000, 0x2008)
        trace.append_write(0x2000, 0x2004)        # inner gone: miss
        trace.append_remove(0, 0x1000, 0x1008)
        result = simulate_sessions(trace, registry, sessions_of([[0]]), (4096,),
                                   engine=engine)
        counts = row(result)
        assert counts["hits"] == 2
        assert counts["misses"] == 1
        assert counts["installs"] == 2

    def test_page_size_sensitivity(self, engine):
        """A miss one 4K page away is an APM only at the 8K page size."""
        registry = make_registry(1)
        trace = EventTrace("t")
        trace.append_install(0, 0x0000, 0x0008)
        trace.append_write(0x0000, 0x0004)    # hit
        trace.append_write(0x1004, 0x1008)    # next 4K page, same 8K page
        trace.append_remove(0, 0x0000, 0x0008)
        result = simulate_sessions(trace, registry, sessions_of([[0]]), (4096, 8192),
                                   engine=engine)
        counts = row(result)
        assert counts["active_page_misses_4096"] == 0
        assert counts["active_page_misses_8192"] == 1

    def test_no_sessions_rejected(self, engine):
        with pytest.raises(PipelineError):
            simulate_sessions(EventTrace("t"), make_registry(1), [], (4096,),
                              engine=engine)


class TestInvariants:
    def _result(self, engine):
        registry = make_registry(3)
        trace = EventTrace("t")
        trace.append_install(0, 0x1000, 0x1010)
        trace.append_install(1, 0x1010, 0x1020)
        trace.append_install(2, 0x3000, 0x3010)
        for address in (0x1000, 0x1014, 0x3000, 0x5000, 0x1008):
            trace.append_write(address, address + 4)
        trace.append_remove(0, 0x1000, 0x1010)
        trace.append_remove(1, 0x1010, 0x1020)
        trace.append_remove(2, 0x3000, 0x3010)
        sessions = sessions_of([[0], [1], [2], [0, 1], [0, 2]])
        return simulate_sessions(trace, registry, sessions, (4096, 8192),
                                 engine=engine)

    def test_hits_plus_misses_is_total_writes(self, engine):
        result = self._result(engine)
        counts = result.counts
        assert len(counts["hits"]) == 5
        assert (counts["hits"] + counts["misses"]).tolist() == \
            [result.total_writes] * 5

    def test_apm_bounded_by_misses(self, engine):
        counts = self._result(engine).counts
        for size in (4096, 8192):
            apm = counts[f"active_page_misses_{size}"]
            assert all((0 <= apm) & (apm <= counts["misses"]))

    def test_protects_equal_unprotects(self, engine):
        counts = self._result(engine).counts
        for size in (4096, 8192):
            assert counts[f"protects_{size}"].tolist() == \
                counts[f"unprotects_{size}"].tolist()

    def test_union_session_hits_at_least_members(self, engine):
        result = self._result(engine)
        hits = dict(zip((s.label for s in result.sessions),
                        result.counts["hits"].tolist()))
        assert hits["s3"] >= max(hits["s0"], hits["s1"])


# ---------------------------------------------------------------------------
# Brute-force oracle over randomized traces.
# ---------------------------------------------------------------------------

N_SLOTS = 6
SLOT_STRIDE = 64
BASE = 0x1000


def _oracle(trace, sessions, page_size):
    """Per-session replay, the O(sessions x events) way the paper did it."""
    results = {}
    for session in sessions:
        members = set(session.member_ids)
        active = {}  # (object, begin, end) -> count
        page_active = {}
        page_writes_while_active = 0
        installs = removes = hits = protects = unprotects = 0
        total_writes = 0
        for kind, a, b, c in trace:
            if kind == 3:  # WRITE: columns are (BA, EA, 0)
                total_writes += 1
                hit = any(
                    a < end and b > begin for (_, begin, end), n in active.items() if n > 0
                )
                if hit:
                    hits += 1
                if page_active.get(a >> (page_size.bit_length() - 1), 0) > 0:
                    page_writes_while_active += 1
            elif kind == 1 and a in members:  # INSTALL
                installs += 1
                key = (a, b, c)
                active[key] = active.get(key, 0) + 1
                first = b >> (page_size.bit_length() - 1)
                last = (c - 1) >> (page_size.bit_length() - 1)
                for page in range(first, last + 1):
                    page_active[page] = page_active.get(page, 0) + 1
                    if page_active[page] == 1:
                        protects += 1
            elif kind == 2 and a in members:  # REMOVE
                removes += 1
                active[(a, b, c)] -= 1
                first = b >> (page_size.bit_length() - 1)
                last = (c - 1) >> (page_size.bit_length() - 1)
                for page in range(first, last + 1):
                    page_active[page] -= 1
                    if page_active[page] == 0:
                        unprotects += 1
        results[session.index] = {
            "installs": installs,
            "removes": removes,
            "hits": hits,
            "misses": total_writes - hits,
            "protects": protects,
            "unprotects": unprotects,
            "apm": page_writes_while_active - hits,
        }
    return results


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_engine_matches_bruteforce_oracle(data):
    registry = make_registry(N_SLOTS)
    trace = EventTrace("t")
    live = {}

    n_events = data.draw(st.integers(5, 80))
    for _ in range(n_events):
        action = data.draw(st.sampled_from(["install", "remove", "write", "write"]))
        if action == "install":
            slot = data.draw(st.integers(0, N_SLOTS - 1))
            if slot in live:
                continue
            begin = BASE + slot * SLOT_STRIDE
            end = begin + 4 * data.draw(st.integers(1, 8))
            live[slot] = (begin, end)
            trace.append_install(slot, begin, end)
        elif action == "remove":
            if not live:
                continue
            slot = data.draw(st.sampled_from(sorted(live)))
            begin, end = live.pop(slot)
            trace.append_remove(slot, begin, end)
        else:
            word = data.draw(st.integers(0, (N_SLOTS * SLOT_STRIDE) // 4 - 1))
            address = BASE + word * 4
            trace.append_write(address, address + 4)
    for slot, (begin, end) in sorted(live.items()):
        trace.append_remove(slot, begin, end)

    member_lists = [[slot] for slot in range(N_SLOTS)]
    member_lists.append([0, 1, 2])
    member_lists.append([3, 4, 5])
    member_lists.append(list(range(N_SLOTS)))
    sessions = sessions_of(member_lists)

    page_size = data.draw(st.sampled_from([64, 128, 4096]))
    expected = _oracle(trace, sessions, page_size)
    results = [
        simulate_sessions(trace, registry, sessions, (page_size,),
                          engine=engine)
        for engine in ENGINES
    ]
    for result in results:
        assert result.overlap_anomalies == 0
        studied = {session.index: row(result, index)
                   for index, session in enumerate(result.sessions)}
        for session in sessions:
            want = expected[session.index]
            if want["hits"] == 0:
                assert session.index not in studied
                continue
            got = studied[session.index]
            assert got["installs"] == want["installs"]
            assert got["removes"] == want["removes"]
            assert got["hits"] == want["hits"]
            assert got["misses"] == want["misses"]
            assert got[f"protects_{page_size}"] == want["protects"]
            assert got[f"unprotects_{page_size}"] == want["unprotects"]
            assert got[f"active_page_misses_{page_size}"] == want["apm"]
    # The fields the oracle does not model must agree across backends.
    for result in results[1:]:
        assert_identical(results[0], result)
