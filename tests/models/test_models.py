"""Tests for the analytical models (paper Figures 3-6).

The models are term tables over the count table.  Two oracles hold them
to the paper:

* the paper's own four-component formulas (monitor hit, monitor miss,
  install, remove), written out below, must give every approach's total
  for random counts;
* cross-validation against the paper itself: feeding the paper's
  published mean counting variables (Table 3) and base times (Table 1)
  through the terms must reproduce the paper's published mean relative
  overheads (Table 4) — the models are linear, so means map to means.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.models import (
    dominant_component,
    overhead_breakdown,
    paper_approaches,
    relative_overheads,
    term_us,
    total_us,
)
from repro.models.paper_data import TABLE_1, TABLE_3, TABLE_4
from repro.models.timing import SPARCSTATION_2_TIMING, TimingVariables

T = SPARCSTATION_2_TIMING
APPROACHES = paper_approaches()
LABELS = ["NH", "VM-4K", "VM-8K", "TP", "CP"]


def make_counts(installs=0, removes=0, hits=0, misses=0, protects=0,
                unprotects=0, apm=0, vm8k=(0, 0, 0)):
    """A one-session count table; ``protects``, ``unprotects`` and
    ``apm`` are at 4K pages, ``vm8k`` holds the same three at 8K."""
    values = {"installs": installs, "removes": removes, "hits": hits,
              "misses": misses, "protects_4096": protects,
              "unprotects_4096": unprotects, "active_page_misses_4096": apm}
    values.update(zip(("protects_8192", "unprotects_8192",
                       "active_page_misses_8192"), vm8k))
    return {name: np.array([value]) for name, value in values.items()}


def terms_of(label, counts, timing=T):
    """Timing variable -> the one session's overhead in it, in µs."""
    return {name: float(value[0])
            for name, value in term_us(counts, APPROACHES[label], timing).items()}


def total_of(label, counts, timing=T):
    return float(total_us(counts, APPROACHES[label], timing)[0])


def paper_components(label, c, t):
    """MonitorHit_ov, MonitorMiss_ov, InstallMonitor_ov and
    RemoveMonitor_ov as the paper's Figures 3-6 write them."""
    if label == "NH":  # Figure 3
        return [c["hits"] * t.nh_fault_handler, 0, 0, 0]
    if label == "TP":  # Figure 5
        per_write = t.tp_fault_handler + t.software_lookup
        return [c["hits"] * per_write, c["misses"] * per_write,
                c["installs"] * t.software_update,
                c["removes"] * t.software_update]
    if label == "CP":  # Figure 6
        return [c["hits"] * t.software_lookup,
                c["misses"] * t.software_lookup,
                c["installs"] * t.software_update,
                c["removes"] * t.software_update]
    size = {"VM-4K": 4096, "VM-8K": 8192}[label]  # Figure 4
    fault = t.vm_fault_handler + t.software_lookup
    dance = t.vm_unprotect_page + t.software_update + t.vm_protect_page
    return [c["hits"] * fault,
            c[f"active_page_misses_{size}"] * fault,
            c["installs"] * dance + c[f"protects_{size}"] * t.vm_protect_page,
            c["removes"] * dance + c[f"unprotects_{size}"] * t.vm_unprotect_page]


class TestNativeHardware:
    def test_only_hits_cost(self):
        counts = make_counts(installs=10, removes=10, hits=3, misses=1000)
        assert terms_of("NH", counts) == {"NHFaultHandler": 3 * 131.0}
        assert total_of("NH", counts) == 393.0

    def test_zero_hits_zero_overhead(self):
        assert total_of("NH", make_counts(misses=10**6)) == 0


class TestCodePatch:
    def test_every_write_pays_lookup(self):
        counts = make_counts(hits=2, misses=8, installs=1, removes=1)
        assert terms_of("CP", counts) == {
            "SoftwareLookup": 10 * 2.75,
            "SoftwareUpdate": 2 * 22.0,
        }


class TestTrapPatch:
    def test_every_write_pays_trap_plus_lookup(self):
        counts = make_counts(hits=2, misses=8)
        assert terms_of("TP", counts) == {
            "TPFaultHandler": 10 * 102.0,
            "SoftwareLookup": 10 * 2.75,
            "SoftwareUpdate": 0.0,
        }
        assert total_of("TP", counts) == 10 * (102 + 2.75)

    def test_tp_is_cp_plus_trap_cost(self):
        counts = make_counts(hits=5, misses=95, installs=3, removes=3)
        assert total_of("TP", counts) - total_of("CP", counts) == 100 * 102.0


class TestVirtualMemory:
    def test_figure4_formula(self):
        counts = make_counts(
            installs=2, removes=2, hits=3, misses=100, protects=4, unprotects=4, apm=10
        )
        faults = 3 + 10
        updates = 2 + 2
        assert terms_of("VM-4K", counts) == {
            "VMFaultHandler": faults * 561.0,
            "SoftwareLookup": faults * 2.75,
            "SoftwareUpdate": updates * 22.0,
            "VMProtectPage": (updates + 4) * 80.0,
            "VMUnprotectPage": (updates + 4) * 299.0,
        }

    def test_page_size_selects_counts(self):
        counts = make_counts(hits=1, apm=5, vm8k=(0, 0, 50))
        assert total_of("VM-8K", counts) > total_of("VM-4K", counts)

    def test_breakdown_sums_to_total(self):
        counts = make_counts(
            installs=7, removes=7, hits=13, misses=1000, protects=5, unprotects=5, apm=40
        )
        assert sum(terms_of("VM-4K", counts).values()) == total_of("VM-4K", counts)


class TestEveryModelBreakdownConsistent:
    @pytest.mark.parametrize("label", LABELS)
    def test_breakdown_sums_to_total(self, label):
        counts = make_counts(installs=3, removes=3, hits=9, misses=500,
                             protects=2, unprotects=2, apm=17, vm8k=(3, 3, 20))
        assert sum(terms_of(label, counts).values()) == total_of(label, counts)


#: A count table of ``n`` sessions at 4K and 8K pages.
_COLUMNS = ("installs", "removes", "hits", "misses",
            *(f"{name}_{size}" for size in (4096, 8192)
              for name in ("protects", "unprotects", "active_page_misses")))


@st.composite
def count_tables(draw):
    n = draw(st.integers(1, 8))
    column = st.lists(st.integers(0, 10**9), min_size=n, max_size=n)
    return {name: np.array(draw(column), dtype=np.int64) for name in _COLUMNS}


class TestPaperFormulaOracle:
    """Every approach's total equals the paper's four-component sum."""

    @settings(max_examples=60, deadline=None)
    @given(counts=count_tables())
    def test_total_is_the_four_components_exactly(self, counts):
        # Table 2's values are dyadic, so both sums are exact in float64.
        for label in LABELS:
            expected = sum(paper_components(label, counts, T))
            assert np.array_equal(total_us(counts, APPROACHES[label]),
                                  expected), label

    @settings(max_examples=60, deadline=None)
    @given(counts=count_tables(),
           timing=st.builds(TimingVariables, *[
               st.floats(0.0, 1000.0, allow_nan=False) for _ in range(7)]))
    def test_total_is_the_four_components_at_any_timing(self, counts, timing):
        for label in LABELS:
            expected = sum(paper_components(label, counts, timing))
            got = total_us(counts, APPROACHES[label], timing)
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-6,
                                       err_msg=label)


class TestApproaches:
    def test_paper_approaches_order(self):
        assert list(paper_approaches()) == LABELS

    def test_page_sizes_select_vm_columns(self):
        assert list(paper_approaches(page_sizes=(4096,))) == \
            ["NH", "VM-4K", "TP", "CP"]


class TestRelativeOverhead:
    def test_normalization(self):
        counts = make_counts(hits=1)
        assert relative_overheads(counts, APPROACHES["NH"], 262.0).tolist() == [0.5]

    def test_zero_base_rejected(self):
        with pytest.raises(ValueError):
            relative_overheads(make_counts(), APPROACHES["NH"], 0.0)


class TestBreakdownAggregation:
    def test_mean_of_percentages(self):
        shares = overhead_breakdown({"A": np.array([90.0, 50.0]),
                                     "B": np.array([10.0, 50.0])})
        assert shares["A"] == pytest.approx(70.0)
        assert shares["B"] == pytest.approx(30.0)
        assert dominant_component(shares) == ("A", shares["A"])

    def test_zero_overhead_sessions_skipped(self):
        shares = overhead_breakdown({"A": np.array([0.0, 3.0]),
                                     "B": np.array([0.0, 1.0])})
        assert shares == {"A": 75.0, "B": 25.0}
        assert overhead_breakdown({"A": np.array([0.0])}) == {}


class TestCrossValidationAgainstPaper:
    """Paper Table 3 x our terms == paper Table 4 mean column."""

    def _mean_counts(self, program):
        row = TABLE_3[program]
        values = {
            "installs": row.install_remove,
            "removes": row.install_remove,
            "hits": row.hits,
            "misses": row.misses,
            "protects_4096": row.vm4k_protects,
            "unprotects_4096": row.vm4k_protects,
            "active_page_misses_4096": row.vm4k_active_page_misses,
            "protects_8192": row.vm8k_protects,
            "unprotects_8192": row.vm8k_protects,
            "active_page_misses_8192": row.vm8k_active_page_misses,
        }
        return {name: np.array([value], dtype=float)
                for name, value in values.items()}

    @pytest.mark.parametrize("program", sorted(TABLE_1))
    @pytest.mark.parametrize("label", LABELS)
    def test_mean_relative_overhead_matches_paper(self, program, label):
        counts = self._mean_counts(program)
        base_us = TABLE_1[program].execution_ms * 1000.0
        rel = float(relative_overheads(counts, APPROACHES[label], base_us)[0])
        paper_mean = TABLE_4[program][label].mean
        # Published values are rounded to two decimals; allow 5% + rounding.
        assert rel == pytest.approx(paper_mean, rel=0.05, abs=0.02)
