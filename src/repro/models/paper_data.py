"""The paper's published numbers (Tables 1-4), for comparison.

These values are transcribed from Wahbe, *Efficient Data Breakpoints*,
ASPLOS 1992.  They are the reference the reproduction compares its own
measurements against in EXPERIMENTS.md and
:mod:`repro.analysis.compare`.

Note: Table 4's QCD NH mean appears as "-1.41" in the scanned text; a
negative relative overhead is impossible under the NH model (Figure 3),
so it is recorded here as 1.41 and flagged in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: The five benchmark programs, in the paper's order.
PROGRAMS = ("gcc", "ctex", "spice", "qcd", "bps")

#: Session-type column order used throughout (paper section 5).
SESSION_TYPES = (
    "OneLocalAuto",
    "AllLocalInFunc",
    "OneGlobalStatic",
    "OneHeap",
    "AllHeapInFunc",
)

#: Approach column order of Table 4.
APPROACHES = ("NH", "VM-4K", "VM-8K", "TP", "CP")


@dataclass(frozen=True)
class PaperTable1Row:
    """One row of Table 1: session counts and base execution time."""

    one_local_auto: int
    all_local_in_func: int
    one_global_static: int
    one_heap: int
    all_heap_in_func: int
    execution_ms: int

    def session_count(self, session_type: str) -> int:
        return {
            "OneLocalAuto": self.one_local_auto,
            "AllLocalInFunc": self.all_local_in_func,
            "OneGlobalStatic": self.one_global_static,
            "OneHeap": self.one_heap,
            "AllHeapInFunc": self.all_heap_in_func,
        }[session_type]


TABLE_1: Dict[str, PaperTable1Row] = {
    "gcc": PaperTable1Row(2328, 493, 347, 323, 138, 3900),
    "ctex": PaperTable1Row(583, 157, 230, 0, 0, 1067),
    "spice": PaperTable1Row(989, 161, 32, 416, 68, 833),
    "qcd": PaperTable1Row(145, 21, 19, 0, 0, 2900),
    "bps": PaperTable1Row(193, 54, 12, 4184, 33, 1100),
}

#: Table 2: timing variables in microseconds.
TABLE_2: Dict[str, float] = {
    "SoftwareUpdate": 22.0,
    "SoftwareLookup": 2.75,
    "NHFaultHandler": 131.0,
    "VMFaultHandler": 561.0,
    "VMProtectPage": 80.0,
    "VMUnprotectPage": 299.0,
    "TPFaultHandler": 102.0,
}


@dataclass(frozen=True)
class PaperTable3Row:
    """One row of Table 3: mean counting variables over all sessions."""

    install_remove: int
    hits: int
    misses: int
    vm4k_protects: int
    vm4k_active_page_misses: int
    vm8k_protects: int
    vm8k_active_page_misses: int


TABLE_3: Dict[str, PaperTable3Row] = {
    "gcc": PaperTable3Row(937, 2231, 3_185_039, 416, 32_223, 414, 53_500),
    "ctex": PaperTable3Row(916, 2141, 1_459_769, 543, 35_551, 542, 37_924),
    "spice": PaperTable3Row(98, 1323, 508_071, 55, 21_022, 54, 32_119),
    "qcd": PaperTable3Row(4645, 31_120, 3_305_221, 2921, 835_091, 2920, 835_091),
    "bps": PaperTable3Row(37, 583, 559_202, 21, 3701, 21, 5137),
}


@dataclass(frozen=True)
class PaperOverheadStats:
    """One Table-4 cell group: relative-overhead statistics."""

    min: float
    max: float
    t_mean: float
    mean: float
    p90: float
    p98: float


#: Table 4: program -> approach -> statistics.
TABLE_4: Dict[str, Dict[str, PaperOverheadStats]] = {
    "gcc": {
        "NH": PaperOverheadStats(0, 10.45, 0.01, 0.07, 0.09, 0.62),
        "VM-4K": PaperOverheadStats(0, 102.76, 2.48, 5.21, 15.31, 37.08),
        "VM-8K": PaperOverheadStats(0, 287.90, 3.16, 8.29, 17.37, 37.09),
        "TP": PaperOverheadStats(85.61, 87.94, 85.61, 85.62, 85.63, 85.69),
        "CP": PaperOverheadStats(2.25, 4.58, 2.25, 2.26, 2.27, 2.33),
    },
    "ctex": {
        "NH": PaperOverheadStats(0, 29.30, 0.07, 0.26, 0.49, 2.24),
        "VM-4K": PaperOverheadStats(0, 339.88, 11.77, 20.78, 48.93, 116.66),
        "VM-8K": PaperOverheadStats(0, 343.64, 13.03, 22.05, 48.93, 117.86),
        "TP": PaperOverheadStats(143.52, 146.17, 143.53, 143.56, 143.58, 143.96),
        "CP": PaperOverheadStats(3.77, 6.42, 3.78, 3.81, 3.83, 4.21),
    },
    "spice": {
        "NH": PaperOverheadStats(0, 27.87, 0.01, 0.21, 0.16, 1.19),
        "VM-4K": PaperOverheadStats(0, 213.52, 7.15, 15.24, 53.55, 118.56),
        "VM-8K": PaperOverheadStats(0, 223.33, 11.94, 22.75, 72.34, 215.32),
        "TP": PaperOverheadStats(64.06, 65.05, 64.06, 64.06, 64.07, 64.09),
        "CP": PaperOverheadStats(1.68, 2.68, 1.68, 1.69, 1.69, 1.72),
    },
    "qcd": {
        "NH": PaperOverheadStats(0, 61.98, 0.36, 1.41, 2.56, 15.11),
        "VM-4K": PaperOverheadStats(0, 636.44, 158.99, 170.05, 459.63, 636.44),
        "VM-8K": PaperOverheadStats(0, 636.44, 158.99, 170.05, 459.63, 636.44),
        "TP": PaperOverheadStats(120.51, 123.19, 120.53, 120.58, 120.65, 120.88),
        "CP": PaperOverheadStats(3.16, 5.84, 3.19, 3.23, 3.31, 3.53),
    },
    "bps": {
        "NH": PaperOverheadStats(0, 28.16, 0.0, 0.07, 0.02, 0.14),
        "VM-4K": PaperOverheadStats(0, 158.96, 0.56, 2.23, 2.31, 14.30),
        "VM-8K": PaperOverheadStats(0, 158.96, 1.02, 2.97, 4.45, 18.98),
        "TP": PaperOverheadStats(53.31, 53.99, 53.31, 53.31, 53.31, 53.32),
        "CP": PaperOverheadStats(1.40, 2.09, 1.40, 1.40, 1.40, 1.41),
    },
}

#: Section 8: CodePatch code-expansion range (fractional).
CODE_EXPANSION_RANGE: Tuple[float, float] = (0.12, 0.15)

#: Section 8: overhead breakdown claims (percent ranges by approach).
BREAKDOWN_CLAIMS = {
    "NH": ("NHFaultHandler", 100.0, 100.0),
    "VM-4K": ("VMFaultHandler", 86.0, 97.0),
    "TP": ("TPFaultHandler", 97.0, 97.0),
    "CP": ("SoftwareLookup", 98.0, 99.0),
}
