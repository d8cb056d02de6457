"""Analytical models of the four WMS strategies (paper Figures 3-6).

Each approach column of Table 4 is a table of terms over the phase-2
count table (:mod:`repro.models.overhead`); applying it to platform
*timing variables* (Table 2) estimates the overhead every monitor
session would impose, per timing variable and in total.
"""

from repro.models.timing import TimingVariables, SPARCSTATION_2_TIMING
from repro.models.overhead import (
    Terms,
    dominant_component,
    overhead_breakdown,
    paper_approaches,
    relative_overheads,
    term_us,
    total_us,
    vm_terms,
)

__all__ = [
    "TimingVariables",
    "SPARCSTATION_2_TIMING",
    "Terms",
    "dominant_component",
    "overhead_breakdown",
    "paper_approaches",
    "relative_overheads",
    "term_us",
    "total_us",
    "vm_terms",
]
