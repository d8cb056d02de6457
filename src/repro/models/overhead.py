"""The four WMS models (paper Figures 3-6) as term tables.

Every model is linear in the counting variables, and each of its
coefficients is 0 or 1 times a Table 2 timing variable.  So an approach
column of Table 4 is a table of *terms*: each timing variable it
charges maps to the count columns (:func:`repro.simulate.count_table`)
that variable multiplies.  A session's overhead in one term is the sum
of those columns times the variable's microseconds, and its overhead is
the sum of its terms::

    NH     NHFaultHandler   hits
    VM-nK  VMFaultHandler   hits + active_page_misses_n
           SoftwareLookup   hits + active_page_misses_n
           SoftwareUpdate   installs + removes
           VMProtectPage    installs + removes + protects_n
           VMUnprotectPage  installs + removes + unprotects_n
    TP     TPFaultHandler   hits + misses
           SoftwareLookup   hits + misses
           SoftwareUpdate   installs + removes
    CP     SoftwareLookup   hits + misses
           SoftwareUpdate   installs + removes

VM's installs and removes each pay an unprotect, an update and a
reprotect of the page holding the WMS mapping itself, which lives
write-protected in the debuggee's address space (section 3.4).

On top of the terms: the relative overhead is a session's total over the
program's base execution time (section 8), and the section-8 breakdown
is the mean over sessions of each term's share of the total.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from repro.models.timing import SPARCSTATION_2_TIMING, TimingVariables

#: Timing variable -> the count columns it multiplies.
Terms = Dict[str, Tuple[str, ...]]
#: Column name -> one value per session (a count table).
Columns = Mapping[str, np.ndarray]

_WRITES = ("hits", "misses")
_UPDATES = ("installs", "removes")


def vm_terms(page_size: int) -> Terms:
    """The VirtualMemory terms at ``page_size`` (paper Figure 4)."""
    faults = ("hits", f"active_page_misses_{page_size}")
    return {
        "VMFaultHandler": faults,
        "SoftwareLookup": faults,
        "SoftwareUpdate": _UPDATES,
        "VMProtectPage": (*_UPDATES, f"protects_{page_size}"),
        "VMUnprotectPage": (*_UPDATES, f"unprotects_{page_size}"),
    }


def paper_approaches(page_sizes: Sequence[int] = (4096, 8192)) -> Dict[str, Terms]:
    """The approach columns of the paper's Table 4, label -> terms.

    NH, one VM column per page size, TP, CP — in the paper's order.
    """
    return {
        "NH": {"NHFaultHandler": ("hits",)},
        **{f"VM-{size // 1024}K": vm_terms(size) for size in page_sizes},
        "TP": {"TPFaultHandler": _WRITES, "SoftwareLookup": _WRITES,
               "SoftwareUpdate": _UPDATES},
        "CP": {"SoftwareLookup": _WRITES, "SoftwareUpdate": _UPDATES},
    }


def term_us(counts: Columns, terms: Terms,
            timing: TimingVariables = SPARCSTATION_2_TIMING
            ) -> Dict[str, np.ndarray]:
    """Timing variable -> each session's overhead in it, in µs."""
    us = timing.as_dict()
    return {name: sum(counts[column] for column in columns) * us[name]
            for name, columns in terms.items()}


def total_us(counts: Columns, terms: Terms,
             timing: TimingVariables = SPARCSTATION_2_TIMING) -> np.ndarray:
    """Each session's overhead in µs: the sum of its terms."""
    return sum(term_us(counts, terms, timing).values())


def relative_overheads(counts: Columns, terms: Terms, base_time_us: float,
                       timing: TimingVariables = SPARCSTATION_2_TIMING
                       ) -> np.ndarray:
    """Each session's overhead normalized to base execution time
    (section 8): 1.0 means the session doubles the program's run time."""
    if base_time_us <= 0:
        raise ValueError(f"non-positive base time {base_time_us}")
    return total_us(counts, terms, timing) / base_time_us


def overhead_breakdown(terms_us: Mapping[str, np.ndarray]) -> Dict[str, float]:
    """Mean percentage of overhead per timing variable (section 8).

    For each session the paper computes the percentage of its overhead
    attributable to each timing variable, then averages the percentages
    over sessions; zero-overhead sessions contribute nothing.
    """
    total = sum(terms_us.values())
    counted = total > 0
    n_counted = int(np.count_nonzero(counted))
    if n_counted == 0:
        return {}
    # Summed in session order, as a running total.
    return {name: sum((100.0 * amount[counted] / total[counted]).tolist())
            / n_counted for name, amount in terms_us.items()}


def dominant_component(breakdown: Mapping[str, float]) -> Tuple[str, float]:
    """The timing variable with the largest mean share."""
    if not breakdown:
        return ("none", 0.0)
    name = max(breakdown, key=lambda key: breakdown[key])
    return (name, breakdown[name])
