"""Table 4: relative-overhead statistics per program and approach.

The centerpiece of the paper's evaluation: for every studied session,
each approach's terms convert the session's counting variables into an
overhead, normalized by the program's base execution time; the
distribution over sessions is summarized by Min/Max, T-Mean/Mean, and
the 90th/98th percentiles.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.analysis.compare import shape_checks
from repro.analysis.stats import OverheadStats, compute_stats
from repro.analysis.tables import render_table4
from repro.experiments.pipeline import ProgramData
from repro.models.overhead import paper_approaches, relative_overheads
from repro.models.paper_data import TABLE_4
from repro.models.timing import SPARCSTATION_2_TIMING, TimingVariables

Table4Data = Dict[str, Dict[str, OverheadStats]]


def compute_table4(
    data: Mapping[str, ProgramData],
    timing: TimingVariables = SPARCSTATION_2_TIMING,
) -> Table4Data:
    """program -> approach -> :class:`OverheadStats`."""
    return {
        name: {
            label: compute_stats(relative_overheads(
                program.result.counts, terms, program.base_time_us, timing))
            for label, terms in paper_approaches().items()
        }
        for name, program in data.items()
    }


def render_table4_report(
    data: Mapping[str, ProgramData],
    timing: TimingVariables = SPARCSTATION_2_TIMING,
) -> str:
    """Measured Table 4, the paper's Table 4, and the shape checks."""
    table = compute_table4(data, timing)
    parts = [render_table4(table)]

    paper_table: Table4Data = {}
    for name in table:
        row = TABLE_4.get(name)
        if row is None:
            continue
        paper_table[name] = {
            label: OverheadStats(
                n_sessions=0,
                min=stats.min,
                max=stats.max,
                t_mean=stats.t_mean,
                mean=stats.mean,
                p90=stats.p90,
                p98=stats.p98,
            )
            for label, stats in row.items()
        }
    if paper_table:
        parts.append("")
        parts.append(render_table4(paper_table).replace(
            "Table 4: relative overhead statistics",
            "Paper's Table 4 (for comparison)",
        ))

    parts.append("")
    parts.append("Shape checks (the paper's qualitative claims):")
    for check in shape_checks(table):
        marker = "PASS" if check.holds else "FAIL"
        parts.append(f"  [{marker}] {check.claim} -- {check.detail}")
    return "\n".join(parts)
