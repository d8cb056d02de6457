"""Section-8 breakdown: where each approach's overhead time goes.

The paper reports, per approach, the mean percentage of session overhead
attributable to each timing variable: NH is 100% NHFaultHandler; VM-4K is
86-97% VMFaultHandler; TP is ~97% TPFaultHandler; CP is 98-99%
SoftwareLookup.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.analysis.tables import render_table
from repro.experiments.pipeline import ProgramData
from repro.models.overhead import (
    dominant_component,
    overhead_breakdown,
    paper_approaches,
    term_us,
)
from repro.models.paper_data import BREAKDOWN_CLAIMS

BreakdownData = Dict[str, Dict[str, Dict[str, float]]]


def compute_breakdown(data: Mapping[str, ProgramData]) -> BreakdownData:
    """program -> approach -> timing variable -> mean percent."""
    out: BreakdownData = {}
    for name, program in data.items():
        out[name] = {
            label: overhead_breakdown(term_us(program.result.counts, terms))
            for label, terms in paper_approaches().items()
        }
    return out


def render_breakdown_report(data: Mapping[str, ProgramData]) -> str:
    """Dominant-component table plus the paper's claimed ranges."""
    breakdown = compute_breakdown(data)
    headers = ["Program", "Approach", "Dominant component", "Share (%)"]
    body = []
    for program, per_approach in breakdown.items():
        for approach, shares in per_approach.items():
            name, share = dominant_component(shares)
            body.append([program, approach, name, f"{share:.1f}"])
    parts = [render_table(headers, body, "Overhead breakdown (mean % per timing variable)")]

    parts.append("")
    parts.append("Paper's section-8 claims:")
    for approach, (component, low, high) in BREAKDOWN_CLAIMS.items():
        bounds = f"{low:.0f}%" if low == high else f"{low:.0f}%-{high:.0f}%"
        parts.append(f"  {approach}: {component} accounts for {bounds} of overhead")
    return "\n".join(parts)
