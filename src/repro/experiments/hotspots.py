"""Section-8 hot spots: which sessions are expensive, and why.

The paper observes that NativeHardware's expensive sessions "monitored
induction variables and functions that allocated large numbers of heap
objects", while VirtualMemory's "monitored local variables, often for
functions toward the root of the call graph".  This module ranks sessions
per approach and reports the top offenders with their session types so
the qualitative claim can be inspected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping

from repro.analysis.tables import render_table
from repro.experiments.pipeline import ProgramData
from repro.models.overhead import paper_approaches, relative_overheads
from repro.sessions.types import ALL_HEAP_IN_FUNC, ONE_LOCAL_AUTO


@dataclass(frozen=True)
class HotSession:
    """One expensive session under one approach."""

    program: str
    approach: str
    label: str
    kind: str
    relative_overhead: float
    hits: int


def compute_hotspots(
    data: Mapping[str, ProgramData], top_n: int = 5
) -> Dict[str, Dict[str, List[HotSession]]]:
    """program -> approach -> top-N sessions by relative overhead."""
    out: Dict[str, Dict[str, List[HotSession]]] = {}
    for name, program in data.items():
        sessions = program.result.sessions
        hits = program.result.counts["hits"].tolist()
        out[name] = {}
        for label, terms in paper_approaches().items():
            overheads = relative_overheads(program.result.counts, terms,
                                           program.base_time_us).tolist()
            # A stable descending sort: tied sessions keep session order.
            top = sorted(range(len(sessions)), key=overheads.__getitem__,
                         reverse=True)[:top_n]
            out[name][label] = [
                HotSession(
                    program=name,
                    approach=label,
                    label=sessions[row].label,
                    kind=sessions[row].kind,
                    relative_overhead=overheads[row],
                    hits=hits[row],
                )
                for row in top
            ]
    return out


def nh_hotspot_claim_holds(data: Mapping[str, ProgramData]) -> bool:
    """Check the paper's NH claim: the majority of each program's most
    expensive NH sessions monitor frequently-updated locals (induction
    variables) or heap-allocating functions."""
    hotspots = compute_hotspots(data, top_n=5)
    for per_approach in hotspots.values():
        top = per_approach["NH"]
        matching = sum(
            1 for hot in top if hot.kind in (ONE_LOCAL_AUTO, ALL_HEAP_IN_FUNC)
            or hot.kind == "AllLocalInFunc"
        )
        if matching < (len(top) + 1) // 2:
            return False
    return True


def render_hotspots_report(data: Mapping[str, ProgramData]) -> str:
    """Top expensive sessions per program under NH and VM-4K."""
    hotspots = compute_hotspots(data)
    headers = ["Program", "Approach", "Session", "Type", "Rel overhead", "Hits"]
    body = []
    for program, per_approach in hotspots.items():
        for approach in ("NH", "VM-4K"):
            for hot in per_approach[approach]:
                body.append([
                    program,
                    approach,
                    hot.label,
                    hot.kind,
                    f"{hot.relative_overhead:.2f}",
                    hot.hits,
                ])
    return (
        render_table(headers, body, "Most expensive sessions (hot spots)")
        + "\n\nPaper (section 8): NH extremes are induction variables and"
        "\nheap-heavy allocator functions; VM extremes are local variables"
        "\nof functions toward the root of the call graph."
    )
