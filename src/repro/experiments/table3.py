"""Table 3: mean counting variables over all studied sessions."""

from __future__ import annotations

from typing import Dict, Mapping

from repro.analysis.tables import render_table, render_table3
from repro.experiments.pipeline import ProgramData
from repro.models.paper_data import TABLE_3

#: Table 3 column -> the count column it is the mean of.  As in the
#: paper, installs and removes are so close that one column serves for
#: both, and likewise for VM protects/unprotects.
_MEANS = {
    "install_remove": "installs",
    "hits": "hits",
    "misses": "misses",
    "vm4k_protects": "protects_4096",
    "vm4k_active_page_misses": "active_page_misses_4096",
    "vm8k_protects": "protects_8192",
    "vm8k_active_page_misses": "active_page_misses_8192",
}


def compute_table3(data: Mapping[str, ProgramData]) -> Dict[str, Dict[str, float]]:
    """Per program: mean of each counting variable over studied sessions."""
    rows: Dict[str, Dict[str, float]] = {}
    for name, program in data.items():
        counts = program.result.counts
        n = len(program.result.sessions)
        if n == 0:
            continue
        rows[name] = {key: int(counts[column].sum()) / n
                      for key, column in _MEANS.items()}
    return rows


def render_table3_report(data: Mapping[str, ProgramData]) -> str:
    """Measured Table 3 plus the paper's values."""
    rows = compute_table3(data)
    parts = [render_table3(rows)]
    headers = [
        "Program", "Inst/Rem", "Hits", "Misses",
        "VM4K P/U", "VM4K APM", "VM8K P/U", "VM8K APM",
    ]
    body = []
    for name in rows:
        paper = TABLE_3.get(name)
        if paper is None:
            continue
        body.append([
            name, paper.install_remove, paper.hits, paper.misses,
            paper.vm4k_protects, paper.vm4k_active_page_misses,
            paper.vm8k_protects, paper.vm8k_active_page_misses,
        ])
    parts.append("")
    parts.append(render_table(headers, body, "Paper's Table 3 (for comparison)"))
    return "\n".join(parts)
