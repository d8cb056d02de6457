"""Ablation: VirtualMemory sensitivity across a wide page-size sweep.

The paper motivates its simulator partly by page-size flexibility and
evaluates 4K and 8K.  This ablation sweeps 1K-64K on a heap-free program
(ctex) and checks the structural monotonicities power-of-two page nesting
implies: active-page misses grow and protect transitions shrink as pages
get bigger — which is why bigger pages never help VirtualMemory.
"""

import numpy as np

from repro.analysis.tables import render_table
from repro.models.overhead import relative_overheads, vm_terms
from repro.sessions import discover_sessions
from repro.simulate import simulate_sessions
from repro.workloads import get_workload
from repro.workloads.base import run_workload

PAGE_SIZES = (1024, 2048, 4096, 8192, 16384, 65536)


def _sweep():
    workload = get_workload("ctex")
    run = run_workload(workload, workload.smoke_scale * 3)
    sessions = discover_sessions(run.registry)
    result = simulate_sessions(run.trace, run.registry, sessions, PAGE_SIZES)
    return run.trace.meta.base_time_us, result


def test_pagesize_sweep(benchmark, report_writer):
    base_us, result = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    counts = result.counts

    mean_rel = {}
    for size in PAGE_SIZES:
        rels = relative_overheads(counts, vm_terms(size), base_us).tolist()
        mean_rel[size] = sum(rels) / len(rels)

    # Per-session structural invariants of nested power-of-two pages:
    # each row is a page size, each column a session.
    apms = np.stack([counts[f"active_page_misses_{size}"] for size in PAGE_SIZES])
    assert np.all(np.diff(apms, axis=0) >= 0), "APM must not shrink with page size"
    protects = np.stack([counts[f"protects_{size}"] for size in PAGE_SIZES])
    assert np.all(np.diff(protects, axis=0) <= 0), (
        "protect transitions must not grow with page size"
    )

    # The headline: growing pages 1K -> 64K never makes VM cheaper on
    # average, because faults dominate transitions (section 8).
    assert mean_rel[65536] >= mean_rel[1024]

    report_writer(
        "ablation_pagesize",
        render_table(
            ["Page size", "Mean VM relative overhead"],
            [[f"{size // 1024}K", f"{mean_rel[size]:.2f}"] for size in PAGE_SIZES],
            "VirtualMemory page-size sweep (ctex)",
        ),
    )
