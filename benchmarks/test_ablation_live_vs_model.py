"""Ablation: do the analytical models agree with live execution?

The paper validates its strategies only through models.  Because this
reproduction also has *live* WMS implementations running on the same
machine, we can cross-check: run a real monitor session under each
strategy and compare the measured cycle overhead with the Figure-3..6
model prediction computed from the session's counting variables.
"""

import pytest

from repro.analysis.tables import render_table
from repro.debugger import Debugger
from repro.models.overhead import paper_approaches, total_us
from repro.sessions import discover_sessions
from repro.simulate import simulate_sessions
from repro.units import us_to_cycles
from repro.workloads import get_workload

SCALE = 120  # gcc statements: big enough to amortize, small enough to run live
WATCHED = "n_stmts"


def _live_overhead_cycles(strategy: str, base_cycles: int) -> int:
    workload = get_workload("gcc")
    debugger = Debugger(workload.compile(SCALE), strategy=strategy)
    workload.setup(debugger.memory, debugger.image, SCALE)
    debugger.watch_global(WATCHED)
    outcome = debugger.run()
    assert outcome.finished
    return debugger.cpu.cycles - base_cycles


@pytest.fixture(scope="module")
def session_prediction():
    """Model-predicted overhead (cycles) for the watched-global session."""
    from repro.workloads.base import run_workload

    run = run_workload(get_workload("gcc"), SCALE)
    sessions = discover_sessions(run.registry)
    result = simulate_sessions(run.trace, run.registry, sessions, (4096,))
    row = next(
        row
        for row, session in enumerate(result.sessions)
        if session.kind == "OneGlobalStatic" and session.label == WATCHED
    )
    predictions = {
        label: us_to_cycles(float(total_us(result.counts, terms)[row]))
        for label, terms in paper_approaches(page_sizes=(4096,)).items()
    }
    return run.trace.meta.cycles, predictions


@pytest.mark.parametrize(
    "strategy,label,tolerance",
    [
        ("native", "NH", 0.02),
        ("code", "CP", 0.05),   # the CHK instruction itself adds ~2%
        ("trap", "TP", 0.02),
        ("vm", "VM-4K", 0.05),
    ],
)
def test_live_matches_model(benchmark, session_prediction, strategy, label, tolerance,
                            report_writer):
    base_cycles, predictions = session_prediction
    live = benchmark.pedantic(
        _live_overhead_cycles, args=(strategy, base_cycles), rounds=1, iterations=1
    )
    predicted = predictions[label]
    assert live == pytest.approx(predicted, rel=tolerance), (
        f"{label}: live {live} cycles vs model {predicted} cycles"
    )
    report_writer(
        f"ablation_live_vs_model_{label}",
        render_table(
            ["Approach", "Live (cycles)", "Model (cycles)", "Ratio"],
            [[label, live, predicted, f"{live / predicted:.4f}"]],
            "Live WMS execution vs analytical model (gcc, OneGlobalStatic n_stmts)",
        ),
    )
