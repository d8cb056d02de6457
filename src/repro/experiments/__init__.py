"""Experiment orchestration: regenerate every table and figure.

The pipeline (phase 1 trace generation, phase 2 simulation) runs once per
program and is cached on disk; the per-table modules consume the cached
:class:`~repro.experiments.pipeline.ProgramData` and produce both
structured results and rendered text.  :func:`load_experiment_data` is
the one entry point to the pipeline for every ``jobs`` value; the
scheduler behind it lives in :mod:`repro.experiments.parallel`.

Command line: ``python -m repro.experiments all`` (or the
``repro-experiments`` console script).
"""

from repro.experiments.pipeline import (
    ExperimentConfig,
    ProgramData,
    load_experiment_data,
)
from repro.experiments.table1 import compute_table1, render_table1_report
from repro.experiments.table2 import render_table2_report
from repro.experiments.table3 import compute_table3, render_table3_report
from repro.experiments.table4 import compute_table4, render_table4_report
from repro.experiments.figures789 import compute_figures, render_figures_report
from repro.experiments.breakdown import compute_breakdown, render_breakdown_report
from repro.experiments.code_expansion import (
    compute_code_expansion,
    render_code_expansion_report,
)
from repro.experiments.hotspots import compute_hotspots, render_hotspots_report
from repro.experiments.whatif import (
    nh_win_fraction,
    render_whatif_report,
    trap_breakeven_factor,
    trap_cost_sweep,
    vm_fault_sweep,
)

__all__ = [
    "ExperimentConfig",
    "ProgramData",
    "load_experiment_data",
    "compute_table1",
    "render_table1_report",
    "render_table2_report",
    "compute_table3",
    "render_table3_report",
    "compute_table4",
    "render_table4_report",
    "compute_figures",
    "render_figures_report",
    "compute_breakdown",
    "render_breakdown_report",
    "compute_code_expansion",
    "render_code_expansion_report",
    "compute_hotspots",
    "render_hotspots_report",
    "trap_cost_sweep",
    "vm_fault_sweep",
    "nh_win_fraction",
    "trap_breakeven_factor",
    "render_whatif_report",
]
