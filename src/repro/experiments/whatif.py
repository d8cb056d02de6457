"""What-if sensitivity analysis over the timing variables.

Section 9 argues that "given the encouraging performance estimate for
code patching, expensive monitoring hardware will be difficult to
justify."  The models are parameterized by platform timings (Table 2),
so the argument can be quantified: how much would the platform have to
change before the conclusion flips?

Three questions, answerable directly from the models' terms:

* **Trap-cost sweep** — TrapPatch is CodePatch plus a kernel trap per
  write, so its t-mean tracks the trap cost linearly.  How cheap must
  trap delivery become before TP lands within 2x of CP?
* **Fault-cost sweep** — likewise for VirtualMemory's write fault.
* **NH-vs-CP sessions** — NativeHardware wins a session exactly when
  ``hits x NHFaultHandler < writes x SoftwareLookup``; what fraction of
  real sessions is that, and would more hardware registers change it?
  (Register count does not enter the cost model at all — the hardware
  limit is about *feasibility*, not speed.)
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Mapping, Sequence

import numpy as np

from repro.analysis.stats import trimmed_mean
from repro.analysis.tables import render_table
from repro.experiments.pipeline import ProgramData
from repro.models.overhead import (
    Terms,
    paper_approaches,
    relative_overheads,
    total_us,
    vm_terms,
)
from repro.models.timing import SPARCSTATION_2_TIMING, TimingVariables

#: Cost-scaling factors swept (1 = the SPARCstation 2).
SWEEP_FACTORS = (1.0, 0.5, 0.25, 0.125, 1 / 16, 1 / 32, 1 / 64)

_APPROACHES = paper_approaches()
_NH, _TP, _CP = _APPROACHES["NH"], _APPROACHES["TP"], _APPROACHES["CP"]


def _relative(program: ProgramData, terms: Terms,
              timing: TimingVariables) -> np.ndarray:
    return relative_overheads(program.result.counts, terms,
                              program.base_time_us, timing)


def _mean(values: np.ndarray) -> float:
    """The plain mean, summed in session order."""
    return sum(values.tolist()) / len(values)


def trap_cost_sweep(
    data: Mapping[str, ProgramData],
    factors: Sequence[float] = SWEEP_FACTORS,
    timing: TimingVariables = SPARCSTATION_2_TIMING,
) -> Dict[float, Dict[str, float]]:
    """factor -> program -> TP/CP t-mean ratio, with traps scaled down."""
    cp = {name: trimmed_mean(_relative(program, _CP, timing))
          for name, program in data.items()}
    out: Dict[float, Dict[str, float]] = {}
    for factor in factors:
        scaled = replace(timing, tp_fault_handler=timing.tp_fault_handler * factor)
        out[factor] = {
            name: trimmed_mean(_relative(program, _TP, scaled)) / cp[name]
            if cp[name] else float("inf")
            for name, program in data.items()
        }
    return out


def vm_fault_sweep(
    data: Mapping[str, ProgramData],
    factors: Sequence[float] = SWEEP_FACTORS,
    timing: TimingVariables = SPARCSTATION_2_TIMING,
) -> Dict[float, Dict[str, float]]:
    """factor -> program -> VM/CP *mean* ratio, with faults scaled down.

    The mean (not t-mean) is the fair summary for VM: its t-mean on
    heap-dominated programs is tiny while the tail is catastrophic.
    """
    vm = vm_terms(4096)
    cp = {name: _mean(_relative(program, _CP, timing))
          for name, program in data.items()}
    out: Dict[float, Dict[str, float]] = {}
    for factor in factors:
        scaled = replace(timing, vm_fault_handler=timing.vm_fault_handler * factor)
        out[factor] = {
            name: _mean(_relative(program, vm, scaled)) / cp[name]
            for name, program in data.items()
        }
    return out


def nh_win_fraction(
    data: Mapping[str, ProgramData],
    timing: TimingVariables = SPARCSTATION_2_TIMING,
) -> Dict[str, float]:
    """Per program: fraction of sessions where NH is cheaper than CP."""
    out: Dict[str, float] = {}
    for name, program in data.items():
        counts = program.result.counts
        wins = np.count_nonzero(total_us(counts, _NH, timing)
                                < total_us(counts, _CP, timing))
        out[name] = int(wins) / len(program.result.sessions)
    return out


def trap_breakeven_factor(timing: TimingVariables = SPARCSTATION_2_TIMING) -> float:
    """Trap-cost factor at which TP's per-write cost is 2x CP's.

    Closed-form from the models: writes dominate both, so
    ``factor = SoftwareLookup / TPFaultHandler`` puts TP at exactly 2x.
    """
    return timing.software_lookup / timing.tp_fault_handler


def render_whatif_report(data: Mapping[str, ProgramData]) -> str:
    """All three sensitivity analyses as text."""
    parts: List[str] = []

    sweep = trap_cost_sweep(data)
    programs = list(data)
    parts.append(
        render_table(
            ["Trap cost x", *programs],
            [
                [f"{factor:.4g}"] + [f"{sweep[factor][p]:.1f}x" for p in programs]
                for factor in SWEEP_FACTORS
            ],
            "TP/CP t-mean ratio as kernel traps get cheaper",
        )
    )
    factor = trap_breakeven_factor()
    parts.append(
        f"\nTraps must get ~{1 / factor:.0f}x cheaper ({factor:.3f}x cost) before "
        "TrapPatch is merely 2x CodePatch —\nno plausible 1992 kernel change "
        "rescues trap patching."
    )

    vm_sweep = vm_fault_sweep(data)
    parts.append("")
    parts.append(
        render_table(
            ["Fault cost x", *programs],
            [
                [f"{factor:.4g}"] + [f"{vm_sweep[factor][p]:.1f}x" for p in programs]
                for factor in SWEEP_FACTORS
            ],
            "VM/CP mean ratio as write faults get cheaper",
        )
    )

    wins = nh_win_fraction(data)
    parts.append("")
    parts.append(
        render_table(
            ["Program", "Sessions where NH beats CP"],
            [[name, f"{fraction:.1%}"] for name, fraction in wins.items()],
            "NativeHardware vs CodePatch, session by session",
        )
    )
    parts.append(
        "\nNH wins most sessions on speed — but cannot *run* most sessions\n"
        "(see the register-pressure ablation); CP loses narrowly on speed\n"
        "and supports any number of monitors.  That asymmetry is the\n"
        "paper's section-9 conclusion, quantified."
    )
    return "\n".join(parts)
