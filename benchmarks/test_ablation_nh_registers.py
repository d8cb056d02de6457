"""Ablation: NativeHardware register pressure.

Section 9: "no existing processor could have supported all of the
monitor sessions used in our experiment" — hardware offered at most four
concurrent monitor registers.  The simulator records each session's peak
number of simultaneously active monitors, so we can quantify exactly how
many of the studied sessions 1992 hardware could serve.
"""

from repro.analysis.tables import render_table

HARDWARE_REGISTERS = 4


def _pressure(experiment_data):
    rows = {}
    for name, program in experiment_data.items():
        peaks = program.result.counts["max_concurrent"].tolist()
        supportable = sum(1 for peak in peaks if peak <= HARDWARE_REGISTERS)
        rows[name] = {
            "sessions": len(peaks),
            "supportable": supportable,
            "unsupportable": len(peaks) - supportable,
            "worst_peak": max(peaks),
        }
    return rows


def test_nh_register_pressure(benchmark, experiment_data, report_writer):
    rows = benchmark(_pressure, experiment_data)

    for name, row in rows.items():
        # Every program has sessions beyond four concurrent monitors
        # (AllLocalInFunc with many locals, AllHeapInFunc, recursion) —
        # the paper's central argument against hardware-only support.
        assert row["unsupportable"] > 0, name
        assert row["worst_peak"] > HARDWARE_REGISTERS, name

    # Heap-churning programs are catastrophically beyond the hardware.
    assert rows["bps"]["worst_peak"] > 100

    report_writer(
        "ablation_nh_registers",
        render_table(
            ["Program", "Sessions", "Fit in 4 registers", "Do not fit", "Worst peak"],
            [
                [name, row["sessions"], row["supportable"],
                 row["unsupportable"], row["worst_peak"]]
                for name, row in rows.items()
            ],
            "NativeHardware register pressure (4 registers, as on 1992 CPUs)",
        ),
    )
