"""One benchmark task in a fresh interpreter.

``run.py`` starts this script once per task.  It writes ``ready`` on
stdout once the imports and the native-kernel load are done (the
parent times set-up up to that line), then one JSON line with the
task's result.  Library output goes to stderr so the protocol stays
clean.

The host's speed is measured on both sides of set-up, and sampled by a
:class:`speed.SpeedProbe` all through a task, so the parent can report
times in reference seconds.  The ``ready`` line carries the seconds the
first measurement took, which are not set-up.

Tasks:

``probe``         import and load the kernel, nothing else
``build-traces``  run phase 1 for the five programs into ``--dest``
``bare``          run ``--programs`` (default: all five) with no tracer
                  and no watches
``cold``          one ``cold`` iteration
``replay``        one ``replay`` iteration over ``--traces``
``live``          one ``live`` iteration for ``--seed``

With ``--trace 1`` an iteration runs under a :class:`ledger.Ledger` and
its result carries the per-layer metrics it measured.
"""

from __future__ import annotations

import time

_T = time.perf_counter()

import speed  # noqa: E402

#: Reference seconds per host second just before the imports.
START_SPEED = speed.speed(speed.calibrate())
_T0 = time.perf_counter()
CALIBRATE_S = _T0 - _T

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from repro.debugger import Debugger  # noqa: E402
from repro.experiments.breakdown import render_breakdown_report  # noqa: E402
from repro.experiments.code_expansion import render_code_expansion_report  # noqa: E402
from repro.experiments.figures789 import render_figures_report  # noqa: E402
from repro.experiments.hotspots import render_hotspots_report  # noqa: E402
from repro.experiments.pipeline import (  # noqa: E402
    ExperimentConfig,
    load_experiment_data,
)
from repro.experiments.table1 import render_table1_report  # noqa: E402
from repro.experiments.table2 import render_table2_report  # noqa: E402
from repro.experiments.table3 import render_table3_report  # noqa: E402
from repro.experiments.table4 import render_table4_report  # noqa: E402
from repro.experiments.whatif import render_whatif_report  # noqa: E402
from repro.machine.cpu import Cpu  # noqa: E402
from repro.machine.loader import load_program  # noqa: E402
from repro.machine.memory import Memory  # noqa: E402
from repro.minic.runtime import Runtime  # noqa: E402
from repro.workloads import get_workload  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

from ledger import Ledger  # noqa: E402

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
#: Scratch space for caches, results and per-checkout builds.
WORK_ROOT = HERE.parent / ".perfbench-work"

PROGRAMS = ("gcc", "ctex", "spice", "qcd", "bps")
LIVE_PROGRAM = "gcc"
#: (label, Debugger strategy, page size) in the paper's order.
APPROACHES = (
    ("NH", "native", 4096),
    ("VM-4K", "vm", 4096),
    ("VM-8K", "vm", 8192),
    ("TP", "trap", 4096),
    ("CP", "code", 4096),
)
#: The wrapped layers ``load_experiment_data`` calls into.
PIPELINE_LAYERS = ("minic.compile", "cpu.run", "trace.save", "trace.load",
                   "sessions.discover", "simulate", "store.publish",
                   "store.load")
#: How the CLI joins the sections of one report.
SECTION_SEPARATOR = "\n\n" + "=" * 72 + "\n\n"
#: ``table4`` and ``all`` exactly as ``repro.experiments.cli`` renders them.
TABLE4 = (render_table4_report,)
ALL = (
    render_table1_report,
    lambda data: render_table2_report(),
    render_table3_report,
    render_table4_report,
    render_figures_report,
    render_breakdown_report,
    render_code_expansion_report,
    render_hotspots_report,
    render_whatif_report,
)


def load_reference() -> dict:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- environment -------------------------------------------------------------


def load_kernel() -> float:
    """Load (building on first use) the native kernel; returns seconds."""
    from repro.simulate._native import load_native_library

    start = time.perf_counter()
    load_native_library()
    return time.perf_counter() - start


def fingerprint() -> dict:
    """What a result's timings depend on besides the code."""
    import platform

    import numpy

    from repro.simulate import resolve_engine

    compilers = (os.environ.get("CC"), "cc", "gcc", "clang")
    return {
        "engine": resolve_engine("auto", n_events=1 << 20),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "c_compiler": any(shutil.which(c) for c in compilers if c),
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fresh_dir(parent: Path, prefix: str) -> Path:
    parent.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=parent))


def entries(cache: Path) -> dict:
    """``{file name: (inode, mtime_ns, size)}`` of a cache directory."""
    out = {}
    for path in sorted(cache.iterdir()):
        stat = path.stat()
        out[path.name] = (stat.st_ino, stat.st_mtime_ns, stat.st_size)
    return out


# -- the correctness gate ----------------------------------------------------


def program_counts(data) -> dict:
    """Per-program instructions, cycles and trace events."""
    return {
        name: {
            "instructions": item.meta.instructions,
            "cycles": item.meta.cycles,
            "events": item.meta.n_writes + item.meta.n_installs
            + item.meta.n_removes,
        }
        for name, item in sorted(data.items())
    }


def check_pipeline(report: str, counts: dict, reference: dict) -> list:
    """Failures of a ``cold``/``replay`` output against its reference."""
    failures = []
    if sha256(report) != reference["report_sha256"]:
        failures.append("rendered report differs from the reference")
    for name, expected in reference["programs"].items():
        got = counts.get(name)
        if got != expected:
            failures.append(f"{name}: counts {got} != reference {expected}")
    return failures


def pick_breakpoints(seed: int, pools: dict) -> dict:
    """The seed's global/static, local and heap breakpoint.

    Each pool maps a candidate to its reference hit count; candidates
    are drawn in sorted order so the pick depends only on the seed.
    """
    rng = random.Random(seed)
    return {kind: rng.choice(sorted(pools[kind]))
            for kind in ("global", "local", "heap")}


def check_live(hits: dict, picks: dict, pools: dict) -> list:
    """Failures of a ``live`` output: every approach must report, per
    breakpoint, the reference hit count."""
    failures = []
    for kind, candidate in picks.items():
        expected = pools[kind][candidate]
        for label, per_kind in hits.items():
            if per_kind[kind] != expected:
                failures.append(
                    f"{label}: {kind} {candidate} hit {per_kind[kind]} "
                    f"times, reference {expected}"
                )
    return failures


# -- workload iterations -----------------------------------------------------


def pipeline_pass(cache: Path, renderers, scale="full", programs=PROGRAMS,
                  ledger: Ledger = None):
    """``load_experiment_data`` plus the reports, as the CLI runs them
    with ``--jobs 1`` and engine ``auto``."""
    config = ExperimentConfig(programs=tuple(programs), scale=scale,
                              cache_dir=cache, jobs=1, engine="auto")
    if ledger is None:
        data = load_experiment_data(config)
        sections = [render(data) for render in renderers]
    else:
        data = ledger.time_self("pipeline.self", PIPELINE_LAYERS,
                                load_experiment_data, config)
        sections = [ledger.time("models.render", render, data)
                    for render in renderers]
    return data, SECTION_SEPARATOR.join(sections)


def cold_iteration(work: Path, reference: dict = None, scale="full",
                   programs=PROGRAMS, ledger: Ledger = None) -> dict:
    """Full-scale ``table4`` from an empty cache."""
    cache = fresh_dir(work, "cold-")
    start = time.perf_counter()
    data, report = pipeline_pass(cache, TABLE4, scale, programs, ledger)
    span = (start, time.perf_counter())
    counts = program_counts(data)
    failures = check_pipeline(report, counts, reference) if reference else []
    return {
        "spans": [span],
        "work": sum(c["instructions"] for c in counts.values()),
        "counts": counts,
        "report_sha256": sha256(report),
        "failures": failures,
        "cache": str(cache),
    }


def copy_traces(source: Path, work: Path) -> Path:
    """A fresh cache directory holding only the trace entries."""
    cache = fresh_dir(work, "replay-")
    for path in sorted(source.glob("*.npz")):
        shutil.copyfile(path, cache / path.name)
    return cache


def replay_iteration(traces: Path, work: Path, reference: dict = None,
                     scale="full", programs=PROGRAMS,
                     ledger: Ledger = None) -> dict:
    """The ``all`` target twice over a cache of traces only: pass 1
    simulates and publishes, pass 2 reads the payloads back."""
    cache = copy_traces(traces, work)
    before = entries(cache)
    start = time.perf_counter()
    data, first = pipeline_pass(cache, ALL, scale, programs, ledger)
    counts = program_counts(data)
    # Pass 1's results go before pass 2 starts, so the peak memory is
    # one pass's, as in one run of the CLI.
    del data
    published = entries(cache)
    _, second = pipeline_pass(cache, ALL, scale, programs, ledger)
    span = (start, time.perf_counter())
    after = entries(cache)

    failures = []
    written = sorted(
        name for name in set(before) | set(published) | set(after)
        if name.endswith(".npz")
        and not before.get(name) == published.get(name) == after.get(name)
    )
    if written:
        failures.append(f"phase 1 ran: trace entries written {written}")
    sims = [name for name in set(published) - set(before)
            if not name.endswith(".npz")]
    if len(sims) != len(programs):
        failures.append(f"pass 1 published {len(sims)} sim payloads, "
                        f"expected {len(programs)}")
    if after != published:
        failures.append("pass 2 rewrote the cache instead of reading it")
    if second != first:
        failures.append("pass 2 rendered a different report than pass 1")
    if reference:
        failures += check_pipeline(first, counts, reference)
    return {
        "spans": [span],
        "work": sum(c["events"] for c in counts.values()),
        "counts": counts,
        "report_sha256": sha256(first),
        "failures": failures,
    }


def live_session(program, workload, scale: int, strategy: str,
                 page_size: int, picks: dict, ledger: Ledger = None,
                 label: str = "") -> dict:
    """One debugging session with the three picked breakpoints."""
    def open_session():
        debugger = Debugger(program, strategy=strategy, page_size=page_size)
        workload.setup(debugger.memory, debugger.image, scale)
        func, var = picks["local"].split(".", 1)
        breakpoints = {
            "global": debugger.watch_global(picks["global"]),
            "local": debugger.watch_local(func, var),
            "heap": debugger.watch_heap("ob_alloc",
                                        alloc_ordinal=int(picks["heap"])),
        }
        return debugger, breakpoints

    if ledger is None:
        debugger, breakpoints = open_session()
        outcome = debugger.run()
    else:
        debugger, breakpoints = ledger.time(f"live.{label}.open", open_session)
        outcome = ledger.time(f"live.{label}.run", debugger.run)
    failures = []
    if not outcome.finished:
        failures.append(f"{label}: the debuggee stopped before the end")
    else:
        try:
            workload.check(outcome.state, debugger.runtime, scale)
        except Exception as exc:  # the self-check's verdict, reported
            failures.append(f"{label}: self-check failed: {exc}")
    return {
        "hits": {kind: bp.hit_count for kind, bp in breakpoints.items()},
        "wms_hits": debugger.wms.stats.hits,
        "checks": debugger.wms.stats.checks,
        "cycles": debugger.cpu.cycles,
        "instructions": outcome.state.instructions if outcome.finished else 0,
        "failures": failures,
    }


def live_iteration(seed: int, pools: dict, scale="full",
                   ledger: Ledger = None) -> dict:
    """gcc under the debugger with every approach, same three watches."""
    workload = get_workload(LIVE_PROGRAM)
    scale = workload.default_scale if scale == "full" else scale
    picks = pick_breakpoints(seed, pools)
    start = time.perf_counter()
    program = workload.compile(scale)
    spans = [(start, time.perf_counter())]
    sessions = {}
    for label, strategy, page_size in APPROACHES:
        # Free the previous session's machine first, untimed, so that
        # peak memory is one session's and not the collector's timing.
        gc.collect()
        start = time.perf_counter()
        sessions[label] = live_session(program, workload, scale, strategy,
                                       page_size, picks, ledger, label)
        spans.append((start, time.perf_counter()))
    failures = [f for s in sessions.values() for f in s["failures"]]
    failures += check_live({k: s["hits"] for k, s in sessions.items()},
                           picks, pools)
    return {
        "spans": spans,
        "work": sum(s["instructions"] for s in sessions.values()),
        "picks": picks,
        "sessions": sessions,
        "failures": failures,
    }


def bare_run(name: str, scale="full") -> dict:
    """``Cpu.run`` with no tracer and no watches: the machine alone."""
    workload = get_workload(name)
    scale = workload.default_scale if scale == "full" else scale
    program = workload.compile(scale)
    image = load_program(program, program.layout)
    memory = Memory(program.layout)
    cpu = Cpu(memory, layout=program.layout)
    runtime = Runtime(cpu, program.layout)
    runtime.install()
    cpu.attach(image)
    workload.setup(memory, image, scale)
    start = time.perf_counter()
    state = cpu.run("main", ())
    span = (start, time.perf_counter())
    workload.check(state, runtime, scale)
    return {"span": span, "instructions": state.instructions,
            "cycles": state.cycles}


# -- per-layer metrics of a traced iteration ---------------------------------


#: Each takes the ledger, the iteration's result and a clock, which
#: turns a ``(begin, end)`` span into seconds.


def cold_layers(ledger: Ledger, result: dict, clock) -> dict:
    counts = ledger.counts

    def seconds(name):
        return ledger.seconds(name, clock)

    return {
        "minic.compile_s": seconds("minic.compile"),
        "trace.run_s": seconds("cpu.run"),
        "trace.events": counts["trace.saved_events"],
        "trace.save_s": seconds("trace.save"),
        "trace.save_bytes": counts["trace.save_bytes"],
        "pipeline.self_s": seconds("pipeline.self"),
    }


def replay_layers(ledger: Ledger, result: dict, clock) -> dict:
    counts = ledger.counts

    def seconds(name):
        return ledger.seconds(name, clock)

    return {
        "trace.load_s": seconds("trace.load"),
        "trace.load_bytes": counts["trace.load_bytes"],
        "sessions.discover_s": seconds("sessions.discover"),
        "sessions.count": counts["sessions.count"],
        "simulate.s": seconds("simulate"),
        "simulate.mevents_per_s":
            counts["simulate.events"] / seconds("simulate") / 1e6,
        "store.publish_s": seconds("store.publish"),
        "store.publish_bytes": counts["store.publish_bytes"],
        "store.load_s": seconds("store.load"),
        "models.render_s": seconds("models.render"),
        "pipeline.self_s": seconds("pipeline.self"),
    }


def live_layers(ledger: Ledger, result: dict, clock) -> dict:
    layers = {}
    for label, _strategy, _page_size in APPROACHES:
        session = result["sessions"][label]
        layers.update({
            f"live.{label}.open_s": ledger.seconds(f"live.{label}.open",
                                                   clock),
            f"live.{label}.run_s": ledger.seconds(f"live.{label}.run",
                                                  clock),
            f"live.{label}.hits": session["wms_hits"],
            f"live.{label}.checks": session["checks"],
            f"live.{label}.cycles": session["cycles"],
        })
    return layers


# -- entry point -------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("task", choices=("probe", "build-traces", "bare",
                                         "cold", "replay", "live"))
    parser.add_argument("--work", type=Path, required=True,
                        help="directory for this run's caches")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--programs", nargs="+", choices=PROGRAMS,
                        default=PROGRAMS, help="what bare runs")
    parser.add_argument("--traces", type=Path, help="trace-only cache")
    parser.add_argument("--dest", type=Path, help="where build-traces writes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: run the iteration under a ledger")
    args = parser.parse_args(argv)

    protocol = sys.stdout
    sys.stdout = sys.stderr
    kernel_s = load_kernel()
    print(f"ready {CALIBRATE_S!r}", file=protocol, flush=True)
    end_speed = speed.speed(speed.calibrate())

    reference = load_reference()
    result = {"import_s": IMPORT_S, "kernel_load_s": kernel_s,
              "setup_speed": (START_SPEED + end_speed) / 2,
              "fingerprint": fingerprint()}
    ledger = Ledger() if args.trace else None
    probe = speed.SpeedProbe()
    if args.task == "build-traces":
        data, _ = pipeline_pass(args.dest, ())
        for path in args.dest.glob("*.pkl"):
            path.unlink()
        result["programs"] = sorted(data)
    elif args.task == "bare":
        with probe:
            result["bare"] = {name: bare_run(name) for name in args.programs}
        for run in result["bare"].values():
            run["run_s"] = probe.ref_seconds(*run.pop("span"))
    elif args.task == "cold":
        with probe, ledger or contextlib.nullcontext():
            result.update(cold_iteration(args.work, reference["cold"],
                                         ledger=ledger))
        layers = cold_layers
    elif args.task == "replay":
        with probe, ledger or contextlib.nullcontext():
            result.update(replay_iteration(args.traces, args.work,
                                           reference["replay"],
                                           ledger=ledger))
        layers = replay_layers
    elif args.task == "live":
        with probe, ledger or contextlib.nullcontext():
            result.update(live_iteration(args.seed,
                                         reference["live"]["pools"],
                                         ledger=ledger))
        layers = live_layers
    if ledger is not None:
        result["layers"] = layers(ledger, result, probe.ref_seconds)
    spans = result.pop("spans", ())
    if spans:
        # The probe's own samples are left out of both times.
        result["wall_s"] = sum(probe.host_seconds(*s) for s in spans)
        result["ref_wall_s"] = sum(probe.ref_seconds(*s) for s in spans)
    result.pop("sessions", None)
    result["peak_rss_mib"] = peak_rss_mib()
    print(json.dumps(result, sort_keys=True), file=protocol, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
