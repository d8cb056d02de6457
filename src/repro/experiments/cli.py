"""Command-line entry point: regenerate the paper's tables and figures,
and drive the perf harness.

Examples::

    python -m repro.experiments all
    python -m repro.experiments all --jobs 5          # one worker per program
    python -m repro.experiments table4 --scale smoke
    repro-experiments figures --programs gcc bps

    # an observed run: run.json and its event log run.events.jsonl
    repro-experiments table4 --jobs 2 --profile --manifest run.json
    repro-experiments show run.json
    repro-experiments events run.events.jsonl --severity WARNING

    # the perf gate in one command:
    repro-experiments table4 --scale smoke --manifest a.json
    repro-experiments table4 --scale smoke --manifest b.json
    repro-experiments diff a.json b.json

``--manifest FILE`` turns on the observability layer
(:mod:`repro.observe`), and an observed run writes exactly two
artifacts.  The event log, ``FILE`` with its suffix replaced by
``.events.jsonl``, is truncated at run start and gains one line per
flight-recorder event as it happens, so a failed or interrupted run
leaves its history on disk.  The validated
:class:`~repro.observe.manifest.RunManifest` JSON is written at the end
of the run: per-stage spans, counters, cache traffic, and an ``events``
summary naming the log.  ``--profile`` adds the sampling profiler's
counters to the manifest.

``show FILE`` prints a manifest's stage and cache digest, its metric
tables and its sampling profile; ``diff A.json B.json`` compares two
manifests with fixed per-family thresholds and exits non-zero on
regression (``--report-only`` to disable the gate); ``events LOG``
tails/filters an event log by severity, category, worker, and time
range.  See ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro import faults, observe
from repro.errors import (
    FaultSpecError,
    ManifestFormatError,
    PipelineError,
    ReproError,
    ShutdownRequested,
)
from repro.experiments.pipeline import DEFAULT_RETRIES, FailureRecord
from repro.faults import InjectedFault
from repro.experiments.breakdown import render_breakdown_report
from repro.experiments.code_expansion import render_code_expansion_report
from repro.experiments.figures789 import render_figures_report
from repro.experiments.hotspots import render_hotspots_report
from repro.experiments.pipeline import ExperimentConfig, load_experiment_data
from repro.experiments.table1 import render_table1_report
from repro.experiments.table2 import render_table2_report
from repro.experiments.table3 import render_table3_report
from repro.experiments.table4 import render_table4_report
from repro.experiments.whatif import render_whatif_report
from repro.simulate import ENGINE_CHOICES
from repro.observe.diff import diff_manifests, render_diff_report
from repro.observe.events import SEVERITIES, rank_severity

_TARGETS = (
    "table1", "table2", "table3", "table4",
    "figures", "breakdown", "expansion", "hotspots", "whatif", "all",
)

#: Stable exit codes (documented in --help and docs/RESILIENCE.md).
EXIT_OK = 0
EXIT_USAGE = 2          # bad flags, bad config, bad fault spec
EXIT_PARTIAL = 3        # --keep-going finished but some programs failed
EXIT_PIPELINE = 4       # fatal pipeline/session error (incl. worker timeout)
EXIT_REPRO = 5          # any other classified repro error
EXIT_TRANSIENT = 6      # worker/I-O failure that survived all retries
# 128 + signum          # graceful shutdown: 130 on SIGINT, 143 on SIGTERM

_EXIT_CODE_DOC = (
    "Exit codes: 0 success; 2 usage/configuration error; "
    "3 partial success (--keep-going with failed programs, see the "
    "manifest's 'failures' section); 4 fatal pipeline error; "
    "5 other classified error; 6 worker or I/O failure after retries; "
    "128+signum (130 SIGINT, 143 SIGTERM) after a graceful shutdown — "
    "the event log ends with run.interrupted.  After any failure, re-running "
    "the same command over the same --cache-dir resumes the work: "
    "programs whose results were published load from the cache."
)


def _exit_code_for(exc: BaseException) -> Optional[int]:
    """The stable exit code for a classified failure, else ``None``.

    ``None`` means the exception is an unclassified bug and should
    propagate with its traceback — hiding those would hide real defects.
    """
    if isinstance(exc, FaultSpecError):
        return EXIT_USAGE
    if isinstance(exc, PipelineError):  # includes Session/WorkerTimeout
        return EXIT_PIPELINE
    if isinstance(exc, ReproError):
        return EXIT_REPRO
    if isinstance(exc, (OSError, InjectedFault)):
        return EXIT_TRANSIENT
    try:
        from concurrent.futures.process import BrokenProcessPool
        if isinstance(exc, BrokenProcessPool):
            return EXIT_TRANSIENT
    except ImportError:  # pragma: no cover - stdlib
        pass
    return None


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the tables and figures of 'Efficient Data "
        "Breakpoints' (Wahbe, ASPLOS 1992).",
        epilog="Harness subcommands: 'repro-experiments show FILE' prints a "
        "run manifest; 'repro-experiments diff A.json B.json' "
        "compares two run manifests (non-zero exit on regression); "
        "'repro-experiments events LOG' tails/filters the event log "
        "written beside a manifest.  See docs/OBSERVABILITY.md.  "
        + _EXIT_CODE_DOC
        + "  Fault injection and the retry/timeout/keep-going policy are "
        "documented in docs/RESILIENCE.md.",
    )
    parser.add_argument("target", choices=_TARGETS, help="what to regenerate")
    parser.add_argument(
        "--programs", nargs="+", default=["gcc", "ctex", "spice", "qcd", "bps"],
        help="benchmark programs to include",
    )
    parser.add_argument(
        "--scale", default="full",
        help="'full', 'smoke', or an integer applied to every workload",
    )
    parser.add_argument(
        "--cache-dir", default=".repro_cache", help="trace/simulation cache directory"
    )
    parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="also write the report to FILE",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="ignore and do not write the cache"
    )
    parser.add_argument(
        "--jobs", "-j", type=int, default=1, metavar="N",
        help="fan per-program pipeline work out to N worker processes "
        "(default 1 = serial); observation merges worker metrics/spans "
        "back into one manifest",
    )
    parser.add_argument(
        "--engine", choices=ENGINE_CHOICES, default="auto",
        help="phase-2 simulation backend: 'python' (scalar reference), "
        "'native' (compiled C kernel), or 'auto' (native when the kernel "
        "loads, else python; the default).  Both produce bit-identical "
        "results",
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    parser.add_argument(
        "--retries", type=int, default=DEFAULT_RETRIES, metavar="N",
        help="retry a program up to N times after a transient failure "
        "(worker crash, I/O error, timeout) with capped exponential "
        "backoff (default %(default)s); fatal errors never retry",
    )
    parser.add_argument(
        "--worker-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock watchdog per parallel worker: a worker running "
        "longer is killed and its program rescheduled (counts as a "
        "retry attempt); default: no timeout",
    )
    parser.add_argument(
        "--keep-going", action="store_true",
        help="complete the run with the surviving programs when one "
        "fails permanently: tables render with explicit gaps, the "
        "manifest records a 'failures' section, and the exit code is "
        f"{EXIT_PARTIAL} (partial success) instead of an error",
    )
    parser.add_argument(
        "--inject-faults", default=None, metavar="SPEC",
        help="deterministic fault injection plan, e.g. "
        "'worker:crash@gcc,cache.read:corrupt@2' (grammar in "
        "docs/RESILIENCE.md); also exported as REPRO_FAULTS to worker "
        "processes",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=0, metavar="N",
        help="seed for probabilistic fault qualifiers (with --inject-faults)",
    )
    parser.add_argument(
        "--manifest", default=None, metavar="FILE",
        help="enable observation: write a RunManifest JSON to FILE at "
        "the end of the run, and the run's event log (JSON Lines, one "
        "run_id for parent and worker events) line by line to FILE with "
        "its suffix replaced by .events.jsonl.  Read them with "
        "'repro-experiments show FILE' and 'repro-experiments events LOG'",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="with --manifest: add sampling-profiler counters (1 in "
        f"{observe.DEFAULT_SAMPLE_STRIDE} instructions/events) to the "
        "manifest; 'show' prints their top-N opcode/event tables",
    )
    args = parser.parse_args(argv)
    if args.profile and not args.manifest:
        parser.error("--profile needs --manifest FILE to record into")
    return args


def _event_log_path(manifest: str) -> Path:
    """The event log written beside the manifest ``FILE``."""
    return Path(manifest).with_suffix(".events.jsonl")


def _point_at_event_log(args) -> None:
    """Name a failed observed run's event log, its post-mortem record."""
    if args.manifest:
        print(f"[event log: {_event_log_path(args.manifest)}]",
              file=sys.stderr)


def _parse_diff_args(argv):
    parser = argparse.ArgumentParser(
        prog="repro-experiments diff",
        description="Compare two RunManifest JSONs and report regressions. "
        "Exits 1 when a metric regressed past threshold (the perf gate), "
        "0 otherwise; 2 on unreadable/invalid manifests.",
    )
    parser.add_argument("before", help="baseline manifest JSON")
    parser.add_argument("after", help="candidate manifest JSON")
    parser.add_argument(
        "--report-only", action="store_true",
        help="always exit 0; just print the report",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the machine-readable verdict JSON instead of the text report",
    )
    return parser.parse_args(argv)


def _diff_main(argv) -> int:
    args = _parse_diff_args(argv)
    try:
        before = observe.load_manifest(args.before)
        after = observe.load_manifest(args.after)
    except ManifestFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    diff = diff_manifests(before, after)
    if args.json:
        print(json.dumps(diff.to_dict(), indent=2, sort_keys=True))
    else:
        print(render_diff_report(diff))
    if diff.regressions and not args.report_only:
        return 1
    return 0


def _show_main(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments show",
        description="Print a RunManifest: its stage and cache digest, its "
        "span, counter, gauge and histogram tables, and the top-N "
        "sampling-profile tables of a --profile run.  Exits 2 on an "
        "unreadable or invalid manifest.",
    )
    parser.add_argument("manifest", help="manifest JSON to print")
    args = parser.parse_args(argv)
    try:
        manifest = observe.load_manifest(args.manifest)
    except ManifestFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(observe.render_manifest(manifest))
    return 0


def _parse_events_args(argv):
    parser = argparse.ArgumentParser(
        prog="repro-experiments events",
        description="Tail and filter a JSONL event log (the one a "
        "--manifest run writes beside its manifest).  Filters compose; "
        "with no filters the whole log prints.  Exits 2 on an unreadable "
        "or schema-invalid log.",
    )
    parser.add_argument("log", help="event log (JSON Lines) to read")
    parser.add_argument(
        "--severity", choices=SEVERITIES, default=None,
        help="minimum severity to show (e.g. WARNING shows WARNING+ERROR)",
    )
    parser.add_argument(
        "--category", default=None, metavar="PREFIX",
        help="dotted category prefix, e.g. 'cache' matches cache.hit "
        "and cache.miss; 'fault.triggered' matches exactly",
    )
    parser.add_argument(
        "--worker", default=None, metavar="NAME",
        help="only events from worker NAME; use '' for parent-process "
        "events (default: all)",
    )
    parser.add_argument(
        "--since", type=float, default=None, metavar="SECONDS",
        help="only events at or after SECONDS from the log's first event",
    )
    parser.add_argument(
        "--until", type=float, default=None, metavar="SECONDS",
        help="only events at or before SECONDS from the log's first event",
    )
    parser.add_argument(
        "--tail", type=int, default=None, metavar="N",
        help="only the last N events (after filtering)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print matching events as raw JSONL instead of the table",
    )
    return parser.parse_args(argv)


def _events_main(argv) -> int:
    args = _parse_events_args(argv)
    if args.tail is not None and args.tail < 1:
        print("error: --tail must be >= 1", file=sys.stderr)
        return 2
    try:
        # A torn final line (writer killed mid-append) is the expected
        # artifact of a crash; warn and show the rest of the log.
        events = observe.load_event_log(
            args.log,
            on_warning=lambda msg: print(f"warning: {msg}", file=sys.stderr),
        )
    except OSError as exc:
        print(f"error: cannot read event log {args.log}: {exc}",
              file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not events:
        print(f"(event log {args.log} is empty)")
        return 0
    t0 = float(events[0]["t_wall"])
    min_rank = rank_severity(args.severity) if args.severity else 0
    selected = []
    for event in events:
        if rank_severity(str(event["severity"])) < min_rank:
            continue
        category = str(event["category"])
        if args.category is not None and category != args.category \
                and not category.startswith(args.category + "."):
            continue
        if args.worker is not None and event["worker"] != args.worker:
            continue
        offset = float(event["t_wall"]) - t0
        if args.since is not None and offset < args.since:
            continue
        if args.until is not None and offset > args.until:
            continue
        selected.append((offset, event))
    if args.tail is not None:
        selected = selected[-args.tail:]
    if args.json:
        for _, event in selected:
            print(json.dumps(event, sort_keys=True))
        return 0
    run_ids = sorted({str(event["run_id"]) for _, event in selected})
    lines = [
        f"{len(selected)} of {len(events)} event(s) from {args.log} "
        f"(run {', '.join(run_ids) if run_ids else '-'})",
    ]
    for offset, event in selected:
        payload = " ".join(
            f"{key}={value}" for key, value in sorted(event["data"].items())
        )
        worker = str(event["worker"]) or "-"
        lines.append(
            f"  {offset:9.3f}s {event['severity']:<7} {worker:<8} "
            f"{event['category']:<20} {payload}"
        )
    print("\n".join(lines))
    return 0


def _parse_store_args(argv):
    parser = argparse.ArgumentParser(
        prog="repro-experiments store",
        description="Maintain the content-addressed result store "
        "(.repro_cache).  'verify' audits every entry against its "
        "embedded content digest (or container checksums) and exits 1 "
        "if any entry is corrupt; 'gc' removes orphaned temp files and "
        "corrupt entries.  Subdirectories are left alone.",
    )
    parser.add_argument("action", choices=("verify", "gc"),
                        help="what to do")
    parser.add_argument(
        "--cache-dir", default=".repro_cache",
        help="store root to audit (default %(default)s)",
    )
    parser.add_argument(
        "--dry-run", action="store_true",
        help="(gc) report what would be removed without removing it",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the machine-readable report instead of text",
    )
    return parser.parse_args(argv)


def _store_main(argv) -> int:
    args = _parse_store_args(argv)
    from repro.experiments.store import (
        STATUS_CORRUPT,
        STATUS_NPZ,
        STATUS_OTHER,
        STATUS_SIM,
        STATUS_TMP,
        ResultStore,
    )

    store = ResultStore(Path(args.cache_dir))
    if args.action == "verify":
        report = store.verify()
        if args.json:
            print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        else:
            print(
                f"store verify: {len(report.entries)} entr(ies) under "
                f"{args.cache_dir} — "
                f"{report.count(STATUS_SIM)} sim, "
                f"{report.count(STATUS_NPZ)} trace, "
                f"{report.count(STATUS_TMP)} temp, "
                f"{report.count(STATUS_OTHER)} other, "
                f"{report.count(STATUS_CORRUPT)} corrupt"
            )
            for entry in report.corrupt:
                print(f"  corrupt: {entry.name} ({entry.detail})")
        return 1 if report.corrupt else 0
    result = store.gc(dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        print(f"store gc: {verb} {len(result['removed'])} entr(ies) "
              f"under {args.cache_dir}")
        for name in result["removed"]:
            print(f"  {name}")
    return 0


def _render_failures(failures: List[FailureRecord]) -> str:
    """The explicit-gap section appended to a ``--keep-going`` report."""
    lines = [
        "PARTIAL RESULTS",
        "-" * 72,
        f"{len(failures)} program(s) produced no data; the tables above "
        "render without them:",
        "",
    ]
    for record in failures:
        lines.append(
            f"  {record.program:<8s} {record.error:<22s} "
            f"attempts={record.attempts}  elapsed={record.elapsed_s:.1f}s"
        )
        lines.append(f"  {'':<8s} {record.message}")
    return "\n".join(lines)


def _install_signal_handlers():
    """Route SIGINT/SIGTERM into :class:`ShutdownRequested`.

    Only possible (and only meaningful) in the main thread of the main
    interpreter; elsewhere — or on platforms without these signals —
    this is a no-op and the default dispositions stay.  Returns the
    previous handlers for :func:`_restore_signal_handlers`.
    """
    import signal
    import threading

    if threading.current_thread() is not threading.main_thread():
        return None

    def handler(signum, frame):
        raise ShutdownRequested(signum)

    previous = {}
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[signum] = signal.signal(signum, handler)
        except (ValueError, OSError):  # pragma: no cover - odd platform
            pass
    return previous


def _restore_signal_handlers(previous) -> None:
    import signal

    for signum, old in (previous or {}).items():
        try:
            signal.signal(signum, old)
        except (ValueError, OSError):  # pragma: no cover - odd platform
            pass


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code (see ``--help``)."""
    argv = list(argv if argv is not None else sys.argv[1:])
    if argv and argv[0] == "show":
        return _show_main(argv[1:])
    if argv and argv[0] == "diff":
        return _diff_main(argv[1:])
    if argv and argv[0] == "events":
        return _events_main(argv[1:])
    if argv and argv[0] == "store":
        return _store_main(argv[1:])
    args = _parse_args(argv)
    scale = args.scale
    if scale not in ("full", "smoke"):
        scale = int(scale)
    try:
        config = ExperimentConfig(
            programs=tuple(args.programs),
            scale=scale,
            cache_dir=Path(args.cache_dir),
            use_cache=not args.no_cache,
            jobs=args.jobs,
            engine=args.engine,
        )
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.retries < 0:
        print("error: --retries must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    if args.worker_timeout is not None and args.worker_timeout <= 0:
        print("error: --worker-timeout must be > 0 seconds", file=sys.stderr)
        return EXIT_USAGE

    env_before = None
    if args.inject_faults:
        try:
            faults.install(args.inject_faults, seed=args.fault_seed, scope="cli")
        except FaultSpecError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        # Export the plan so spawned worker processes inherit it (the
        # pool also re-installs per task with program scope + attempt).
        env_before = {
            key: os.environ.get(key)
            for key in ("REPRO_FAULTS", "REPRO_FAULT_SEED")
        }
        os.environ["REPRO_FAULTS"] = args.inject_faults
        os.environ["REPRO_FAULT_SEED"] = str(args.fault_seed)
    previous_handlers = _install_signal_handlers()
    observation_before = _observation_state()
    try:
        try:
            code = _run(args, config)
        except ShutdownRequested as exc:
            # Graceful shutdown: the scheduler's finally released the
            # pool on the way out; exit with the conventional 128+signum
            # code, the event log's last line saying why.
            code = 128 + exc.signum
            observe.emit_event("run.interrupted", "WARNING",
                               signal=exc.signum, code=code)
            print(f"interrupted: {exc}; exiting {code}", file=sys.stderr)
            _point_at_event_log(args)
            return code
        except BaseException as exc:
            # Even an unclassified crash ends the event log with a line
            # naming it before the traceback propagates.
            observe.emit_event("run.aborted", "ERROR",
                               error=type(exc).__name__)
            raise
        observe.emit_event("run.done", "INFO" if code == EXIT_OK else "WARNING",
                           code=code)
        if code != EXIT_OK:
            _point_at_event_log(args)
        return code
    finally:
        _restore_signal_handlers(previous_handlers)
        _restore_observation_state(observation_before)
        if env_before is not None:
            faults.clear_plan()
            for key, value in env_before.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value


def _observation_state():
    """Which observation layers are on, for :func:`_restore_observation_state`."""
    stride = observe.get_profiler().cpu_stride if observe.is_profiling() else 0
    return observe.is_enabled(), observe.events_enabled(), stride


def _restore_observation_state(state) -> None:
    """Turn off what an observed run turned on, so a later run in the
    same process does not record into this run's registry and events."""
    enabled, events_on, stride = state
    if not enabled:
        observe.disable()
    if not events_on:
        observe.disable_events()
    if stride:
        observe.enable_profiling(stride)
    else:
        observe.disable_profiling()


def _run(args, config: ExperimentConfig) -> int:
    """Execute one experiment target; classified errors exit cleanly."""
    progress = None if args.quiet else lambda msg: print(f"  .. {msg}", file=sys.stderr)
    if args.manifest:
        # Fresh registry, span stacks, and events per invocation so one
        # manifest and its log describe exactly one run even when the
        # CLI is driven twice in the same process (tests, notebooks).
        observe.reset()
        observe.enable()
        observe.enable_events(sink_path=_event_log_path(args.manifest))
        observe.emit_event(
            "run.start", target=args.target, jobs=config.jobs,
            programs=",".join(config.programs),
            faults=args.inject_faults or "",
        )
    if args.profile:
        observe.enable_profiling(observe.DEFAULT_SAMPLE_STRIDE)

    return _execute(args, config, progress)


def _execute(args, config: ExperimentConfig, progress) -> int:
    """The pipeline + report + manifest body of one run."""
    needs_data = args.target not in ("table2", "expansion")
    failures: List[FailureRecord] = []
    data = None
    if needs_data or args.target == "all":
        start = time.time()
        try:
            with observe.span("pipeline"):
                data = load_experiment_data(
                    config, progress,
                    retries=args.retries,
                    worker_timeout=args.worker_timeout,
                    keep_going=args.keep_going,
                    failures=failures,
                )
        except Exception as exc:
            # Classified failures exit with a stable code and one line on
            # stderr — a crashed batch run must be diagnosable from its
            # exit status, not a raw traceback.  Unclassified exceptions
            # are bugs and propagate.
            code = _exit_code_for(exc)
            if code is None:
                raise
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return code
        if progress:
            progress(f"pipeline ready in {time.time() - start:.1f}s")

    sections = []
    with observe.span("model"):
        if args.target in ("table1", "all"):
            sections.append(render_table1_report(data))
        if args.target in ("table2", "all"):
            sections.append(render_table2_report())
        if args.target in ("table3", "all"):
            sections.append(render_table3_report(data))
        if args.target in ("table4", "all"):
            sections.append(render_table4_report(data))
        if args.target in ("figures", "all"):
            sections.append(render_figures_report(data))
        if args.target in ("breakdown", "all"):
            sections.append(render_breakdown_report(data))
        if args.target in ("expansion", "all"):
            sections.append(render_code_expansion_report(data))
        if args.target in ("hotspots", "all"):
            sections.append(render_hotspots_report(data))
        if args.target in ("whatif", "all"):
            sections.append(render_whatif_report(data))

    if failures:
        sections.append(_render_failures(failures))
    report = ("\n\n" + "=" * 72 + "\n\n").join(sections)
    print(report)
    if args.out:
        Path(args.out).write_text(report + "\n", encoding="utf-8")
        print(f"\n[report written to {args.out}]", file=sys.stderr)

    if args.manifest:
        manifest = observe.RunManifest.from_registry(
            target=args.target,
            config={
                "programs": list(config.programs),
                "scale": config.scale,
                "page_sizes": list(config.page_sizes),
                "cache_dir": str(config.cache_dir),
                "use_cache": config.use_cache,
                "jobs": config.jobs,
                "engine": config.engine,
                "retries": args.retries,
                "worker_timeout": args.worker_timeout,
                "keep_going": args.keep_going,
                "inject_faults": args.inject_faults,
                "fault_seed": args.fault_seed,
            },
            failures=[record.to_dict() for record in failures],
        )
        try:
            manifest.write(args.manifest)
        except OSError as exc:
            print(f"error: cannot write manifest {args.manifest}: {exc}",
                  file=sys.stderr)
            return 1
        print(f"[manifest written to {args.manifest}]", file=sys.stderr)
    if failures:
        print(
            f"warning: {len(failures)} program(s) failed; exiting "
            f"{EXIT_PARTIAL} (partial results)", file=sys.stderr,
        )
        return EXIT_PARTIAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
