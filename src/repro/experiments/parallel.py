"""The experiment scheduler: one loop for every ``--jobs`` value.

The two-phase experiment is embarrassingly parallel across programs:
each program's trace generation and one-pass simulation depend only on
that program's workload source, and the on-disk cache is safe for
concurrent writers (atomic write-then-rename everywhere).  This module
schedules :func:`~repro.experiments.pipeline.load_program_data`, one
task per program, on one of two executors:

* a :class:`~concurrent.futures.ProcessPoolExecutor` when ``jobs > 1``;
* :class:`_InProcessExecutor` for ``jobs == 1``, and for the programs
  still left after the pool broke more than
  :data:`MAX_POOL_RECREATIONS` times.  It runs each task synchronously
  in the parent.

The loop never has more than ``jobs`` tasks submitted (one on the
in-process executor), so a task starts running when it is dispatched,
and a fatal failure under ``--jobs 1`` aborts before the next program
starts.  One policy covers both executors:

* a **transient failure** (:func:`repro.faults.classify_failure`: a
  crashed worker's ``BrokenProcessPool``, a watchdog timeout, an
  ``OSError``, an injected fault) is retried with capped exponential
  backoff.  A broken pool is recreated and its innocent in-flight
  tasks are resubmitted without an attempt penalty;
* a **hung worker** is bounded by the ``worker_timeout`` watchdog
  (pool only).  The deadline starts at dispatch; on expiry the pool is
  killed and the overdue program is retried;
* a **fatal error** (:class:`~repro.errors.ReproError` — bad config,
  malformed session, injected ``worker:fatal``) is never retried: the
  run either aborts immediately — cancelling queued work and killing
  live workers so the abort does not burn CPU — or, under
  ``keep_going``, records the program in its ``failures`` list and
  completes with the survivors.

Every recovery action is visible through :mod:`repro.observe`:
``retry.attempts``/``retry.backoff_seconds``, ``fault.worker.hung``,
``fault.pool.{broken,recreated,serial_fallback}``,
``fault.program.failed``, and a ``failures`` note list — the raw
material of the manifest's ``failures`` section.  See
``docs/RESILIENCE.md``.

Observation survives the fan-out: each pool worker ships a
:func:`repro.observe.dump_snapshot` payload back and the parent merges
it under a clock-rebased ``worker:<name>`` span, so ``--manifest``
and ``--profile`` record the same for every ``--jobs`` value.  The
pool alone adds ``worker:<name>`` and ``worker_attempt:<name>`` spans,
the ``pipeline.jobs`` gauge and the ``worker.*``/``pool.*``
flight-recorder events; workers record under
the parent's ``run_id`` so one id correlates the whole run
(:mod:`repro.observe.events`).

Results are deterministic: tasks are pure functions of (program,
config), so every ``--jobs`` value produces bit-identical tables
regardless of completion order, retries, or recovered faults (the
returned dict preserves the configured program order).
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro import faults, observe
from repro.errors import WorkerTimeoutError
from repro.experiments.pipeline import (
    DEFAULT_RETRIES,
    ExperimentConfig,
    FailureRecord,
    Progress,
    ProgramData,
    load_program_data,
    retry_backoff_s,
)
from repro.observe.spans import SpanRecord

__all__ = ["schedule_programs"]

#: After this many pool recreations the scheduler stops trusting the
#: pool and runs the remaining programs on the in-process executor.
MAX_POOL_RECREATIONS = 2

def _run_worker(
    name: str,
    config: ExperimentConfig,
    observing: bool,
    profile_stride: int,
    fault_spec: Optional[str],
    fault_seed: int,
    attempt: int,
    events_on: bool = False,
    run_id: str = "",
):
    """Pool target: one program's phase 1 + phase 2 in a fresh process.

    Must stay a module-level function (the pool pickles it by reference).
    Returns ``(program data, worker clock origin, observation snapshot)``;
    the origin lets the parent rebase the worker's ``perf_counter`` span
    timestamps into its own timeline.  ``attempt`` is 1-based: fault-plan
    clauses default to firing on attempt 1 only, so a retried worker
    recovers deterministically.  With ``events_on`` the worker records
    flight-recorder events under the parent's ``run_id`` (no sink of its
    own); they ride home inside the snapshot.
    """
    origin = time.perf_counter()
    # Start from a clean slate whatever the start method: a forked child
    # inherits the parent's registry (merging it back would double-count)
    # and a spawned child inherits nothing (observation would be off).
    observe.reset()
    if observing:
        observe.enable()
    else:
        observe.disable()
    if events_on:
        observe.enable_events(run_id=run_id, worker=name)
        observe.emit_event("worker.start", program=name, attempt=attempt)
    else:
        observe.disable_events()
    if profile_stride:
        observe.enable_profiling(profile_stride)
    else:
        observe.disable_profiling()
    # Same clean-slate rule for fault plans: reinstall per task so the
    # plan's occurrence counters and attempt number are this task's, not
    # a forked parent's or a previous task's on a reused pool process.
    if fault_spec:
        faults.install(fault_spec, seed=fault_seed, scope=name, attempt=attempt)
    else:
        faults.clear_plan()
    # Workers run quiet: interleaved per-event progress from N processes
    # is noise; the parent reports dispatch/completion per program.
    faults.faultpoint("worker.start", program=name)
    data = load_program_data(name, config)
    faults.faultpoint("worker.mid", program=name)
    snapshot = observe.dump_snapshot() if (observing or events_on) else None
    return data, origin, snapshot


def _graft_worker(
    name: str,
    snapshot: Dict[str, object],
    origin_s: float,
    submit_s: float,
    done_s: float,
    parent_path: Optional[str],
) -> None:
    """Merge one worker's snapshot under a ``worker:<name>`` span."""
    worker_name = f"worker:{name}"
    path = f"{parent_path}/{worker_name}" if parent_path else worker_name
    # The worker's clock origin was read at task start; mapping it onto
    # the parent's submit time lines both timelines up to within the
    # pool's dispatch latency.
    observe.merge_snapshot(
        snapshot,
        under=path,
        clock_offset=submit_s - origin_s,
        attrs={"worker": name},
    )
    registry = observe.get_registry()
    duration = done_s - submit_s
    registry.add_span(SpanRecord(
        name=worker_name,
        path=path,
        parent=parent_path or "",
        start_s=submit_s,
        duration_s=duration,
        attrs={"program": name},
    ))
    registry.observe_value(f"span.{worker_name}.seconds", duration)


@dataclass
class _Task:
    """Parent-side scheduling state for one program."""

    name: str
    attempts: int = 0        #: attempts that have ended (in failure)
    not_before: float = 0.0  #: backoff gate on the parent's clock
    started: float = 0.0     #: first dispatch time (for elapsed accounting)
    dispatched: float = 0.0  #: this attempt's dispatch time (watchdog start)


class _InProcessExecutor:
    """Executor that runs each submitted call synchronously in the parent.

    ``submit`` returns an already finished future.  An ``Exception`` is
    stored in it, as a pool worker's would be; a ``BaseException``
    (``ShutdownRequested`` from SIGINT/SIGTERM, ``SystemExit``) is not
    caught and unwinds straight through the scheduler.
    """

    def submit(self, fn, *args) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        pass


#: Bound on waiting for a killed pool's manager thread to reap its workers.
_POOL_REAP_SECONDS = 10.0


def _kill_pool(pool) -> None:
    """Tear an executor down *now*: cancel queued work, kill live workers.

    Used on abort (so a failed run doesn't keep burning CPU on the other
    programs for minutes), on watchdog expiry (a hung worker never
    returns on its own), and after ``BrokenProcessPool`` (the executor
    is unusable anyway).  ``shutdown(wait=False, cancel_futures=True)``
    alone is not enough: a live worker would finish its current task —
    or sleep in an injected hang forever — and the interpreter would
    join it at exit, so the processes are killed outright.  The process
    list and the executor's manager thread are read before the first
    ``shutdown``, which drops both.  That thread reaps the dead workers
    (``waitpid``), so it is joined before returning: a caller that
    checks or joins a worker while the thread still reaps it can lose
    the exit status to it and see the dead worker as alive.
    """
    if pool is None:
        return
    processes = list((getattr(pool, "_processes", None) or {}).values())
    manager = getattr(pool, "_executor_manager_thread", None)
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass
    for proc in processes:
        try:
            proc.kill()
        except Exception:
            pass
    if manager is not None:
        manager.join(timeout=_POOL_REAP_SECONDS)


def schedule_programs(
    config: ExperimentConfig,
    progress: Progress = None,
    *,
    retries: int = DEFAULT_RETRIES,
    worker_timeout: Optional[float] = None,
    keep_going: bool = False,
    failures: Optional[List[FailureRecord]] = None,
) -> Dict[str, ProgramData]:
    """Phase 1 + phase 2 for every configured program.

    ``config.jobs`` is clamped to the number of programs (extra workers
    would sit idle); one job means the in-process executor.  See the
    module docstring for the retry/timeout/keep-going policy, and
    :func:`~repro.experiments.pipeline.load_experiment_data` (the entry
    point) for the arguments.
    """
    names = list(config.programs)
    jobs = max(1, min(config.jobs, len(names)))
    pooled = jobs > 1
    if pooled:
        observe.set_gauge("pipeline.jobs", jobs)

    observing = observe.is_enabled()
    events_on = observe.events_enabled()
    run_id = observe.current_run_id() if events_on else ""
    profile_stride = (
        observe.get_profiler().engine_stride if observe.is_profiling() else 0
    )
    parent_path = observe.current_span_path() if observing else None
    plan = faults.active_plan()
    fault_spec = plan.spec if plan is not None else None
    fault_seed = plan.seed if plan is not None else 0

    max_attempts = max(1, retries + 1)
    pending: List[_Task] = [_Task(name) for name in names]
    running: Dict[Future, _Task] = {}
    data: Dict[str, ProgramData] = {}
    executor = None
    recreations = 0

    def record_attempt_span(task: _Task, error: str) -> None:
        if not (observing and pooled):
            return
        attempt_name = f"worker_attempt:{task.name}"
        path = f"{parent_path}/{attempt_name}" if parent_path else attempt_name
        observe.get_registry().add_span(SpanRecord(
            name=attempt_name, path=path, parent=parent_path or "",
            start_s=task.dispatched,
            duration_s=time.perf_counter() - task.dispatched,
            error=True,
            attrs={"program": task.name, "attempt": str(task.attempts + 1),
                   "error": error},
        ))

    def fail_task(task: _Task, exc: BaseException) -> None:
        """Final failure for one program: record, and abort unless
        keeping going (the abort cancels queued work and kills live
        workers so it doesn't burn CPU on results nobody will see)."""
        nonlocal executor
        elapsed = time.perf_counter() - task.started if task.started else 0.0
        record = FailureRecord(
            program=task.name, error=type(exc).__name__, message=str(exc),
            attempts=max(1, task.attempts), elapsed_s=elapsed,
        )
        observe.inc("fault.program.failed")
        observe.note(
            "failures",
            f"{record.program}: {record.error} after {record.attempts} "
            f"attempt(s): {record.message}",
        )
        observe.emit_event(
            "program.failed", "ERROR", program=task.name, error=record.error,
            attempts=record.attempts, kept_going=keep_going,
        )
        if keep_going:
            if failures is not None:
                failures.append(record)
            if progress:
                progress(
                    f"[{task.name}] FAILED ({record.error}) after "
                    f"{record.attempts} attempt(s); continuing without it "
                    f"(--keep-going)"
                )
            return
        if progress:
            progress(
                f"[{task.name}] fatal {record.error}; aborting and "
                f"cancelling the remaining programs"
            )
        _kill_pool(executor)
        executor = None
        running.clear()
        raise exc

    def handle_failure(task: _Task, exc: BaseException) -> None:
        """One attempt ended in ``exc``: retry with backoff or fail."""
        record_attempt_span(task, type(exc).__name__)
        task.attempts += 1
        transient = faults.classify_failure(exc) == "transient"
        if not transient or task.attempts >= max_attempts:
            fail_task(task, exc)
            return
        delay = retry_backoff_s(task.attempts)
        observe.inc("retry.attempts")
        observe.observe_value("retry.backoff_seconds", delay)
        observe.emit_event(
            "program.retry", "WARNING", program=task.name,
            attempt=task.attempts, max_attempts=max_attempts,
            backoff_s=delay, error=type(exc).__name__,
        )
        if progress:
            progress(
                f"[{task.name}] {type(exc).__name__}: {exc}; retrying in "
                f"{delay:.2f}s (attempt {task.attempts + 1}/{max_attempts})"
            )
        task.not_before = time.perf_counter() + delay
        pending.append(task)

    def dispatch(task: _Task) -> None:
        """Start one attempt of ``task`` (on the in-process executor,
        run it to completion)."""
        nonlocal executor
        attempt = task.attempts + 1
        task.dispatched = time.perf_counter()
        if not task.started:
            task.started = task.dispatched
        if executor is None:
            executor = (ProcessPoolExecutor(max_workers=jobs) if pooled
                        else _InProcessExecutor())
        if not pooled:
            running[executor.submit(
                load_program_data, task.name, config, progress
            )] = task
            return
        running[executor.submit(
            _run_worker, task.name, config, observing, profile_stride,
            fault_spec, fault_seed, attempt, events_on, run_id,
        )] = task
        observe.emit_event("worker.dispatch", program=task.name,
                           attempt=attempt, jobs=jobs)
        if progress:
            suffix = f", attempt {attempt}" if attempt > 1 else ""
            progress(
                f"[{task.name}] dispatched to worker pool "
                f"(jobs={jobs}{suffix})"
            )

    def finish(task: _Task, outcome) -> None:
        """Keep one successful attempt's result (and graft its worker)."""
        if not pooled:
            data[task.name] = outcome
            return
        program_data, origin_s, snapshot = outcome
        done_s = time.perf_counter()
        started = task.dispatched
        data[task.name] = program_data
        if progress:
            progress(
                f"[{task.name}] worker finished in {done_s - started:.1f}s"
            )
        if snapshot is not None:
            if observing:
                _graft_worker(
                    task.name, snapshot, origin_s, started, done_s,
                    parent_path,
                )
            else:
                # Events-only run: no spans/metrics to graft, but the
                # worker's recorder entries still come home.
                observe.merge_events_state(
                    snapshot.get("events"),
                    clock_offset=started - origin_s,
                    worker=task.name,
                )
        observe.emit_event("worker.done", program=task.name,
                           elapsed_s=round(done_s - started, 6))

    try:
        while pending or running:
            # Dispatch in order into the free slots of the window: at
            # most `jobs` tasks in flight, one on the in-process executor.
            now = time.perf_counter()
            window = jobs if pooled else 1
            queue, pending = pending, []
            for task in queue:
                if len(running) >= window or task.not_before > now:
                    pending.append(task)
                    continue
                dispatch(task)

            if not running:
                # Everything is backing off; sleep to the earliest gate.
                if pending:
                    delay = min(task.not_before for task in pending) \
                        - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                continue

            # Sleep until a worker finishes, the watchdog must fire, or a
            # backoff gate opens — whichever comes first.
            watchdog = worker_timeout if pooled else None
            deadlines = [task.not_before for task in pending]
            if watchdog:
                deadlines.extend(
                    task.dispatched + watchdog for task in running.values()
                )
            timeout = None
            if deadlines:
                timeout = max(0.02, min(deadlines) - time.perf_counter())
            done, _ = wait(set(running), timeout=timeout,
                           return_when=FIRST_COMPLETED)

            broke = False
            for future in done:
                task = running.pop(future)
                try:
                    outcome = future.result()
                except BrokenProcessPool as exc:
                    broke = True
                    observe.inc("fault.pool.broken")
                    observe.emit_event("pool.broken", "WARNING",
                                       program=task.name)
                    handle_failure(task, exc)
                    continue
                except Exception as exc:
                    handle_failure(task, exc)
                    continue
                finish(task, outcome)

            if watchdog:
                now = time.perf_counter()
                overdue = [
                    future for future, task in running.items()
                    if now - task.dispatched > watchdog
                ]
                for future in overdue:
                    broke = True
                    task = running.pop(future)
                    observe.inc("fault.worker.hung")
                    observe.emit_event(
                        "worker.hung", "WARNING", program=task.name,
                        timeout_s=watchdog,
                    )
                    if progress:
                        progress(
                            f"[{task.name}] worker exceeded "
                            f"--worker-timeout {watchdog:g}s; killing it"
                        )
                    handle_failure(task, WorkerTimeoutError(
                        f"worker for {task.name!r} exceeded --worker-timeout "
                        f"{watchdog:g}s"
                    ))

            if broke:
                # The pool is unusable (a worker died or was killed for
                # hanging): resubmit the innocent in-flight tasks without
                # an attempt penalty and recreate the pool — unless it
                # keeps breaking, in which case stop trusting it.
                for task in running.values():
                    task.not_before = 0.0
                    pending.append(task)
                running.clear()
                _kill_pool(executor)
                executor = None
                recreations += 1
                observe.inc("fault.pool.recreated")
                observe.emit_event("pool.recreated", "WARNING",
                                   recreations=recreations)
                if recreations > MAX_POOL_RECREATIONS:
                    pooled = False
                    observe.inc("fault.pool.serial_fallback")
                    observe.emit_event(
                        "pool.serial_fallback", "WARNING",
                        recreations=recreations,
                        remaining=",".join(task.name for task in pending),
                    )
                    if progress:
                        progress(
                            f"worker pool broke {recreations} times; falling "
                            f"back to in-process execution for the "
                            f"remaining programs"
                        )
    finally:
        if running:
            # Abnormal exit with workers still live (an unexpected error
            # escaped the scheduler): don't leave orphans burning CPU.
            _kill_pool(executor)
        elif executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    # Completion order is nondeterministic; hand back configured order.
    return {name: data[name] for name in names if name in data}
