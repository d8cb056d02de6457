"""Faultpoint hooks: where plans meet the pipeline, plus failure classes.

A :func:`faultpoint` is a named hook threaded through the pipeline's
recovery-relevant paths (cache read/write, trace save/load, worker
startup and mid-run).  With no plan installed it is a single global
``None`` check — cheap enough to leave in place permanently, mirroring
the disabled path of :mod:`repro.observe`.  With a plan installed
(:func:`install`, the CLI's ``--inject-faults``, or the ``REPRO_FAULTS``
environment variable) each hit is evaluated against the plan and, when a
clause fires, one of five behaviours triggers:

``corrupt``
    raise :class:`InjectedCorruption` — the cache layers treat it like a
    torn entry and recompute;
``oserror``
    raise :class:`InjectedOSError` (an ``OSError``) — write paths
    degrade to cache-less operation, worker-level hits are retried;
``fatal``
    raise :class:`~repro.errors.PipelineError` — never retried, the
    run fails (or records the program under ``--keep-going``);
``crash``
    SIGKILL the current process — the parent sees
    ``BrokenProcessPool`` and retries on a recreated pool;
``hang``
    sleep for ``REPRO_FAULT_HANG_S`` seconds (default 3600) — only the
    parent's ``--worker-timeout`` watchdog gets the worker unstuck;
``sigint`` / ``sigterm``
    deliver the real signal to the current process — exercising the
    CLI's graceful-shutdown path (emit ``run.interrupted``, dump the
    black box, exit ``128 + signum``) at a deterministic instant.

:func:`classify_failure` is the single source of truth for the retry
policy: transient failures (worker death, I/O errors, injected faults,
watchdog timeouts) are retried with capped exponential backoff; fatal
ones (:class:`~repro.errors.ReproError` and unexpected bugs) are not.
"""

from __future__ import annotations

import errno
import os
import signal
import time
from typing import Mapping, Optional

from concurrent.futures.process import BrokenProcessPool

from repro import observe
from repro.errors import PipelineError, ReproError, WorkerTimeoutError
from repro.faults.plan import FaultClause, FaultPlan

#: Injected hangs sleep this long unless the env var overrides it; the
#: watchdog is expected to kill the worker long before it elapses.
DEFAULT_HANG_SECONDS = 3600.0


class InjectedFault(Exception):
    """Marker base for exceptions raised by fault injection.

    Deliberately *not* a :class:`~repro.errors.ReproError`: injected
    faults model external failures (torn files, flaky disks), so the
    recovery machinery must treat them like the real thing, and the
    retry classifier counts them as transient.
    """


class InjectedCorruption(InjectedFault):
    """A cache/trace read came back corrupt (injected)."""


class InjectedOSError(OSError, InjectedFault):
    """An I/O operation failed with an OS error (injected)."""


_PLAN: Optional[FaultPlan] = None


def faultpoint(name: str, program: Optional[str] = None, **ctx: object) -> None:
    """Evaluate the installed fault plan at site ``name``.

    No-op (one global check) when no plan is installed.  ``program`` is
    the matching context for ``@name`` qualifiers; extra ``ctx`` kwargs
    are carried into the injection note for diagnosis.
    """
    plan = _PLAN
    if plan is None:
        return
    clause = plan.hit(name, program)
    if clause is not None:
        _trigger(clause, name, program, ctx)


def is_active() -> bool:
    """Whether a fault plan is currently installed in this process."""
    return _PLAN is not None


def active_plan() -> Optional[FaultPlan]:
    """The installed plan, if any."""
    return _PLAN


def install_plan(plan: FaultPlan) -> FaultPlan:
    """Install ``plan`` (replacing any previous one) and return it."""
    global _PLAN
    _PLAN = plan
    observe.emit_event(
        "fault.armed", spec=plan.spec, seed=plan.seed,
        scope=plan.scope, attempt=plan.attempt,
    )
    return plan


def install(
    spec: str, seed: int = 0, scope: str = "", attempt: int = 1
) -> FaultPlan:
    """Parse ``spec`` and install the resulting plan for this process."""
    return install_plan(FaultPlan(spec, seed=seed, scope=scope, attempt=attempt))


def clear_plan() -> None:
    """Remove the installed plan; faultpoints go back to no-ops."""
    global _PLAN
    _PLAN = None


def install_from_env(environ: Optional[Mapping[str, str]] = None) -> Optional[FaultPlan]:
    """Install a plan from ``REPRO_FAULTS`` / ``REPRO_FAULT_SEED`` if set.

    Called at import time so spawned worker processes (which re-import
    everything) inherit the parent's plan; the pool additionally
    re-installs per task with the program scope and attempt number.
    """
    env = os.environ if environ is None else environ
    spec = env.get("REPRO_FAULTS", "").strip()
    if not spec:
        return None
    try:
        seed = int(env.get("REPRO_FAULT_SEED", "0") or 0)
    except ValueError:
        seed = 0
    return install(spec, seed=seed, scope=env.get("REPRO_FAULT_SCOPE", ""))


def classify_failure(exc: BaseException) -> str:
    """``"transient"`` (retry with backoff) or ``"fatal"`` (never retry).

    Transient: a worker process died (``BrokenProcessPool``), the
    watchdog timed it out (:class:`~repro.errors.WorkerTimeoutError`),
    an OS-level I/O failure, or any injected fault.  Fatal: every other
    :class:`~repro.errors.ReproError` (bad configs, malformed sessions —
    retrying cannot help) and unexpected exceptions (bugs; retrying
    would just repeat them).
    """
    if isinstance(exc, WorkerTimeoutError):
        return "transient"
    if isinstance(exc, ReproError):
        return "fatal"
    if isinstance(exc, (BrokenProcessPool, OSError, InjectedFault)):
        return "transient"
    return "fatal"


def _trigger(
    clause: FaultClause, site: str, program: Optional[str],
    ctx: Mapping[str, object],
) -> None:
    label = f"{site}:{clause.action}" + (f"@{program}" if program else "")
    observe.inc(f"fault.injected.{clause.site}.{clause.action}")
    observe.note("fault.injected", label)
    # Emitted *before* the action fires: a crash-injected worker never
    # returns, but the ring entry still ships if the snapshot survives.
    observe.emit_event(
        "fault.triggered", "WARNING", site=site, action=clause.action,
        program=program or "", **ctx,
    )
    if clause.action == "corrupt":
        raise InjectedCorruption(f"injected corruption at {label}")
    if clause.action == "oserror":
        raise InjectedOSError(errno.EIO, f"injected I/O error at {label}")
    if clause.action == "fatal":
        raise PipelineError(f"injected fatal fault at {label}")
    if clause.action == "crash":
        os.kill(os.getpid(), signal.SIGKILL)
        return  # pragma: no cover - unreachable
    if clause.action == "sigint":
        # Delivered synchronously: the handler (or default KeyboardInterrupt
        # machinery) runs before this faultpoint returns.
        os.kill(os.getpid(), signal.SIGINT)
        return
    if clause.action == "sigterm":
        os.kill(os.getpid(), signal.SIGTERM)
        return
    if clause.action == "hang":  # pragma: no branch
        seconds = float(
            os.environ.get("REPRO_FAULT_HANG_S", "") or DEFAULT_HANG_SECONDS
        )
        deadline = time.monotonic() + seconds
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            time.sleep(min(1.0, remaining))
