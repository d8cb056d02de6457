"""Structural diffing of two run manifests.

The ROADMAP asks every optimization PR to attach before/after
:class:`~repro.observe.manifest.RunManifest` JSONs; this module is what
turns that pair of files into a verdict.  :func:`diff_manifests` walks
three metric families with per-family thresholds
(:class:`DiffThresholds`):

* **stage timings** — the ``stages`` rollup (program -> stage ->
  seconds).  A stage regresses when it slowed down by more than the
  relative threshold *and* more than the absolute floor (so a 2ms blip
  on a 5ms stage can't fail a gate);
* **engine throughput** — the mean of the ``engine.events_per_sec``
  histogram; lower is worse;
* **cache hit rates** — ``hits / (hits + misses)`` per cache kind; a
  drop past the absolute threshold regresses.

Counters that changed a lot (default ≥50%) are reported as ``drift`` —
informational, never failing — because a big swing in e.g.
``engine.events`` usually means the two runs measured different
workloads, which is the first thing a reader should know about a
suspicious diff.  Environment fingerprint changes are surfaced the same
way — and when the fingerprints differ at all, every perf regression is
downgraded to a non-gating ``warning`` (a diff across two hosts or
toolchains can't convict the code change).

:func:`render_diff_report` renders the human report;
:meth:`ManifestDiff.to_dict` is the machine-readable verdict the CLI can
dump as JSON.  The CLI front end is ``repro-experiments diff A.json
B.json`` (see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.observe.manifest import RunManifest

#: Diff entry statuses, in severity order.
STATUS_REGRESSION = "regression"
#: A would-be regression measured across two different environments:
#: surfaced loudly but never failing, because the host changed too.
STATUS_WARNING = "warning"
STATUS_IMPROVEMENT = "improvement"
STATUS_OK = "ok"
STATUS_ADDED = "added"
STATUS_REMOVED = "removed"
STATUS_DRIFT = "drift"


@dataclass(frozen=True)
class DiffThresholds:
    """Per-family sensitivity of the regression verdict.

    Relative thresholds are fractions (``0.25`` = 25%); absolute ones
    are in the metric's own unit and act as noise floors, so tiny
    absolute movements never trip a relative threshold.
    """

    #: A stage regresses past ``before * (1 + stage_rel)`` ...
    stage_rel: float = 0.25
    #: ... and only if it also slowed by at least this many seconds.
    stage_abs_s: float = 0.005
    #: Engine events/sec regresses below ``before * (1 - eps_rel)``.
    eps_rel: float = 0.25
    #: Cache hit rate regresses when it drops by more than this (absolute).
    cache_hit_rate_abs: float = 0.10
    #: Counters that moved by more than this fraction are noted as drift.
    counter_drift_rel: float = 0.50

    def to_dict(self) -> Dict[str, float]:
        return {
            "stage_rel": self.stage_rel,
            "stage_abs_s": self.stage_abs_s,
            "eps_rel": self.eps_rel,
            "cache_hit_rate_abs": self.cache_hit_rate_abs,
            "counter_drift_rel": self.counter_drift_rel,
        }


@dataclass
class DiffEntry:
    """One compared metric: family, name, both values, and a status."""

    family: str  # "stage" | "engine" | "cache" | "counter" | "environment"
    metric: str  # e.g. "stages/gcc/simulate"
    before: Optional[float]
    after: Optional[float]
    status: str
    note: str = ""

    @property
    def delta(self) -> Optional[float]:
        if self.before is None or self.after is None:
            return None
        return self.after - self.before

    @property
    def rel_delta(self) -> Optional[float]:
        if self.before is None or self.after is None or self.before == 0:
            return None
        return (self.after - self.before) / self.before

    def to_dict(self) -> Dict[str, object]:
        return {
            "family": self.family,
            "metric": self.metric,
            "before": self.before,
            "after": self.after,
            "delta": self.delta,
            "rel_delta": self.rel_delta,
            "status": self.status,
            "note": self.note,
        }


@dataclass
class ManifestDiff:
    """The full comparison of two manifests."""

    before_target: str
    after_target: str
    thresholds: DiffThresholds
    entries: List[DiffEntry] = field(default_factory=list)
    #: True when the two manifests carry different environment
    #: fingerprints — their perf numbers were measured on different
    #: hosts/toolchains, so regressions are downgraded to warnings.
    cross_environment: bool = False

    @property
    def regressions(self) -> List[DiffEntry]:
        return [e for e in self.entries if e.status == STATUS_REGRESSION]

    @property
    def warnings(self) -> List[DiffEntry]:
        return [e for e in self.entries if e.status == STATUS_WARNING]

    @property
    def improvements(self) -> List[DiffEntry]:
        return [e for e in self.entries if e.status == STATUS_IMPROVEMENT]

    @property
    def drift(self) -> List[DiffEntry]:
        return [e for e in self.entries if e.status == STATUS_DRIFT]

    @property
    def verdict(self) -> str:
        """``"regression"`` if any family regressed, ``"warning"`` when
        apparent regressions were downgraded for crossing environments,
        else ``"ok"``."""
        if self.regressions:
            return STATUS_REGRESSION
        if self.warnings:
            return STATUS_WARNING
        return STATUS_OK

    def to_dict(self) -> Dict[str, object]:
        """The machine-readable verdict document."""
        return {
            "verdict": self.verdict,
            "before_target": self.before_target,
            "after_target": self.after_target,
            "thresholds": self.thresholds.to_dict(),
            "cross_environment": self.cross_environment,
            "n_regressions": len(self.regressions),
            "n_warnings": len(self.warnings),
            "n_improvements": len(self.improvements),
            "entries": [entry.to_dict() for entry in self.entries],
        }


def _cache_hit_rate(section: Dict[str, object]) -> Optional[float]:
    hits = int(section.get("hits", 0))
    misses = int(section.get("misses", 0))
    total = hits + misses
    return hits / total if total else None


def _eps_mean(manifest: RunManifest) -> Optional[float]:
    summary = manifest.histograms.get("engine.events_per_sec", {})
    if summary.get("count"):
        return float(summary["mean"])
    return None


def _diff_stages(
    before: RunManifest, after: RunManifest, t: DiffThresholds
) -> List[DiffEntry]:
    entries: List[DiffEntry] = []
    programs = sorted(set(before.stages) | set(after.stages))
    for program in programs:
        stages_a = before.stages.get(program, {})
        stages_b = after.stages.get(program, {})
        for stage in sorted(set(stages_a) | set(stages_b)):
            metric = f"stages/{program}/{stage}"
            old = stages_a.get(stage)
            new = stages_b.get(stage)
            if old is None:
                entries.append(DiffEntry(
                    "stage", metric, None, new, STATUS_ADDED,
                    "stage only present in the after-run",
                ))
                continue
            if new is None:
                entries.append(DiffEntry(
                    "stage", metric, old, None, STATUS_REMOVED,
                    "stage only present in the before-run "
                    "(a sim-cache hit skips compile/trace/simulate)",
                ))
                continue
            status = STATUS_OK
            note = ""
            if new > old * (1.0 + t.stage_rel) and new - old > t.stage_abs_s:
                status = STATUS_REGRESSION
                note = (f"slowed {1000 * (new - old):.1f}ms "
                        f"(+{100 * (new - old) / old:.0f}% > "
                        f"{100 * t.stage_rel:.0f}% threshold)")
            elif old > new * (1.0 + t.stage_rel) and old - new > t.stage_abs_s:
                status = STATUS_IMPROVEMENT
                note = f"sped up {1000 * (old - new):.1f}ms"
            entries.append(DiffEntry("stage", metric, old, new, status, note))
    return entries


def _diff_engine(
    before: RunManifest, after: RunManifest, t: DiffThresholds
) -> List[DiffEntry]:
    old = _eps_mean(before)
    new = _eps_mean(after)
    if old is None and new is None:
        return []
    metric = "engine.events_per_sec(mean)"
    if old is None or new is None:
        status = STATUS_ADDED if old is None else STATUS_REMOVED
        return [DiffEntry("engine", metric, old, new, status,
                          "engine ran in only one of the two runs")]
    status = STATUS_OK
    note = ""
    if new < old * (1.0 - t.eps_rel):
        status = STATUS_REGRESSION
        note = (f"throughput fell {100 * (old - new) / old:.0f}% "
                f"(> {100 * t.eps_rel:.0f}% threshold)")
    elif old < new * (1.0 - t.eps_rel):
        status = STATUS_IMPROVEMENT
        note = f"throughput rose {100 * (new - old) / old:.0f}%"
    return [DiffEntry("engine", metric, old, new, status, note)]


def _diff_cache(
    before: RunManifest, after: RunManifest, t: DiffThresholds
) -> List[DiffEntry]:
    entries: List[DiffEntry] = []
    for kind in sorted(set(before.cache) | set(after.cache)):
        metric = f"cache.{kind}.hit_rate"
        old = _cache_hit_rate(before.cache.get(kind, {}))
        new = _cache_hit_rate(after.cache.get(kind, {}))
        if old is None and new is None:
            continue
        if old is None or new is None:
            status = STATUS_ADDED if old is None else STATUS_REMOVED
            entries.append(DiffEntry("cache", metric, old, new, status,
                                     "cache untouched in one of the runs"))
            continue
        status = STATUS_OK
        note = ""
        if new < old - t.cache_hit_rate_abs:
            status = STATUS_REGRESSION
            note = (f"hit rate fell {100 * (old - new):.0f}pp "
                    f"(> {100 * t.cache_hit_rate_abs:.0f}pp threshold)")
        elif new > old + t.cache_hit_rate_abs:
            status = STATUS_IMPROVEMENT
            note = f"hit rate rose {100 * (new - old):.0f}pp"
        entries.append(DiffEntry("cache", metric, old, new, status, note))
    return entries


def _diff_counters(
    before: RunManifest, after: RunManifest, t: DiffThresholds
) -> List[DiffEntry]:
    """Informational drift: big counter swings mean different workloads."""
    entries: List[DiffEntry] = []
    for name in sorted(set(before.counters) | set(after.counters)):
        old = float(before.counters.get(name, 0))
        new = float(after.counters.get(name, 0))
        if old == new:
            continue
        base = max(old, new)
        if base == 0 or abs(new - old) / base < t.counter_drift_rel:
            continue
        entries.append(DiffEntry(
            "counter", name, old, new, STATUS_DRIFT,
            "large swing — check the two runs measured the same workload",
        ))
    return entries


def _diff_environment(before: RunManifest, after: RunManifest) -> List[DiffEntry]:
    entries: List[DiffEntry] = []
    for key in sorted(set(before.environment) | set(after.environment)):
        old = before.environment.get(key)
        new = after.environment.get(key)
        if old != new:
            entries.append(DiffEntry(
                "environment", key, None, None, STATUS_DRIFT,
                f"{old!r} -> {new!r}",
            ))
    return entries


def diff_manifests(
    before: RunManifest,
    after: RunManifest,
    thresholds: Optional[DiffThresholds] = None,
) -> ManifestDiff:
    """Compare two manifests; see the module docstring for the families."""
    t = thresholds or DiffThresholds()
    diff = ManifestDiff(
        before_target=before.target,
        after_target=after.target,
        thresholds=t,
        cross_environment=(
            bool(before.environment or after.environment)
            and before.environment != after.environment
        ),
    )
    diff.entries.extend(_diff_stages(before, after, t))
    diff.entries.extend(_diff_engine(before, after, t))
    diff.entries.extend(_diff_cache(before, after, t))
    diff.entries.extend(_diff_counters(before, after, t))
    diff.entries.extend(_diff_environment(before, after))
    if diff.cross_environment:
        # Timings measured on different hosts/toolchains cannot convict
        # the code change: keep the signal visible, drop the verdict.
        for entry in diff.entries:
            if entry.status == STATUS_REGRESSION:
                entry.status = STATUS_WARNING
                suffix = "cross-environment comparison; not gating"
                entry.note = f"{entry.note} ({suffix})" if entry.note else suffix
    return diff


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value >= 1000:
        return f"{value:,.0f}"
    return f"{value:.4g}"


#: Max drift lines in the text report (the JSON verdict is never cut).
_MAX_DRIFT_LINES = 12


def render_diff_report(diff: ManifestDiff) -> str:
    """The human-readable regression report."""
    lines = [
        f"Manifest diff: {diff.before_target or '-'} -> "
        f"{diff.after_target or '-'}",
        f"verdict: {diff.verdict.upper()} "
        f"({len(diff.regressions)} regression(s), "
        f"{len(diff.warnings)} warning(s), "
        f"{len(diff.improvements)} improvement(s))",
    ]
    if diff.cross_environment:
        lines.append(
            "  note: the two runs come from different environments — "
            "apparent perf regressions are reported as warnings, not "
            "gating regressions"
        )
    ordered = sorted(
        diff.entries,
        key=lambda e: (
            [STATUS_REGRESSION, STATUS_WARNING, STATUS_IMPROVEMENT,
             STATUS_ADDED, STATUS_REMOVED, STATUS_DRIFT,
             STATUS_OK].index(e.status),
            e.family,
            e.metric,
        ),
    )
    n_drift_shown = 0
    n_drift_total = len(diff.drift)
    for entry in ordered:
        if entry.status == STATUS_OK:
            continue
        if entry.status == STATUS_DRIFT:
            n_drift_shown += 1
            if n_drift_shown > _MAX_DRIFT_LINES:
                continue
        marker = {
            STATUS_REGRESSION: "!!",
            STATUS_WARNING: "!?",
            STATUS_IMPROVEMENT: "++",
            STATUS_DRIFT: "~",
        }.get(entry.status, "·")
        detail = f" — {entry.note}" if entry.note else ""
        if entry.family == "environment":
            lines.append(f"  {marker:>2} [{entry.family}] {entry.metric}{detail}")
        else:
            lines.append(
                f"  {marker:>2} [{entry.family}] {entry.metric}: "
                f"{_fmt(entry.before)} -> {_fmt(entry.after)}{detail}"
            )
    if n_drift_total > _MAX_DRIFT_LINES:
        lines.append(
            f"  ~  ... and {n_drift_total - _MAX_DRIFT_LINES} more drifted "
            "counter(s) (use --json for the full list)"
        )
    n_ok = sum(1 for e in diff.entries if e.status == STATUS_OK)
    lines.append(f"  ({n_ok} metric(s) within thresholds)")
    return "\n".join(lines)
