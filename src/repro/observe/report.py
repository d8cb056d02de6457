"""The human view of a run: one text rendering of a :class:`RunManifest`.

``repro-experiments show MANIFEST`` prints :func:`render_manifest`, and
the examples use it to show where a run spent its time without the
reader having to open the manifest JSON.  It reads nothing but the
manifest, so a run is explained after the fact from its own artifact.
``show A.json B.json`` prints :func:`render_comparison`: the two runs'
stages, cache traffic and metrics side by side with the relative
change, and no verdict (a speedup is claimed from repeated pairs of
runs, which perfbench measures, not from one manifest per side).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.observe.manifest import STAGE_NAMES, RunManifest

Number = Union[int, float]


def _rows_to_text(headers: List[str], body: List[List[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in body:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip(),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in body:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)).rstrip())
    return "\n".join(lines)


def _digest(manifest: RunManifest) -> str:
    """A few-line digest: target, environment, stages, cache traffic."""
    lines = [
        f"Run manifest: target={manifest.target or '-'} "
        f"(schema v{manifest.schema_version})",
        f"  environment: python {manifest.environment.get('python', '?')} "
        f"on {manifest.environment.get('platform', '?')}",
    ]
    for program in sorted(manifest.stages):
        stages = manifest.stages[program]
        timing = "  ".join(
            f"{stage}={stages[stage] * 1000.0:.1f}ms"
            for stage in STAGE_NAMES
            if stage in stages
        )
        lines.append(f"  [{program}] {timing}")
    for kind in sorted(manifest.cache):
        section = manifest.cache[kind]
        lines.append(
            f"  cache/{kind}: {section['hits']} hits, {section['misses']} misses"
        )
    return "\n".join(lines)


def _histogram_rows(
    histograms: Dict[str, Dict[str, float]],
) -> List[List[str]]:
    body = []
    for name, summary in histograms.items():
        if summary.get("count", 0) == 0:
            continue
        # Manifests written before p95/p99 existed lack those keys;
        # fall back to the nearest coarser percentile for display.
        p95 = summary.get("p95", summary.get("p90", summary["max"]))
        p99 = summary.get("p99", summary["max"])
        body.append([
            name,
            str(int(summary["count"])),
            f"{summary['mean']:,.3g}",
            f"{summary['p50']:,.3g}",
            f"{p95:,.3g}",
            f"{p99:,.3g}",
            f"{summary['max']:,.3g}",
        ])
    return body


def _profile_table(
    title: str, counters: Dict[str, Number], prefix: str, stride: Number,
    top_n: int,
) -> Optional[str]:
    """Top-``top_n`` sampled names under ``prefix`` with estimated shares."""
    samples = {
        name[len(prefix):]: value for name, value in counters.items()
        if name.startswith(prefix)
    }
    if not samples:
        return None
    stride = int(stride) or 1
    total = sum(samples.values()) or 1
    lines = [f"{title} (1-in-{stride} sampled)"]
    lines.append(f"  {'name':<12} {'samples':>8} {'~count':>12} {'share':>7}")
    for name, count in sorted(samples.items(), key=lambda kv: -kv[1])[:top_n]:
        lines.append(
            f"  {name:<12} {count:>8,} {count * stride:>12,} "
            f"{100.0 * count / total:>6.1f}%"
        )
    return "\n".join(lines)


def render_manifest(manifest: RunManifest, top_n: int = 10) -> str:
    """The manifest as text: its digest, metric tables and sampling profile.

    Sections without data are left out; the profile section appears
    only when the run was profiled (``profile.*`` counters present).
    """
    sections = [_digest(manifest)]

    if manifest.spans:
        body = []
        for record in manifest.spans:
            depth = str(record["path"]).count("/")
            body.append([
                "  " * depth + str(record["name"]),
                f"{float(record['duration_s']) * 1000.0:.2f}",
                "error" if record.get("error") else "",
            ])
        sections.append("Spans (wall clock)\n"
                        + _rows_to_text(["span", "ms", ""], body))
    if manifest.counters:
        body = [[name, f"{value:,}"] for name, value in manifest.counters.items()]
        sections.append("Counters\n" + _rows_to_text(["counter", "value"], body))
    if manifest.gauges:
        body = [[name, f"{value:,}"] for name, value in manifest.gauges.items()]
        sections.append("Gauges\n" + _rows_to_text(["gauge", "value"], body))
    body = _histogram_rows(manifest.histograms)
    if body:
        sections.append(
            "Histograms\n"
            + _rows_to_text(
                ["histogram", "n", "mean", "p50", "p95", "p99", "max"], body
            )
        )

    profile = [
        table for table in (
            _profile_table(
                "CPU opcodes", manifest.counters, "profile.cpu.opcode.",
                manifest.gauges.get("profile.cpu.stride", 1), top_n,
            ),
            _profile_table(
                "Engine events", manifest.counters, "profile.engine.event.",
                manifest.gauges.get("profile.engine.stride", 1), top_n,
            ),
        ) if table is not None
    ]
    if profile:
        sections.append("Sampling profile")
        sections.extend(profile)
    return "\n\n".join(sections)


Row = Tuple[str, Optional[Number], Optional[Number]]


def _digest_rows(before: RunManifest, after: RunManifest) -> List[Row]:
    """The digest's numbers for both runs: stage ms, then cache traffic."""
    rows: List[Row] = []
    for program in sorted({*before.stages, *after.stages}):
        old = before.stages.get(program, {})
        new = after.stages.get(program, {})
        for stage in STAGE_NAMES:
            if stage in old or stage in new:
                rows.append((
                    f"[{program}] {stage} ms",
                    None if stage not in old else old[stage] * 1000.0,
                    None if stage not in new else new[stage] * 1000.0,
                ))
    for kind in sorted({*before.cache, *after.cache}):
        old = before.cache.get(kind, {})
        new = after.cache.get(kind, {})
        for key in ("hits", "misses"):
            rows.append((f"cache/{kind} {key}", old.get(key), new.get(key)))
    return rows


def _paired(before: Dict[str, Number], after: Dict[str, Number]) -> List[Row]:
    return [(name, before.get(name), after.get(name))
            for name in sorted({*before, *after})]


def _histogram_means(manifest: RunManifest) -> Dict[str, Number]:
    return {
        name: summary["mean"]
        for name, summary in manifest.histograms.items()
        if summary.get("count", 0)
    }


def _cell(value: Optional[Number], float_fmt: str) -> str:
    if value is None:
        return "-"
    return f"{value:,}" if isinstance(value, int) else format(value, float_fmt)


def _side_by_side(
    title: str, column: str, rows: List[Row], float_fmt: str = ",",
) -> Optional[str]:
    """One ``name  before  after  change`` table; ``-`` marks a value
    only one run has, and a change whose base is missing or zero."""
    if not rows:
        return None
    body = []
    for name, old, new in rows:
        change = "-"
        if old is not None and new is not None and old != 0:
            change = f"{100.0 * (new - old) / old:+.1f}%"
        body.append([name, _cell(old, float_fmt), _cell(new, float_fmt),
                     change])
    return f"{title}\n" + _rows_to_text(
        [column, "before", "after", "change"], body
    )


def render_comparison(before: RunManifest, after: RunManifest) -> str:
    """Two manifests side by side: the digest's stage and cache rows,
    every counter and gauge, each histogram's mean, and each
    environment key whose value differs.  Spans and the sampling
    profile appear only in :func:`render_manifest`."""
    sections = [
        f"Run manifests: before target={before.target or '-'}, "
        f"after target={after.target or '-'}"
    ]
    tables = (
        _side_by_side("Stages and cache", "stage",
                      _digest_rows(before, after), ",.1f"),
        _side_by_side("Counters", "counter",
                      _paired(before.counters, after.counters)),
        _side_by_side("Gauges", "gauge", _paired(before.gauges, after.gauges)),
        _side_by_side("Histogram means", "histogram",
                      _paired(_histogram_means(before),
                              _histogram_means(after)), ",.3g"),
    )
    sections.extend(table for table in tables if table is not None)
    body = [
        [key, str(before.environment.get(key, "-")),
         str(after.environment.get(key, "-"))]
        for key in sorted({*before.environment, *after.environment})
        if before.environment.get(key) != after.environment.get(key)
    ]
    if body:
        sections.append("Environment (keys that differ)\n" + _rows_to_text(
            ["environment", "before", "after"], body
        ))
    return "\n\n".join(sections)
