"""Run manifests: one JSON document auditing one pipeline run.

A :class:`RunManifest` snapshots the metrics registry at the end of a
run into a self-contained record: what was run (``target``/``config``),
where (``environment`` fingerprint), where the time went (``spans`` and
the per-program ``stages`` rollup), what was counted (``counters``,
``gauges``, ``histograms``), and which ``.repro_cache/`` entries the run
read or wrote (``cache``).  The schema is documented field-by-field in
``docs/OBSERVABILITY.md``; :func:`validate_manifest` enforces it and
:func:`load_manifest` validates on read, so a manifest a tool accepts is
one this module wrote.
"""

from __future__ import annotations

import json
import platform
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.errors import ManifestFormatError
from repro.observe.events import SEVERITIES, events_summary
from repro.observe.metrics import MetricsRegistry, get_registry

#: Bump when a field is added/renamed; validators check it.
MANIFEST_SCHEMA_VERSION = 1

#: Pipeline stage names rolled up into the ``stages`` section.
STAGE_NAMES = ("compile", "trace", "simulate", "model")

_REQUIRED_KEYS = (
    "schema_version", "target", "config", "environment",
    "spans", "counters", "gauges", "histograms", "stages", "cache",
)

_REQUIRED_SPAN_KEYS = ("name", "path", "parent", "start_s", "duration_s", "error")


def environment_fingerprint() -> Dict[str, str]:
    """Where a run happened: interpreter, platform, and numpy versions."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dep, but be safe
        numpy_version = "unavailable"
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "numpy": numpy_version,
        "executable": sys.executable,
    }


def _program_of(span_dict: Dict[str, object]) -> str:
    """The ``program:<name>`` path segment owning a span, or ``"all"``."""
    attrs = span_dict.get("attrs")
    if isinstance(attrs, dict) and "program" in attrs:
        return str(attrs["program"])
    for segment in str(span_dict.get("path", "")).split("/"):
        if segment.startswith("program:"):
            return segment[len("program:"):]
    return "all"


def _stages_from_spans(spans: List[Dict[str, object]]) -> Dict[str, Dict[str, float]]:
    """program -> stage -> cumulative seconds, from the flat span list."""
    stages: Dict[str, Dict[str, float]] = {}
    for span_dict in spans:
        name = str(span_dict.get("name", ""))
        if name not in STAGE_NAMES:
            continue
        program = _program_of(span_dict)
        per_program = stages.setdefault(program, {})
        per_program[name] = per_program.get(name, 0.0) + float(
            span_dict.get("duration_s", 0.0)
        )
    return stages


def _cache_from_registry(
    counters: Dict[str, Union[int, float]], notes: Dict[str, List[str]]
) -> Dict[str, Dict[str, object]]:
    """The cache section: hit/miss counts plus entry names per kind."""
    cache: Dict[str, Dict[str, object]] = {}
    for kind in ("trace", "sim"):
        cache[kind] = {
            "hits": int(counters.get(f"cache.{kind}.hits", 0)),
            "misses": int(counters.get(f"cache.{kind}.misses", 0)),
            "used": list(notes.get(f"cache.{kind}.used", [])),
            "written": list(notes.get(f"cache.{kind}.written", [])),
        }
    return cache


@dataclass
class RunManifest:
    """One pipeline run, as a JSON-able record (see module docstring)."""

    target: str = ""
    config: Dict[str, object] = field(default_factory=dict)
    environment: Dict[str, str] = field(default_factory=environment_fingerprint)
    spans: List[Dict[str, object]] = field(default_factory=list)
    counters: Dict[str, Union[int, float]] = field(default_factory=dict)
    gauges: Dict[str, Union[int, float]] = field(default_factory=dict)
    histograms: Dict[str, Dict[str, float]] = field(default_factory=dict)
    stages: Dict[str, Dict[str, float]] = field(default_factory=dict)
    cache: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: Programs the run could not produce data for (``--keep-going``):
    #: one record each with program/error/message/attempts/elapsed_s.
    failures: List[Dict[str, object]] = field(default_factory=list)
    #: Flight-recorder summary (run_id, emitted/dropped counts,
    #: per-severity and per-category tallies, sink path); ``None`` when
    #: event recording was off — see ``docs/OBSERVABILITY.md``.
    events: Optional[Dict[str, object]] = None
    schema_version: int = MANIFEST_SCHEMA_VERSION

    @classmethod
    def from_registry(
        cls,
        registry: Optional[MetricsRegistry] = None,
        target: str = "",
        config: Optional[Dict[str, object]] = None,
        failures: Optional[List[Dict[str, object]]] = None,
        events: Optional[Dict[str, object]] = None,
    ) -> "RunManifest":
        """Snapshot ``registry`` (default: the process one) into a manifest.

        ``events`` defaults to the process flight recorder's summary
        (``None`` while event recording is off).
        """
        snapshot = (registry or get_registry()).snapshot()
        spans = snapshot["spans"]
        counters = snapshot["counters"]
        return cls(
            target=target,
            config=dict(config or {}),
            spans=spans,
            counters=counters,
            gauges=snapshot["gauges"],
            histograms=snapshot["histograms"],
            stages=_stages_from_spans(spans),
            cache=_cache_from_registry(counters, snapshot["notes"]),
            failures=[dict(record) for record in (failures or [])],
            events=events if events is not None else events_summary(),
        )

    def to_dict(self) -> Dict[str, object]:
        """The manifest as the plain dict that gets serialized."""
        data = {
            "schema_version": self.schema_version,
            "target": self.target,
            "config": self.config,
            "environment": self.environment,
            "spans": self.spans,
            "counters": self.counters,
            "gauges": self.gauges,
            "histograms": self.histograms,
            "stages": self.stages,
            "cache": self.cache,
            "failures": self.failures,
        }
        # Omitted entirely when event recording was off, so manifests
        # from event-less runs are unchanged.
        if self.events is not None:
            data["events"] = self.events
        return data

    def write(self, path: Union[str, Path]) -> Path:
        """Validate and write the manifest JSON to ``path``."""
        data = self.to_dict()
        validate_manifest(data)
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        return path


def validate_manifest(data: Dict[str, object]) -> None:
    """Raise :class:`ManifestFormatError` unless ``data`` fits the schema."""
    if not isinstance(data, dict):
        raise ManifestFormatError(f"manifest must be a dict, got {type(data).__name__}")
    missing = [key for key in _REQUIRED_KEYS if key not in data]
    if missing:
        raise ManifestFormatError(f"manifest missing keys: {missing}")
    if data["schema_version"] != MANIFEST_SCHEMA_VERSION:
        raise ManifestFormatError(
            f"unsupported schema_version {data['schema_version']!r} "
            f"(expected {MANIFEST_SCHEMA_VERSION})"
        )
    for key in ("config", "environment", "counters", "gauges", "histograms",
                "stages", "cache"):
        if not isinstance(data[key], dict):
            raise ManifestFormatError(f"manifest field {key!r} must be a dict")
    if not isinstance(data["spans"], list):
        raise ManifestFormatError("manifest field 'spans' must be a list")
    for index, span_dict in enumerate(data["spans"]):
        if not isinstance(span_dict, dict):
            raise ManifestFormatError(f"span #{index} must be a dict")
        span_missing = [k for k in _REQUIRED_SPAN_KEYS if k not in span_dict]
        if span_missing:
            raise ManifestFormatError(f"span #{index} missing keys: {span_missing}")
        if span_dict["duration_s"] < 0:
            raise ManifestFormatError(f"span #{index} has negative duration")
    for name, value in data["counters"].items():
        if not isinstance(value, (int, float)) or value < 0:
            raise ManifestFormatError(f"counter {name!r} must be a number >= 0")
    for kind, section in data["cache"].items():
        if not isinstance(section, dict) or not {"hits", "misses"} <= set(section):
            raise ManifestFormatError(
                f"cache section {kind!r} must carry 'hits' and 'misses'"
            )
    # Optional (absent in pre-fault-tolerance manifests): the partial-
    # result failure records written under --keep-going.
    if "failures" in data:
        if not isinstance(data["failures"], list):
            raise ManifestFormatError("manifest field 'failures' must be a list")
        for index, record in enumerate(data["failures"]):
            if not isinstance(record, dict):
                raise ManifestFormatError(f"failure #{index} must be a dict")
            missing_keys = [
                key for key in ("program", "error", "attempts", "elapsed_s")
                if key not in record
            ]
            if missing_keys:
                raise ManifestFormatError(
                    f"failure #{index} missing keys: {missing_keys}"
                )
            if not isinstance(record["attempts"], int) or record["attempts"] < 1:
                raise ManifestFormatError(
                    f"failure #{index}: 'attempts' must be an int >= 1"
                )
    # Optional (absent when event recording was off): the flight-recorder
    # summary block of an observed run.
    if "events" in data:
        events = data["events"]
        if not isinstance(events, dict):
            raise ManifestFormatError("manifest field 'events' must be a dict")
        run_id = events.get("run_id")
        if not isinstance(run_id, str) or not run_id:
            raise ManifestFormatError(
                "events summary 'run_id' must be a non-empty string"
            )
        for key in ("emitted", "dropped"):
            value = events.get(key)
            if not isinstance(value, int) or value < 0:
                raise ManifestFormatError(
                    f"events summary {key!r} must be an int >= 0"
                )
        by_severity = events.get("by_severity")
        if not isinstance(by_severity, dict):
            raise ManifestFormatError(
                "events summary 'by_severity' must be a dict"
            )
        for severity in by_severity:
            if severity not in SEVERITIES:
                raise ManifestFormatError(
                    f"events summary has unknown severity {severity!r}"
                )


def load_manifest(path: Union[str, Path]) -> RunManifest:
    """Read and validate a manifest JSON written by :meth:`RunManifest.write`."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ManifestFormatError(f"cannot read manifest {path}: {exc}") from exc
    validate_manifest(data)
    return RunManifest(
        target=data["target"],
        config=data["config"],
        environment=data["environment"],
        spans=data["spans"],
        counters=data["counters"],
        gauges=data["gauges"],
        histograms=data["histograms"],
        stages=data["stages"],
        cache=data["cache"],
        failures=data.get("failures", []),
        events=data.get("events"),
        schema_version=data["schema_version"],
    )
