"""``render_manifest``: the one text view of a run, as ``show`` prints it.

Each test builds a :class:`RunManifest` by hand, so the rendering is
checked against known numbers without running the pipeline.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.cli import _event_log_path
from repro.experiments.cli import main as cli_main
from repro.observe.manifest import RunManifest
from repro.observe.report import render_manifest

pytestmark = pytest.mark.observe

_ENV = {"python": "3.x", "platform": "test-os"}


def _manifest(**fields) -> RunManifest:
    fields.setdefault("environment", dict(_ENV))
    return RunManifest(**fields)


def _span(name, path, duration_s, error=None):
    parent = path.rsplit("/", 1)[0] if "/" in path else None
    return {"name": name, "path": path, "parent": parent, "start_s": 0.0,
            "duration_s": duration_s, "error": error}


def _section(report: str, title: str) -> list:
    """The lines of the section headed ``title``, up to the next blank line."""
    lines = report.splitlines()
    start = lines.index(title)
    end = start
    while end < len(lines) and lines[end]:
        end += 1
    return lines[start:end]


class TestDigest:
    def test_names_target_schema_and_environment(self):
        report = render_manifest(_manifest(target="table4"))
        first, second = report.splitlines()[:2]
        assert first == "Run manifest: target=table4 (schema v1)"
        assert second == "  environment: python 3.x on test-os"

    def test_missing_target_and_environment_render_placeholders(self):
        report = render_manifest(_manifest(environment={}))
        assert "target=- " in report
        assert "python ? on ?" in report

    def test_stage_times_in_pipeline_order_and_milliseconds(self):
        stages = {"gcc": {"model": 0.004, "compile": 0.0015, "trace": 0.25}}
        report = render_manifest(_manifest(stages=stages))
        assert "  [gcc] compile=1.5ms  trace=250.0ms  model=4.0ms" in report
        assert "simulate=" not in report  # absent stages are left out

    def test_programs_and_cache_kinds_sorted(self):
        stages = {"tex": {"trace": 0.1}, "bps": {"trace": 0.2}}
        cache = {
            "trace": {"hits": 3, "misses": 2, "used": [], "written": []},
            "sim": {"hits": 0, "misses": 5, "used": [], "written": []},
        }
        lines = render_manifest(_manifest(stages=stages, cache=cache)).splitlines()
        assert lines.index("  [bps] trace=200.0ms") < lines.index(
            "  [tex] trace=100.0ms")
        assert lines.index("  cache/sim: 0 hits, 5 misses") < lines.index(
            "  cache/trace: 3 hits, 2 misses")


class TestMetricTables:
    def test_empty_manifest_prints_only_the_digest(self):
        report = render_manifest(_manifest(target="x"))
        assert "\n\n" not in report
        for title in ("Spans", "Counters", "Gauges", "Histograms",
                      "Sampling profile"):
            assert title not in report

    def test_spans_indented_by_depth_in_milliseconds(self):
        spans = [
            _span("run", "run", 1.0),
            _span("program:gcc", "run/program:gcc", 0.5),
            _span("trace", "run/program:gcc/trace", 0.01234),
        ]
        rows = _section(render_manifest(_manifest(spans=spans)),
                        "Spans (wall clock)")
        assert rows[1].split() == ["span", "ms"]
        assert rows[3].startswith("run ")
        assert rows[3].split() == ["run", "1000.00"]
        assert rows[4].startswith("  program:gcc ")
        assert rows[5].startswith("    trace ")
        assert rows[5].split() == ["trace", "12.34"]

    def test_errored_span_is_marked(self):
        spans = [_span("ok", "ok", 0.1),
                 _span("bad", "bad", 0.2, error="TraceError: boom")]
        rows = _section(render_manifest(_manifest(spans=spans)),
                        "Spans (wall clock)")
        assert rows[3].split() == ["ok", "100.00"]
        assert rows[4].split() == ["bad", "200.00", "error"]

    def test_columns_align_to_the_widest_cell(self):
        spans = [_span("a", "a", 0.001),
                 _span("a_much_longer_name", "a_much_longer_name", 0.002)]
        rows = _section(render_manifest(_manifest(spans=spans)),
                        "Spans (wall clock)")
        ms_column = rows[1].index("ms")
        assert rows[3].index("1.00") == ms_column
        assert rows[4].index("2.00") == ms_column
        assert rows[2].split()[0] == "-" * len("a_much_longer_name")

    def test_counters_and_gauges_use_thousands_separators(self):
        report = render_manifest(_manifest(
            counters={"engine.events": 1234567},
            gauges={"trace.peak_objects": 4165, "ratio": 0.5},
        ))
        counters = _section(report, "Counters")
        assert counters[3].split() == ["engine.events", "1,234,567"]
        gauges = _section(report, "Gauges")
        assert ["trace.peak_objects", "4,165"] in [r.split() for r in gauges]
        assert ["ratio", "0.5"] in [r.split() for r in gauges]

    def test_histogram_row_and_empty_histograms_left_out(self):
        histograms = {
            "latency": {"count": 4, "mean": 2.5, "p50": 2.0, "p95": 3.9,
                        "p99": 3.99, "max": 4.0},
            "unused": {"count": 0, "mean": 0.0, "p50": 0.0, "max": 0.0},
        }
        rows = _section(render_manifest(_manifest(histograms=histograms)),
                        "Histograms")
        assert rows[1].split() == ["histogram", "n", "mean", "p50", "p95",
                                   "p99", "max"]
        assert rows[3].split() == ["latency", "4", "2.5", "2", "3.9",
                                   "3.99", "4"]
        assert len(rows) == 4  # "unused" has no row

    def test_only_empty_histograms_omit_the_section(self):
        histograms = {"unused": {"count": 0, "mean": 0.0, "p50": 0.0,
                                 "max": 0.0}}
        report = render_manifest(_manifest(histograms=histograms))
        assert "Histograms" not in report

    def test_histogram_without_tail_percentiles_falls_back(self):
        # An older summary carried p90 but neither p95 nor p99.
        histograms = {"old": {"count": 2, "mean": 1.0, "p50": 1.0,
                              "p90": 1.5, "max": 2.0}}
        rows = _section(render_manifest(_manifest(histograms=histograms)),
                        "Histograms")
        assert rows[3].split() == ["old", "2", "1", "1", "1.5", "2", "2"]


class TestProfileTables:
    def test_opcode_table_sorted_with_estimates_and_shares(self):
        counters = {
            "profile.cpu.opcode.LD": 30,
            "profile.cpu.opcode.ST": 10,
            "profile.cpu.opcode.ADD": 60,
            "engine.events": 7,
        }
        report = render_manifest(_manifest(
            counters=counters, gauges={"profile.cpu.stride": 64}))
        rows = _section(report, "CPU opcodes (1-in-64 sampled)")
        assert rows[1].split() == ["name", "samples", "~count", "share"]
        assert [r.split() for r in rows[2:]] == [
            ["ADD", "60", "3,840", "60.0%"],
            ["LD", "30", "1,920", "30.0%"],
            ["ST", "10", "640", "10.0%"],
        ]
        assert "Engine events" not in report

    def test_top_n_keeps_the_most_sampled(self):
        counters = {f"profile.cpu.opcode.OP{i}": i + 1 for i in range(12)}
        report = render_manifest(_manifest(counters=counters), top_n=3)
        rows = _section(report, "CPU opcodes (1-in-1 sampled)")
        assert [r.split()[0] for r in rows[2:]] == ["OP11", "OP10", "OP9"]

    def test_engine_table_uses_its_own_stride(self):
        counters = {"profile.engine.event.write": 3,
                    "profile.engine.event.read": 1}
        gauges = {"profile.cpu.stride": 64, "profile.engine.stride": 0}
        report = render_manifest(_manifest(counters=counters, gauges=gauges))
        assert "CPU opcodes" not in report
        # A zero stride is read as 1 rather than estimating zero events.
        rows = _section(report, "Engine events (1-in-1 sampled)")
        assert [r.split() for r in rows[2:]] == [
            ["write", "3", "3", "75.0%"],
            ["read", "1", "1", "25.0%"],
        ]

    def test_profile_section_follows_the_metric_tables(self):
        counters = {"profile.cpu.opcode.LD": 1,
                    "profile.engine.event.write": 1}
        report = render_manifest(_manifest(counters=counters))
        order = [report.index(title) for title in (
            "Counters", "Sampling profile", "CPU opcodes", "Engine events")]
        assert order == sorted(order)


class TestShowSubcommand:
    @pytest.mark.parametrize("manifest, log", [
        ("run.json", "run.events.jsonl"),
        ("out/a.b.json", "out/a.b.events.jsonl"),
        ("noext", "noext.events.jsonl"),
    ])
    def test_event_log_sits_beside_the_manifest(self, manifest, log):
        assert _event_log_path(manifest) == Path(log)

    def test_show_prints_the_rendering_of_the_written_manifest(
            self, tmp_path, capsys):
        manifest = _manifest(
            target="table4",
            spans=[_span("run", "run", 0.5)],
            counters={"profile.cpu.opcode.LD": 2},
            gauges={"profile.cpu.stride": 8},
        )
        path = manifest.write(tmp_path / "run.json")
        assert cli_main(["show", str(path)]) == 0
        out = capsys.readouterr().out
        assert out == render_manifest(manifest) + "\n"
        assert not (tmp_path / "run.events.jsonl").exists()  # show only reads
