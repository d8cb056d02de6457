"""``render_comparison``: two runs side by side, as ``show A B`` prints it.

Each test builds two :class:`RunManifest` objects by hand, so the view
is checked against known numbers without running the pipeline.  The
view gives no verdict: ``show`` exits 0 whenever both manifests load.
"""

from __future__ import annotations

import pytest

from repro.experiments.cli import main as cli_main
from repro.observe.manifest import RunManifest
from repro.observe.report import render_comparison

pytestmark = pytest.mark.observe

_ENV = {"python": "3.x", "platform": "test-os"}


def _manifest(**fields) -> RunManifest:
    fields.setdefault("target", "table4")
    fields.setdefault("environment", dict(_ENV))
    return RunManifest(**fields)


def _hist(mean, count=1):
    return {"count": count, "min": mean, "max": mean, "mean": mean,
            "p50": mean, "p90": mean, "p95": mean, "p99": mean,
            "total": mean * count}


def _section(report: str, title: str) -> list:
    """The lines of the section headed ``title``, up to the next blank line."""
    lines = report.splitlines()
    start = lines.index(title)
    end = start
    while end < len(lines) and lines[end]:
        end += 1
    return lines[start:end]


def _row(report: str, title: str, name: str) -> list:
    """The cells of the row ``name`` in the section ``title``."""
    for line in _section(report, title)[3:]:
        cells = line.split()
        if line.startswith(name + " "):
            return cells[len(name.split()):]
    raise AssertionError(f"no row {name!r} under {title!r}")


_FULL = dict(
    stages={"qcd": {"compile": 0.010, "trace": 0.200, "simulate": 0.020},
            "all": {"model": 0.020}},
    cache={"trace": {"hits": 1, "misses": 0}},
    counters={"engine.events": 1000, "engine.backend.native": 1},
    gauges={"profile.cpu.stride": 8},
    histograms={"engine.events_per_sec": _hist(2.0e7)},
)


class TestRenderComparison:
    def test_identical_manifests_show_no_change_and_no_environment(self):
        report = render_comparison(_manifest(**_FULL), _manifest(**_FULL))
        assert report.splitlines()[0] == (
            "Run manifests: before target=table4, after target=table4"
        )
        assert _row(report, "Stages and cache", "[qcd] trace ms") == [
            "200.0", "200.0", "+0.0%"]
        assert _row(report, "Counters", "engine.events") == [
            "1,000", "1,000", "+0.0%"]
        assert _row(report, "Gauges", "profile.cpu.stride") == ["8", "8",
                                                                "+0.0%"]
        assert _row(report, "Histogram means", "engine.events_per_sec") == [
            "2e+07", "2e+07", "+0.0%"]
        assert "Environment (keys that differ)" not in report
        assert "verdict" not in report.lower()

    def test_stages_follow_the_digest_order_then_cache(self):
        report = render_comparison(_manifest(**_FULL), _manifest(**_FULL))
        names = [" ".join(line.split()[:-3])
                 for line in _section(report, "Stages and cache")[3:]]
        assert names == [
            "[all] model ms", "[qcd] compile ms", "[qcd] trace ms",
            "[qcd] simulate ms", "cache/trace hits", "cache/trace misses",
        ]

    def test_slowed_stage_shows_both_values_and_the_change(self):
        after = _manifest(**{**_FULL, "stages": {
            "qcd": {"compile": 0.010, "trace": 0.200, "simulate": 0.031},
            "all": {"model": 0.020}}})
        report = render_comparison(_manifest(**_FULL), after)
        assert _row(report, "Stages and cache", "[qcd] simulate ms") == [
            "20.0", "31.0", "+55.0%"]

    def test_row_on_one_side_only_prints_a_dash(self):
        before = _manifest(counters={"cache.sim.misses": 1})
        after = _manifest(counters={"cache.sim.hits": 1},
                          stages={"bps": {"trace": 0.1}})
        report = render_comparison(before, after)
        assert _row(report, "Counters", "cache.sim.hits") == ["-", "1", "-"]
        assert _row(report, "Counters", "cache.sim.misses") == ["1", "-", "-"]
        assert _row(report, "Stages and cache", "[bps] trace ms") == [
            "-", "100.0", "-"]

    def test_zero_base_has_no_relative_change(self):
        report = render_comparison(_manifest(counters={"x": 0}),
                                   _manifest(counters={"x": 5}))
        assert _row(report, "Counters", "x") == ["0", "5", "-"]

    def test_empty_histograms_and_empty_families_are_left_out(self):
        before = _manifest(histograms={"h": _hist(0.0, count=0)})
        report = render_comparison(before, _manifest())
        assert report.count("\n\n") == 0
        assert "Histogram means" not in report
        assert "Counters" not in report

    def test_one_line_per_environment_key_that_differs(self):
        before = _manifest(environment={"python": "3.x", "numpy": "2.0",
                                        "platform": "test-os"})
        after = _manifest(environment={"python": "3.y",
                                       "platform": "test-os"})
        section = _section(render_comparison(before, after),
                           "Environment (keys that differ)")
        assert [line.split() for line in section[3:]] == [
            ["numpy", "2.0", "-"], ["python", "3.x", "3.y"]]


class TestChangeColumn:
    """The change column is ``(after - before) / before``, signed, to one
    decimal; ``-`` where either value is missing or the base is zero."""

    @pytest.mark.parametrize("old, new, change", [
        (100, 150, "+50.0%"),
        (100, 75, "-25.0%"),
        (100, 100, "+0.0%"),
        (100, 0, "-100.0%"),
        (0, 0, "-"),
        (3, 1000, "+33233.3%"),
    ], ids=["grow", "shrink", "unchanged", "drop-to-zero", "both-zero",
            "large-growth"])
    def test_change_of_a_counter(self, old, new, change):
        report = render_comparison(_manifest(counters={"c": old}),
                                   _manifest(counters={"c": new}))
        assert _row(report, "Counters", "c")[-1] == change


class TestCellFormat:
    """Each family keeps the number format of its one-manifest table."""

    @pytest.mark.parametrize("fields, title, name, cell", [
        (dict(counters={"c": 1234567}), "Counters", "c", "1,234,567"),
        (dict(gauges={"g": 0.5}), "Gauges", "g", "0.5"),
        (dict(stages={"qcd": {"trace": 1.23456}}), "Stages and cache",
         "[qcd] trace ms", "1,234.6"),
        (dict(histograms={"h": _hist(12345.0)}), "Histogram means", "h",
         "1.23e+04"),
        (dict(cache={"sim": {"hits": 2500, "misses": 3}}),
         "Stages and cache", "cache/sim hits", "2,500"),
    ], ids=["counter", "gauge", "stage-ms", "histogram-mean", "cache"])
    def test_before_and_after_cells(self, fields, title, name, cell):
        report = render_comparison(_manifest(**fields), _manifest(**fields))
        assert _row(report, title, name)[:2] == [cell, cell]


class TestOneSidedRows:
    def test_gauge_on_one_side_only(self):
        report = render_comparison(_manifest(gauges={"pipeline.jobs": 2}),
                                   _manifest())
        assert _row(report, "Gauges", "pipeline.jobs") == ["2", "-", "-"]

    def test_histogram_on_one_side_only(self):
        report = render_comparison(
            _manifest(), _manifest(histograms={"h": _hist(4.0)}))
        assert _row(report, "Histogram means", "h") == ["-", "4", "-"]

    def test_empty_histogram_reads_as_missing(self):
        report = render_comparison(
            _manifest(histograms={"h": _hist(0.0, count=0)}),
            _manifest(histograms={"h": _hist(4.0)}))
        assert _row(report, "Histogram means", "h") == ["-", "4", "-"]

    def test_cache_kind_on_one_side_only(self):
        report = render_comparison(
            _manifest(cache={"sim": {"hits": 0, "misses": 1}}), _manifest())
        assert _row(report, "Stages and cache", "cache/sim hits") == [
            "0", "-", "-"]
        assert _row(report, "Stages and cache", "cache/sim misses") == [
            "1", "-", "-"]

    def test_stage_of_a_program_on_one_side_only(self):
        report = render_comparison(
            _manifest(stages={"qcd": {"compile": 0.001, "trace": 0.002}}),
            _manifest(stages={"qcd": {"trace": 0.004}}))
        assert _row(report, "Stages and cache", "[qcd] compile ms") == [
            "1.0", "-", "-"]
        assert _row(report, "Stages and cache", "[qcd] trace ms") == [
            "2.0", "4.0", "+100.0%"]

    def test_environment_key_on_the_after_side_only(self):
        after = _manifest(environment={**_ENV, "native": "cc-12"})
        section = _section(render_comparison(_manifest(), after),
                           "Environment (keys that differ)")
        assert [line.split() for line in section[3:]] == [
            ["native", "-", "cc-12"]]

    def test_backends_that_ran_compare_as_counters(self):
        report = render_comparison(
            _manifest(counters={"engine.backend.python": 5}),
            _manifest(counters={"engine.backend.native": 5}))
        assert _row(report, "Counters", "engine.backend.native") == [
            "-", "5", "-"]
        assert _row(report, "Counters", "engine.backend.python") == [
            "5", "-", "-"]


class TestComparisonShape:
    def test_spans_and_profile_tables_are_left_out(self):
        fields = dict(
            spans=[{"name": "pipeline", "path": "pipeline",
                    "duration_s": 0.5}],
            counters={"profile.cpu.opcode.ST": 4},
            gauges={"profile.cpu.stride": 8},
        )
        report = render_comparison(_manifest(**fields), _manifest(**fields))
        assert "Spans" not in report
        assert "Sampling profile" not in report
        # A profile counter is still a counter, compared like any other.
        assert _row(report, "Counters", "profile.cpu.opcode.ST") == [
            "4", "4", "+0.0%"]

    def test_swapping_the_runs_swaps_the_columns(self):
        after = _manifest(**{**_FULL, "counters": {"engine.events": 1500}})
        forward = render_comparison(_manifest(**_FULL), after)
        backward = render_comparison(after, _manifest(**_FULL))
        assert _row(forward, "Counters", "engine.events") == [
            "1,000", "1,500", "+50.0%"]
        assert _row(backward, "Counters", "engine.events") == [
            "1,500", "1,000", "-33.3%"]
        assert ([line.split()[:1] for line in forward.splitlines()]
                == [line.split()[:1] for line in backward.splitlines()])

    def test_header_names_both_targets(self):
        report = render_comparison(_manifest(target="table1"),
                                   _manifest(target=""))
        assert report.splitlines()[0] == (
            "Run manifests: before target=table1, after target=-"
        )

    def test_manifests_are_not_modified(self):
        before, after = _manifest(**_FULL), _manifest(counters={"x": 1})
        expected = (before.to_dict(), after.to_dict())
        render_comparison(before, after)
        assert (before.to_dict(), after.to_dict()) == expected


class TestShowTwoManifests:
    def test_prints_the_comparison_and_exits_0(self, tmp_path, capsys):
        before = _manifest(**_FULL)
        after = _manifest(**{**_FULL, "stages": {"qcd": {"trace": 2.0}}})
        a = before.write(tmp_path / "a.json")
        b = after.write(tmp_path / "b.json")
        assert cli_main(["show", str(a), str(b)]) == 0
        assert capsys.readouterr().out == render_comparison(before,
                                                            after) + "\n"

    @pytest.mark.parametrize("second", ["bad", "missing"])
    def test_invalid_second_manifest_exits_2(self, tmp_path, capsys, second):
        a = _manifest().write(tmp_path / "a.json")
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema_version": 1}', encoding="utf-8")
        assert cli_main(["show", str(a), str(tmp_path / f"{second}.json")]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert captured.out == ""

    def test_the_same_manifest_twice_exits_0(self, tmp_path, capsys):
        a = _manifest(**_FULL).write(tmp_path / "a.json")
        assert cli_main(["show", str(a), str(a)]) == 0
        changes = {line.split()[-1]
                   for line in capsys.readouterr().out.splitlines()[1:]
                   if line.endswith("%")}
        assert changes == {"+0.0%"}

    @pytest.mark.parametrize("first", ["bad", "missing"])
    def test_invalid_first_manifest_exits_2(self, tmp_path, capsys, first):
        b = _manifest().write(tmp_path / "b.json")
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema_version": 1}', encoding="utf-8")
        assert cli_main(["show", str(tmp_path / f"{first}.json"), str(b)]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert captured.out == ""

    def test_a_third_manifest_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["show", "a.json", "b.json", "c.json"])
        assert exc.value.code == 2
        assert "unrecognized arguments: c.json" in capsys.readouterr().err
