"""Histogram percentiles: p50/p95/p99 in summaries and in ``show``."""

from __future__ import annotations

import pytest

from repro.observe.manifest import RunManifest
from repro.observe.report import render_manifest

pytestmark = pytest.mark.observe


class TestHistogramPercentiles:
    def test_summary_carries_p95_and_p99(self, observing):
        histogram = observing.histogram("latency")
        for value in range(1, 101):  # 1..100
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["p50"] == pytest.approx(50, abs=1)
        assert summary["p90"] == pytest.approx(90, abs=1)
        assert summary["p95"] == pytest.approx(95, abs=1)
        assert summary["p99"] == pytest.approx(99, abs=1)
        assert summary["p50"] <= summary["p95"] <= summary["p99"] <= summary["max"]

    def test_report_renders_percentile_columns(self, observing):
        for value in range(100):
            observing.observe_value("latency", float(value))
        report = render_manifest(RunManifest.from_registry(observing))
        header_line = next(
            line for line in report.splitlines() if line.startswith("histogram")
        )
        assert "p50" in header_line
        assert "p95" in header_line
        assert "p99" in header_line
        assert "p90" not in header_line  # replaced by the tail percentiles

    def test_single_observation_percentiles_degenerate(self, observing):
        histogram = observing.histogram("one")
        histogram.observe(7.0)
        summary = histogram.summary()
        assert summary["p50"] == summary["p95"] == summary["p99"] == 7.0
