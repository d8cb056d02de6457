"""Integration: the instrumented pipeline produces a valid run manifest."""

from __future__ import annotations

import pytest

from repro import observe
from repro.experiments.cli import main as cli_main
from repro.experiments.pipeline import ExperimentConfig, load_program_data
from repro.observe.manifest import RunManifest, load_manifest
from repro.observe.report import render_manifest

pytestmark = pytest.mark.observe

PROGRAM = "qcd"  # heapless and quick at smoke scale


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("observe_cache")


class TestPipelineObservation:
    def test_cold_run_records_stages_and_cache_misses(self, observing, cache_dir):
        config = ExperimentConfig(
            programs=(PROGRAM,), scale="smoke", cache_dir=cache_dir
        )
        load_program_data(PROGRAM, config)
        manifest = RunManifest.from_registry(target="unit")
        stages = manifest.stages[PROGRAM]
        assert set(stages) >= {"compile", "trace", "simulate"}
        assert all(seconds >= 0 for seconds in stages.values())
        assert manifest.cache["trace"]["misses"] == 1
        assert manifest.cache["sim"]["misses"] == 1
        assert manifest.cache["trace"]["written"] and manifest.cache["sim"]["written"]
        assert manifest.counters["engine.runs"] == 1
        assert manifest.counters["trace.events"] == manifest.counters["engine.events"]
        assert manifest.counters["cpu.stores"] == manifest.counters["trace.writes"]

    def test_warm_run_records_cache_hits(self, observing, cache_dir):
        config = ExperimentConfig(
            programs=(PROGRAM,), scale="smoke", cache_dir=cache_dir
        )
        load_program_data(PROGRAM, config)  # warm (cached by previous test)
        manifest = RunManifest.from_registry()
        assert manifest.cache["sim"]["hits"] == 1
        assert manifest.cache["sim"]["used"]
        # a sim-cache hit skips tracing and simulating entirely
        assert "engine.runs" not in manifest.counters

    def test_metrics_report_renders(self, observing, cache_dir):
        config = ExperimentConfig(
            programs=(PROGRAM,), scale="smoke", cache_dir=cache_dir
        )
        load_program_data(PROGRAM, config)
        text = render_manifest(RunManifest.from_registry())
        assert "Counters" in text and "cache.sim.hits" in text


class TestCliObservation:
    def test_manifest_flag_writes_valid_manifest(self, observing, cache_dir, tmp_path, capsys):
        manifest_path = tmp_path / "run.json"
        code = cli_main([
            "table1", "--scale", "smoke", "--programs", PROGRAM,
            "--cache-dir", str(cache_dir), "--quiet",
            "--manifest", str(manifest_path),
        ])
        assert code == 0
        manifest = load_manifest(manifest_path)  # validates on load
        assert manifest.target == "table1"
        assert manifest.config["programs"] == [PROGRAM]
        assert "model" in manifest.stages["all"]
        span_names = {span["name"] for span in manifest.spans}
        assert {"pipeline", "model", f"program:{PROGRAM}"} <= span_names
        capsys.readouterr()
        assert cli_main(["show", str(manifest_path)]) == 0
        shown = capsys.readouterr().out
        assert shown.startswith("Run manifest: target=table1")
        assert "cache/sim" in shown
        assert "Spans (wall clock)" in shown and "Counters" in shown
