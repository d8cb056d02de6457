"""Integration: the perf gate is one command end to end.

Covers the acceptance path: run ``table4 --scale smoke --manifest`` twice,
``repro-experiments diff a.json b.json`` exits 0; degrade a stage timing
past threshold and the diff exits non-zero with a readable report.  Also
exercises ``--profile`` and ``show`` through the real CLI entry point,
and checks that the manifest is the one perf record: the trajectory
store, the stderr reports, the Chrome trace and their flags are gone.
"""

from __future__ import annotations

import importlib.util
import json

import pytest

from repro import observe
from repro.experiments.cli import main as cli_main
from repro.observe import profile as observe_profile

pytestmark = pytest.mark.observe

PROGRAM = "qcd"  # heapless and quick at smoke scale


@pytest.fixture(autouse=True)
def clean_observe_state():
    """The CLI flips process-global observation state; restore it."""
    was_enabled = observe.is_enabled()
    yield
    if not was_enabled:
        observe.disable()
    observe_profile.disable_profiling()
    observe.reset()


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("perf_gate_cache")


def run_cli(*extra, cache_dir):
    return cli_main([
        "table4", "--scale", "smoke", "--programs", PROGRAM,
        "--cache-dir", str(cache_dir), "--quiet", *extra,
    ])


class TestDiffGate:
    def test_identical_runs_pass_and_degraded_stage_fails(
        self, cache_dir, tmp_path, capsys
    ):
        a_path = tmp_path / "a.json"
        b_path = tmp_path / "b.json"
        assert run_cli("--manifest", str(a_path), cache_dir=cache_dir) == 0
        assert run_cli("--manifest", str(b_path), cache_dir=cache_dir) == 0

        # Two runs of the same target: no metric regressed, gate passes.
        assert cli_main(["diff", str(a_path), str(b_path)]) == 0
        out = capsys.readouterr().out
        assert "verdict: OK" in out

        # Degrade one stage timing past the 25% relative + 5ms absolute
        # thresholds: the gate must fail with a readable report.
        degraded = json.loads(b_path.read_text(encoding="utf-8"))
        program, stages = next(iter(degraded["stages"].items()))
        stage = next(iter(stages))
        stages[stage] = stages[stage] * 10.0 + 1.0
        c_path = tmp_path / "c.json"
        c_path.write_text(json.dumps(degraded), encoding="utf-8")

        assert cli_main(["diff", str(b_path), str(c_path)]) == 1
        out = capsys.readouterr().out
        assert "verdict: REGRESSION" in out
        assert f"stages/{program}/{stage}" in out
        assert "slowed" in out

        # --report-only downgrades the same regression to exit 0.
        assert cli_main([
            "diff", str(b_path), str(c_path), "--report-only",
        ]) == 0

    def test_json_verdict_output(self, cache_dir, tmp_path, capsys):
        a_path = tmp_path / "a.json"
        assert run_cli("--manifest", str(a_path), cache_dir=cache_dir) == 0
        capsys.readouterr()
        assert cli_main(["diff", str(a_path), str(a_path), "--json"]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["verdict"] == "ok"
        assert verdict["n_regressions"] == 0

    def test_unreadable_manifest_exits_2(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{not json", encoding="utf-8")
        assert cli_main(["diff", str(bogus), str(bogus)]) == 2
        assert "error:" in capsys.readouterr().err


def _manifest(path, stages=None, eps_mean=None, cache=None,
              environment=None):
    """Write a minimal manifest with just the families ``diff`` gates on."""
    histograms = {}
    if eps_mean is not None:
        histograms["engine.events_per_sec"] = {
            "count": 1, "min": eps_mean, "max": eps_mean, "mean": eps_mean,
            "p50": eps_mean, "p90": eps_mean, "p95": eps_mean,
            "p99": eps_mean, "total": eps_mean,
        }
    observe.RunManifest(
        target="t", stages=stages or {}, histograms=histograms,
        cache=cache or {}, environment=environment or {"python": "3.x"},
    ).write(path)
    return str(path)


class TestFixedThresholds:
    """``diff`` gates at the defaults of ``DiffThresholds``, the values
    docs/OBSERVABILITY.md gives: a stage slowed by > 25% and > 5 ms,
    throughput down > 25%, a cache hit rate down > 0.10."""

    def test_defaults_are_the_documented_values(self):
        assert observe.DiffThresholds() == observe.DiffThresholds(
            stage_rel=0.25, stage_abs_s=0.005, eps_rel=0.25,
            cache_hit_rate_abs=0.10, counter_drift_rel=0.50,
        )

    @pytest.mark.parametrize("before, after, code", [
        ({"stages": {"p": {"simulate": 0.100}}},
         {"stages": {"p": {"simulate": 0.124}}}, 0),
        ({"stages": {"p": {"simulate": 0.100}}},
         {"stages": {"p": {"simulate": 0.126}}}, 1),
        ({"stages": {"p": {"simulate": 0.010}}},
         {"stages": {"p": {"simulate": 0.014}}}, 0),
        ({"stages": {"p": {"simulate": 0.010}}},
         {"stages": {"p": {"simulate": 0.016}}}, 1),
        ({"eps_mean": 1_000_000.0}, {"eps_mean": 760_000.0}, 0),
        ({"eps_mean": 1_000_000.0}, {"eps_mean": 740_000.0}, 1),
        ({"cache": {"sim": {"hits": 90, "misses": 10}}},
         {"cache": {"sim": {"hits": 81, "misses": 19}}}, 0),
        ({"cache": {"sim": {"hits": 90, "misses": 10}}},
         {"cache": {"sim": {"hits": 79, "misses": 21}}}, 1),
    ], ids=["stage-under-rel", "stage-over-rel", "stage-under-abs",
            "stage-over-abs", "eps-under", "eps-over", "hit-rate-under",
            "hit-rate-over"])
    def test_exit_code_flips_at_the_default(
        self, tmp_path, capsys, before, after, code
    ):
        a = _manifest(tmp_path / "a.json", **before)
        b = _manifest(tmp_path / "b.json", **after)
        assert cli_main(["diff", a, b]) == code
        verdict = "REGRESSION" if code else "OK"
        assert f"verdict: {verdict}" in capsys.readouterr().out

    def test_json_verdict_of_a_regression_exits_1(self, tmp_path, capsys):
        a = _manifest(tmp_path / "a.json", stages={"p": {"simulate": 0.1}})
        b = _manifest(tmp_path / "b.json", stages={"p": {"simulate": 0.2}})
        assert cli_main(["diff", a, b, "--json"]) == 1
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["verdict"] == "regression"
        assert verdict["n_regressions"] == 1

    def test_cross_environment_regression_does_not_gate(
        self, tmp_path, capsys
    ):
        a = _manifest(tmp_path / "a.json", stages={"p": {"simulate": 0.1}},
                      environment={"python": "3.x"})
        b = _manifest(tmp_path / "b.json", stages={"p": {"simulate": 0.2}},
                      environment={"python": "3.y"})
        assert cli_main(["diff", a, b]) == 0
        assert "verdict: WARNING" in capsys.readouterr().out


class TestProfileFlag:
    def test_profile_prints_top_n_and_fills_manifest_counters(
        self, cache_dir, tmp_path, capsys
    ):
        manifest_path = tmp_path / "p.json"
        # --no-cache forces the CPU + engine to actually run so both
        # sampled families have data.
        assert cli_main([
            "table4", "--scale", "smoke", "--programs", PROGRAM,
            "--cache-dir", str(cache_dir), "--quiet", "--no-cache",
            "--profile", "--manifest", str(manifest_path),
        ]) == 0
        assert "Sampling profile" not in capsys.readouterr().err
        assert cli_main(["show", str(manifest_path)]) == 0
        shown = capsys.readouterr().out
        assert "Sampling profile" in shown
        assert "CPU opcodes" in shown
        assert "Engine events" in shown
        manifest = observe.load_manifest(manifest_path)
        opcode_counters = [
            name for name in manifest.counters
            if name.startswith("profile.cpu.opcode.")
        ]
        event_counters = [
            name for name in manifest.counters
            if name.startswith("profile.engine.event.")
        ]
        assert opcode_counters and event_counters
        assert manifest.gauges["profile.cpu.stride"] == observe.DEFAULT_SAMPLE_STRIDE

    def test_show_unreadable_manifest_exits_2(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{not json", encoding="utf-8")
        assert cli_main(["show", str(bogus)]) == 2
        assert "error:" in capsys.readouterr().err
        assert cli_main(["show", str(tmp_path / "missing.json")]) == 2
        assert "error:" in capsys.readouterr().err


class TestOnePerfRecord:
    """The manifest plus ``diff`` is the one in-program perf record: the
    trajectory store, ``trend`` and the unset ``diff`` knobs are gone, and
    the manifest's shape is unchanged by their removal."""

    @pytest.mark.parametrize("argv, message", [
        (["trend"], "invalid choice: 'trend'"),
        (["table4", "--history", "F"], "unrecognized arguments: --history"),
        (["diff", "--history", "F", "G"], "unrecognized arguments: --history"),
        (["diff", "a.json", "b.json", "--stage-rel", "0.1"],
         "unrecognized arguments: --stage-rel"),
        (["diff", "a.json", "b.json", "--stage-abs-ms", "5"],
         "unrecognized arguments: --stage-abs-ms"),
        (["diff", "a.json", "b.json", "--eps-rel", "0.1"],
         "unrecognized arguments: --eps-rel"),
        (["diff", "a.json", "b.json", "--hit-rate-abs", "0.1"],
         "unrecognized arguments: --hit-rate-abs"),
        (["diff", "a.json", "b.json", "--fail-on-regression"],
         "unrecognized arguments: --fail-on-regression"),
        (["table1", "--profile-stride", "5"],
         "unrecognized arguments: --profile-stride"),
        (["table4", "--metrics"], "unrecognized arguments: --metrics"),
        (["table4", "--trace-out", "X"], "unrecognized arguments: --trace-out"),
        (["table4", "--events", "X"], "unrecognized arguments: --events"),
        (["table4", "--profile"], "--profile needs --manifest"),
    ], ids=["trend", "history", "diff-history", "stage-rel", "stage-abs-ms",
            "eps-rel", "hit-rate-abs", "fail-on-regression", "profile-stride",
            "metrics", "trace-out", "events", "profile-without-manifest"])
    def test_removed_surfaces_are_usage_errors(
        self, tmp_path, monkeypatch, capsys, argv, message
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_observe_exports_no_history_name(self):
        assert importlib.util.find_spec("repro.observe.history") is None
        for name in ("DEFAULT_HISTORY_FILE", "HISTORY_SCHEMA_VERSION",
                     "HistoryRecord", "append_record", "load_history",
                     "render_trend"):
            assert name not in observe.__all__
            assert not hasattr(observe, name)
        assert not hasattr(observe.RunManifest, "digest")

    def test_manifest_key_set_is_unchanged(self, cache_dir, tmp_path):
        path = tmp_path / "m.json"
        assert run_cli("--manifest", str(path), cache_dir=cache_dir) == 0
        data = json.loads(path.read_text(encoding="utf-8"))
        assert set(data) == {
            "cache", "config", "counters", "environment", "events",
            "failures", "gauges", "histograms", "schema_version", "spans",
            "stages", "target",
        }
        assert set(data["config"]) == {
            "cache_dir", "engine", "fault_seed", "inject_faults", "jobs",
            "keep_going", "page_sizes", "programs", "retries", "scale",
            "use_cache", "worker_timeout",
        }
