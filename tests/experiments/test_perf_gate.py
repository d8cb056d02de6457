"""Integration: two runs compare through ``show`` end to end.

Runs ``table4 --scale smoke --manifest`` twice and compares the two
manifests with ``repro-experiments show a.json b.json``, which prints
both runs' numbers and exits 0 whatever they are.  Also exercises
``--profile`` and one-manifest ``show`` through the real CLI entry
point, and checks that the manifest is the one perf record: the
trajectory store, the ``diff`` verdict, the stderr reports, the Chrome
trace and their flags are gone.
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


class TestShowTwoRuns:
    def test_two_smoke_runs_compare_in_either_order(
        self, cache_dir, tmp_path, capsys
    ):
        a_path = tmp_path / "a.json"
        b_path = tmp_path / "b.json"
        assert run_cli("--manifest", str(a_path), cache_dir=cache_dir) == 0
        assert run_cli("--manifest", str(b_path), cache_dir=cache_dir) == 0
        capsys.readouterr()

        # No verdict: two runs of the same code compare with exit 0 in
        # either order, and the stage rows carry both runs' numbers.
        for pair in ((a_path, b_path), (b_path, a_path)):
            assert cli_main(["show", *map(str, pair)]) == 0
            out = capsys.readouterr().out
            assert "verdict" not in out.lower()
            before, after = map(observe.load_manifest, pair)
            row = next(line.split() for line in out.splitlines()
                       if line.startswith("[all] model ms "))
            assert row[3:5] == [
                f"{before.stages['all']['model'] * 1000.0:,.1f}",
                f"{after.stages['all']['model'] * 1000.0:,.1f}",
            ]
            assert "Counters" in out and "Spans" not in out

    def test_slowed_stage_exits_0_with_both_values(
        self, cache_dir, tmp_path, capsys
    ):
        b_path = tmp_path / "b.json"
        assert run_cli("--manifest", str(b_path), cache_dir=cache_dir) == 0
        slowed = json.loads(b_path.read_text(encoding="utf-8"))
        slowed["stages"]["all"]["model"] = 1.5
        c_path = tmp_path / "c.json"
        c_path.write_text(json.dumps(slowed), encoding="utf-8")
        capsys.readouterr()

        assert cli_main(["show", str(b_path), str(c_path)]) == 0
        row = next(line.split() for line in capsys.readouterr().out.splitlines()
                   if line.startswith("[all] model ms "))
        assert row[4] == "1,500.0"
        assert row[5].startswith("+") and row[5].endswith("%")

    def test_unreadable_manifest_exits_2(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{not json", encoding="utf-8")
        assert cli_main(["show", str(bogus), str(bogus)]) == 2
        assert "error:" in capsys.readouterr().err


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
    """The manifest, read by ``show``, is the one in-program perf record:
    the trajectory store, ``trend`` and ``diff`` are gone, and the
    manifest's shape is unchanged by their removal."""

    @pytest.mark.parametrize("argv, message", [
        (["trend"], "invalid choice: 'trend'"),
        (["table4", "--history", "F"], "unrecognized arguments: --history"),
        (["diff", "a.json", "b.json"], "invalid choice: 'diff'"),
        (["diff", "--report-only", "a.json", "b.json"],
         "invalid choice: 'diff'"),
        (["show", "--report-only", "a.json", "b.json"],
         "unrecognized arguments: --report-only"),
        (["show", "--json", "a.json", "b.json"],
         "unrecognized arguments: --json"),
        (["table1", "--profile-stride", "5"],
         "unrecognized arguments: --profile-stride"),
        (["table4", "--metrics"], "unrecognized arguments: --metrics"),
        (["table4", "--trace-out", "X"], "unrecognized arguments: --trace-out"),
        (["table4", "--events", "X"], "unrecognized arguments: --events"),
        (["table4", "--profile"], "--profile needs --manifest"),
    ], ids=["trend", "history", "diff", "diff-report-only",
            "show-report-only", "show-json", "profile-stride", "metrics",
            "trace-out", "events", "profile-without-manifest"])
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
        for module in ("repro.observe.history", "repro.observe.diff"):
            assert importlib.util.find_spec(module) is None
        for name in ("DEFAULT_HISTORY_FILE", "HISTORY_SCHEMA_VERSION",
                     "HistoryRecord", "append_record", "load_history",
                     "render_trend", "DiffEntry", "DiffThresholds",
                     "ManifestDiff", "diff_manifests", "render_diff_report"):
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
