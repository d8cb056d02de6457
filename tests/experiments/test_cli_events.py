"""CLI surface of the flight recorder: the event log written beside the
manifest, the events subcommand, and diff's missing-argument case."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import faults, observe
from repro.experiments.cli import (
    EXIT_OK,
    EXIT_PIPELINE,
    main as cli_main,
)


@pytest.fixture(autouse=True)
def restore_observe_state():
    """CLI runs flip process-global observation; put it all back."""
    was_observing = observe.is_enabled()
    yield
    faults.clear_plan()
    observe.reset()
    observe.disable_events()
    if was_observing:
        observe.enable()
    else:
        observe.disable()


def _run_cli(tmp_path, *extra):
    argv = [
        "table4", "--scale", "smoke", "--programs", "gcc",
        "--cache-dir", str(tmp_path / "cache"), "--quiet",
    ]
    argv.extend(extra)
    return cli_main(argv)


def _assert_no_blackbox(tmp_path):
    """The event log is the one post-mortem record: no dump beside it."""
    assert list(tmp_path.rglob("*.blackbox.jsonl")) == []
    assert list(Path.cwd().glob("*.blackbox.jsonl")) == []


class TestEventLog:
    def test_log_beside_manifest_validates_and_correlates(
            self, tmp_path, capsys):
        log = tmp_path / "run.events.jsonl"
        manifest_path = tmp_path / "run.json"
        code = _run_cli(tmp_path, "--manifest", str(manifest_path))
        assert code == EXIT_OK
        capsys.readouterr()

        events = observe.load_event_log(log, allow_multiple_runs=False)
        categories = [e["category"] for e in events]
        assert categories[0] == "run.start"
        assert categories[-1] == "run.done"
        assert "program.start" in categories
        assert "program.done" in categories
        assert {"cache.hit", "cache.miss"} & set(categories)

        manifest = observe.load_manifest(manifest_path)
        assert manifest.events is not None
        assert manifest.events["run_id"] == events[0]["run_id"]
        assert manifest.events["log"] == str(log)
        # run.done lands after the manifest snapshot, so the summary
        # counts every event but that one.
        assert manifest.events["emitted"] == len(events) - 1
        assert sum(manifest.events["by_category"].values()) == len(events) - 1
        _assert_no_blackbox(tmp_path)

    def test_rerun_with_the_same_manifest_truncates_the_log(
            self, tmp_path, capsys):
        manifest_path = tmp_path / "run.json"
        assert _run_cli(tmp_path, "--manifest", str(manifest_path)) == EXIT_OK
        assert _run_cli(tmp_path, "--manifest", str(manifest_path)) == EXIT_OK
        capsys.readouterr()
        events = observe.load_event_log(tmp_path / "run.events.jsonl",
                                        allow_multiple_runs=True)
        manifest = observe.load_manifest(manifest_path)
        assert {e["run_id"] for e in events} == {manifest.events["run_id"]}
        assert [e["category"] for e in events].count("run.start") == 1

    def test_plain_run_keeps_events_off(self, tmp_path, capsys):
        observe.disable_events()
        assert _run_cli(tmp_path) == EXIT_OK
        capsys.readouterr()
        assert not observe.events_enabled()
        assert list(tmp_path.glob("*.jsonl")) == []


class TestFailedRunLog:
    def test_failure_exit_leaves_the_log(self, tmp_path, capsys):
        manifest_path = tmp_path / "run.json"
        code = _run_cli(
            tmp_path, "--manifest", str(manifest_path),
            "--retries", "0",
            "--inject-faults", "cache.write:fatal@gcc",
        )
        assert code == EXIT_PIPELINE
        err = capsys.readouterr().err
        log = tmp_path / "run.events.jsonl"
        assert f"[event log: {log}]" in err
        events = observe.load_event_log(log, allow_multiple_runs=False)
        categories = [e["category"] for e in events]
        assert "fault.triggered" in categories
        assert "program.failed" in categories
        assert categories[-1] == "run.done"
        (done,) = [e for e in events if e["category"] == "run.done"]
        assert done["data"]["code"] == EXIT_PIPELINE
        _assert_no_blackbox(tmp_path)

    def test_successful_run_ends_its_log_with_code_0(self, tmp_path, capsys):
        manifest_path = tmp_path / "ok.json"
        assert _run_cli(tmp_path, "--manifest", str(manifest_path)) == EXIT_OK
        assert "[event log:" not in capsys.readouterr().err
        events = observe.load_event_log(tmp_path / "ok.events.jsonl")
        assert events[-1]["category"] == "run.done"
        assert events[-1]["data"]["code"] == EXIT_OK
        _assert_no_blackbox(tmp_path)

    def test_observation_does_not_leak_into_a_later_run(
            self, tmp_path, monkeypatch, capsys):
        # An observed run turns the recorder on; the unobserved run
        # after it in the same process must record nothing, so it
        # writes no event log at all.
        monkeypatch.chdir(tmp_path)

        def failing_run(label, *extra):
            return cli_main([
                "table4", "--scale", "smoke", "--programs", "gcc",
                "--cache-dir", str(tmp_path / f"{label}-cache"), "--quiet",
                "--retries", "0", "--inject-faults", "cache.write:fatal@gcc",
                *extra,
            ])

        assert failing_run("a", "--manifest", "a.json") == EXIT_PIPELINE
        assert failing_run("b") == EXIT_PIPELINE
        assert failing_run("c", "--manifest", "c.json") == EXIT_PIPELINE
        capsys.readouterr()
        assert sorted(p.name for p in tmp_path.glob("*.jsonl")) == [
            "a.events.jsonl", "c.events.jsonl",
        ]
        _assert_no_blackbox(tmp_path)
        first, last = (
            observe.load_event_log(tmp_path / f"{label}.events.jsonl",
                                   allow_multiple_runs=False)
            for label in ("a", "c")
        )
        assert [e["category"] for e in last].count("run.start") == 1
        assert first[0]["run_id"] != last[0]["run_id"]


class TestEventsSubcommand:
    @pytest.fixture()
    def event_log(self, tmp_path, capsys):
        manifest_path = tmp_path / "run.json"
        assert _run_cli(tmp_path, "--manifest", str(manifest_path)) == EXIT_OK
        capsys.readouterr()
        return tmp_path / "run.events.jsonl"

    def test_plain_listing(self, event_log, capsys):
        assert cli_main(["events", str(event_log)]) == 0
        out = capsys.readouterr().out
        assert "run.start" in out and "run.done" in out
        assert "event(s)" in out

    def test_severity_filter(self, event_log, capsys):
        assert cli_main(["events", str(event_log),
                         "--severity", "WARNING"]) == 0
        out = capsys.readouterr().out
        assert "run.start" not in out  # INFO filtered away

    def test_category_prefix_and_tail(self, event_log, capsys):
        assert cli_main(["events", str(event_log), "--category", "cache",
                         "--tail", "1"]) == 0
        out = capsys.readouterr().out
        body = [line for line in out.splitlines()[1:] if line.strip()]
        assert len(body) == 1
        assert "cache." in body[0]

    def test_worker_filter_selects_parent(self, event_log, capsys):
        assert cli_main(["events", str(event_log), "--worker", ""]) == 0
        out = capsys.readouterr().out
        assert "run.start" in out

    def test_json_output_roundtrips(self, event_log, capsys):
        assert cli_main(["events", str(event_log), "--json"]) == 0
        out = capsys.readouterr().out
        parsed = [json.loads(line) for line in out.splitlines() if line]
        assert parsed and all("category" in e for e in parsed)

    def test_time_range_filter(self, event_log, capsys):
        assert cli_main(["events", str(event_log),
                         "--since", "0", "--until", "1e9"]) == 0
        assert "run.start" in capsys.readouterr().out

    def test_missing_log_is_usage_error(self, tmp_path, capsys):
        assert cli_main(["events", str(tmp_path / "nope.jsonl")]) == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_log_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"not": "an event"}\n{"v": 1}\n', encoding="utf-8")
        assert cli_main(["events", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_empty_log_is_friendly(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        assert cli_main(["events", str(empty)]) == 0
        assert "empty" in capsys.readouterr().out


class TestGracefulDiff:
    def test_diff_needs_two_manifests(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["diff", "a.json"])
        assert exc.value.code == 2
        assert "required: after" in capsys.readouterr().err
