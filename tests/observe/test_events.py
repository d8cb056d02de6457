"""Flight recorder unit tests: entries, sink, schema, transport, reset."""

from __future__ import annotations

import json

import pytest

from repro import observe


@pytest.fixture()
def recording():
    """Event recording on with fresh entries; restore state afterwards."""
    was_enabled = observe.events_enabled()
    run_id = observe.enable_events()
    yield run_id
    observe.get_recorder().reset()
    if not was_enabled:
        observe.disable_events()


def test_emit_while_disabled_records_nothing():
    observe.disable_events()
    recorder = observe.get_recorder()
    before = len(recorder.entries())
    observe.emit_event("cache.hit", kind="trace")
    assert len(recorder.entries()) == before
    assert observe.events_summary() is None
    assert observe.dump_events_state() is None


def test_enable_generates_run_id_and_records(recording):
    assert len(recording) == 12
    assert observe.current_run_id() == recording
    observe.emit_event("program.start", program="gcc", scale=3)
    observe.emit_event("fault.triggered", "WARNING", site="cache.read")
    entries = observe.get_recorder().entries()
    assert [e.category for e in entries] == ["program.start", "fault.triggered"]
    assert [e.seq for e in entries] == [0, 1]
    assert entries[0].run_id == recording
    assert entries[0].data == {"program": "gcc", "scale": 3}
    assert entries[1].severity == "WARNING"


def test_summary_counts_by_severity_and_category(recording):
    observe.emit_event("cache.hit")
    observe.emit_event("cache.hit")
    observe.emit_event("cache.miss")
    observe.emit_event("pool.broken", "WARNING")
    summary = observe.events_summary()
    assert summary["run_id"] == recording
    assert summary["emitted"] == 4
    assert summary["dropped"] == 0
    assert summary["by_severity"] == {"INFO": 3, "WARNING": 1}
    assert summary["by_category"] == {
        "cache.hit": 2, "cache.miss": 1, "pool.broken": 1,
    }


def test_every_event_is_kept_and_counted(recording):
    # More events than a run emits by far: none is dropped, and the
    # summary counts every one.
    for index in range(600):
        observe.emit_event("tick", n=index)
    recorder = observe.get_recorder()
    entries = recorder.entries()
    assert [e.data["n"] for e in entries] == list(range(600))
    assert [e.seq for e in entries] == list(range(600))
    summary = recorder.summary()
    assert summary["emitted"] == len(entries) == 600
    assert summary["dropped"] == 0
    assert summary["by_category"] == {"tick": 600}
    assert summary["run_id"] == recording


def test_bad_severity_rejected_at_emit(recording):
    with pytest.raises(ValueError):
        observe.get_recorder().record("cache.hit", severity="LOUD")


def test_sink_writes_validating_jsonl(tmp_path):
    log = tmp_path / "run.events.jsonl"
    run_id = observe.enable_events(sink_path=log)
    try:
        observe.emit_event("run.start", target="table4")
        observe.emit_event("cache.miss", kind="sim", program="gcc")
    finally:
        observe.disable_events()
    events = observe.load_event_log(log, allow_multiple_runs=False)
    assert [e["category"] for e in events] == ["run.start", "cache.miss"]
    assert all(e["run_id"] == run_id for e in events)
    assert events[0]["seq"] == 0 and events[1]["seq"] == 1


def test_payload_values_coerced_to_json_scalars(tmp_path):
    log = tmp_path / "coerce.jsonl"
    observe.enable_events(sink_path=log)
    try:
        observe.emit_event("cache.hit", path=tmp_path, count=2, ok=True)
    finally:
        observe.disable_events()
    (event,) = observe.load_event_log(log)
    assert event["data"] == {"path": str(tmp_path), "count": 2, "ok": True}


def test_torn_final_line_is_skipped(tmp_path):
    log = tmp_path / "torn.jsonl"
    observe.enable_events(sink_path=log)
    try:
        observe.emit_event("run.start")
        observe.emit_event("cache.hit")
    finally:
        observe.disable_events()
    with open(log, "a", encoding="utf-8") as handle:
        handle.write('{"v": 1, "seq": 2, "t_wall"')  # crashed writer
    events = observe.load_event_log(log)
    assert len(events) == 2


def test_torn_middle_line_is_an_error(tmp_path):
    log = tmp_path / "bad.jsonl"
    observe.enable_events(sink_path=log)
    try:
        observe.emit_event("run.start")
    finally:
        observe.disable_events()
    good = log.read_text(encoding="utf-8")
    log.write_text("not json\n" + good, encoding="utf-8")
    with pytest.raises(ValueError, match="not valid JSON"):
        observe.load_event_log(log)


def test_validate_event_dict_rejects_bad_shapes(recording):
    observe.emit_event("cache.hit")
    good = observe.get_recorder().entries()[0].to_dict()
    observe.validate_event_dict(good)

    for mutation, match in [
        ({"v": 99}, "unsupported schema version"),
        ({"seq": -1}, "'seq'"),
        ({"seq": True}, "'seq'"),
        ({"t_wall": "noon"}, "'t_wall'"),
        ({"severity": "LOUD"}, "severity"),
        ({"category": ""}, "'category'"),
        ({"run_id": ""}, "'run_id'"),
        ({"worker": None}, "'worker'"),
        ({"data": []}, "'data'"),
    ]:
        bad = dict(good, **mutation)
        with pytest.raises(ValueError, match=match):
            observe.validate_event_dict(bad)
    with pytest.raises(ValueError, match="missing keys"):
        observe.validate_event_dict({"v": 1})
    with pytest.raises(ValueError, match="JSON object"):
        observe.validate_event_dict([good])


def test_log_lines_must_be_seq_monotonic_and_single_run(recording):
    observe.emit_event("a")
    observe.emit_event("b")
    lines = [
        json.dumps(entry.to_dict())
        for entry in observe.get_recorder().entries()
    ]
    observe.validate_event_log_lines(lines)
    with pytest.raises(ValueError, match="strictly increasing"):
        observe.validate_event_log_lines([lines[1], lines[0]])
    other = json.loads(lines[1])
    other["run_id"] = "deadbeef0000"
    with pytest.raises(ValueError, match="distinct run_ids"):
        observe.validate_event_log_lines([lines[0], json.dumps(other)])
    observe.validate_event_log_lines(
        [lines[0], json.dumps(other)], allow_multiple_runs=True
    )


def test_sink_is_truncated_when_rearmed(tmp_path):
    log = tmp_path / "run.events.jsonl"
    observe.enable_events(sink_path=log)
    try:
        observe.emit_event("first")
        run_id = observe.enable_events(sink_path=log)
        observe.emit_event("second")
    finally:
        observe.disable_events()
    events = observe.load_event_log(log, allow_multiple_runs=False)
    assert [e["category"] for e in events] == ["second"]
    assert events[0]["run_id"] == run_id


def test_observe_reset_clears_ring_but_keeps_identity(recording):
    observe.emit_event("cache.hit")
    observe.reset()  # the registered reset hook clears the ring
    recorder = observe.get_recorder()
    assert recorder.entries() == []
    assert recorder.run_id == recording
    assert observe.events_enabled()


def test_reconfigure_rotates_run_id_and_clears(recording):
    observe.emit_event("cache.hit")
    new_id = observe.enable_events()
    assert new_id != recording
    assert observe.get_recorder().entries() == []


def test_sink_survives_oserror_by_detaching(tmp_path, recording):
    log = tmp_path / "detach.jsonl"
    observe.enable_events(run_id=recording, sink_path=log)
    observe.emit_event("a")
    recorder = observe.get_recorder()

    class _FullDisk:
        def write(self, _line):
            raise OSError("no space left on device")

        def close(self):
            pass

    recorder._sink = _FullDisk()  # the disk goes away mid-run
    observe.emit_event("b")  # must not raise
    assert recorder.sink_path is None
    assert recorder._sink is None
    assert [e.category for e in recorder.entries()] == ["a", "b"]


def test_torn_final_line_warns_through_callback(tmp_path):
    # Regression: the torn tail is tolerated *with a warning*, so the
    # CLI and the lint tool can tell the user the writer was killed
    # mid-append rather than silently shortening the log.
    log = tmp_path / "torn.jsonl"
    observe.enable_events(sink_path=log)
    try:
        observe.emit_event("run.start")
    finally:
        observe.disable_events()
    with open(log, "a", encoding="utf-8") as handle:
        handle.write('{"v": 1, "seq": 1, "t_wall"')
    warnings = []
    events = observe.load_event_log(log, on_warning=warnings.append)
    assert len(events) == 1
    assert len(warnings) == 1
    assert "torn final line" in warnings[0]


def test_lint_tool_warns_not_errors_on_torn_tail(tmp_path, capsys):
    import importlib.util
    from pathlib import Path

    spec = importlib.util.spec_from_file_location(
        "lint_event_log",
        Path(__file__).resolve().parents[2] / "tools" / "lint_event_log.py",
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)

    log = tmp_path / "torn.jsonl"
    observe.enable_events(sink_path=log)
    try:
        observe.emit_event("run.start")
        observe.emit_event("cache.hit")
    finally:
        observe.disable_events()
    with open(log, "a", encoding="utf-8") as handle:
        handle.write('{"v": 1, "seq": 2')
    assert tool.main([str(log)]) == 0
    captured = capsys.readouterr()
    assert "warning:" in captured.err
    assert "torn final line" in captured.err
    assert "OK — 2 event(s)" in captured.out


def test_events_subcommand_warns_on_torn_tail(tmp_path, capsys):
    from repro.experiments.cli import main as cli_main

    log = tmp_path / "torn.jsonl"
    observe.enable_events(sink_path=log)
    try:
        observe.emit_event("run.start")
    finally:
        observe.disable_events()
    with open(log, "a", encoding="utf-8") as handle:
        handle.write('{"v": 1, "seq": 1, "t_w')
    assert cli_main(["events", str(log)]) == 0
    captured = capsys.readouterr()
    assert "torn final line" in captured.err
    assert "1 of 1 event(s)" in captured.out
