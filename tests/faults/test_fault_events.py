"""Flight-recorder events from the fault paths.

Every armed plan and triggered faultpoint leaves a structured event,
and the cache-less (readonly) degradation warns out loud instead of
silently downgrading — the satellite requirements of the event-log PR.
"""

from __future__ import annotations

import pytest

from repro import faults, observe
from repro.experiments.pipeline import ExperimentConfig, load_program_data

PROGRAM = "gcc"


@pytest.fixture()
def recording():
    was_enabled = observe.events_enabled()
    run_id = observe.enable_events()
    yield run_id
    observe.get_recorder().reset()
    if not was_enabled:
        observe.disable_events()


def _events(category=None):
    entries = observe.get_recorder().entries()
    if category is None:
        return entries
    return [e for e in entries if e.category == category]


def test_install_emits_fault_armed(recording):
    faults.install("cache.read:corrupt@gcc", seed=7, scope="cli", attempt=2)
    (armed,) = _events("fault.armed")
    assert armed.severity == "INFO"
    assert armed.data == {
        "spec": "cache.read:corrupt@gcc", "seed": 7,
        "scope": "cli", "attempt": 2,
    }


def test_trigger_emits_fault_triggered_with_context(recording):
    faults.install("io.write:corrupt")
    with pytest.raises(faults.InjectedCorruption):
        faults.faultpoint("io.write", program=PROGRAM, kind="sim")
    (triggered,) = _events("fault.triggered")
    assert triggered.severity == "WARNING"
    assert triggered.data == {
        "site": "io.write", "action": "corrupt",
        "program": PROGRAM, "kind": "sim",
    }


def test_faultpoints_stay_quiet_with_events_off():
    observe.disable_events()
    before = len(observe.get_recorder().entries())
    faults.install("cache.read:corrupt")
    with pytest.raises(faults.InjectedCorruption):
        faults.faultpoint("cache.read")
    assert len(observe.get_recorder().entries()) == before


def test_readonly_fallback_warns_with_event_and_note(
        tmp_path, observing, recording):
    """An injected cache-write OSError degrades to cache-less mode and
    says so: a WARNING ``cache.readonly`` event plus the note list —
    never a silent downgrade."""
    faults.install("cache.write:oserror", scope=PROGRAM)
    config = ExperimentConfig(
        programs=(PROGRAM,), scale="smoke", cache_dir=tmp_path / "cache"
    )
    messages = []
    data = load_program_data(PROGRAM, config, messages.append)
    assert data.result.sessions  # the run still produced data

    readonly = _events("cache.readonly")
    assert readonly, "cache-less degradation must emit cache.readonly"
    assert all(e.severity == "WARNING" for e in readonly)
    assert readonly[0].data["program"] == PROGRAM
    assert readonly[0].data["error"] == "InjectedOSError"
    assert {e.data["kind"] for e in readonly} <= {"trace", "sim"}

    snapshot = observing.snapshot()
    assert snapshot["counters"]["cache.readonly"] >= 1
    assert snapshot["notes"]["cache.readonly"]
    assert any("unwritable" in message for message in messages)
    # The injection itself is on the record too, matched one-to-one.
    assert len(_events("fault.triggered")) >= len(readonly)


def test_unwritable_cache_dir_warns_without_injection(tmp_path, recording):
    """The real thing (cache dir nested under a file) takes the same
    path as the injected OSError."""
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    config = ExperimentConfig(
        programs=(PROGRAM,), scale="smoke", cache_dir=blocker / "cache"
    )
    data = load_program_data(PROGRAM, config)
    assert data.result.sessions
    readonly = _events("cache.readonly")
    assert readonly and all(e.severity == "WARNING" for e in readonly)
