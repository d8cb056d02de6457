"""Run journal: record integrity, replay semantics, resume planning.

The journal is the write-ahead half of crash-safe runs: ``task.intent``
is durable before work starts, ``task.done`` lands only after the
store's atomic publish, and replay must survive exactly the artifacts a
SIGKILL leaves behind (a torn final line, a missing completion).  The
end-to-end kill-and-resume certification lives in ``test_resume.py``;
these tests pin the record format and the skip/re-execute logic.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import JournalError, PipelineError
from repro.experiments.journal import (
    RunJournal,
    config_digest,
    journal_path,
    plan_resume,
    replay_journal,
    task_digest,
    task_entries,
)
from repro.experiments.pipeline import ExperimentConfig
from repro.experiments.store import ResultStore


def make_config(tmp_path, programs=("gcc", "qcd"), **kwargs):
    return ExperimentConfig(
        programs=tuple(programs), scale="smoke", cache_dir=tmp_path / "cache",
        **kwargs,
    )


@pytest.fixture()
def config(tmp_path):
    return make_config(tmp_path)


def write_journal(config, run_id="r1", fsync="never"):
    return RunJournal(journal_path(run_id, config), run_id, fsync=fsync)


class TestRecords:
    def test_roundtrip_replay(self, config):
        with write_journal(config) as journal:
            journal.begin(config)
            journal.intent_for("gcc", config, attempt=1)
            journal.done_for("gcc", config)
            journal.intent_for("qcd", config, attempt=1)
            journal.failed_for("qcd", config, "PipelineError", attempts=2)
            journal.seal("failed", exit_code=4)
        replay = replay_journal(journal.path)
        assert replay.run_id == "r1"
        assert replay.config == config_digest(config)
        assert replay.programs == ["gcc", "qcd"]
        assert replay.status == "failed" and replay.exit_code == 4
        assert replay.sealed and not replay.torn
        assert replay.records == 6
        assert replay.state_of(task_digest("gcc", config)) == "done"
        assert replay.state_of(task_digest("qcd", config)) == "failed"
        assert replay.state_of("0" * 16) == "unknown"

    def test_every_record_is_checksummed(self, config):
        with write_journal(config) as journal:
            journal.begin(config)
            journal.done_for("gcc", config)
        for line in journal.path.read_text().splitlines():
            record = json.loads(line)
            assert record["v"] == 1
            assert len(record.pop("sum")) == 8

    def test_done_after_failed_wins(self, config):
        with write_journal(config) as journal:
            journal.begin(config)
            journal.failed_for("gcc", config, "InjectedOSError")
            journal.done_for("gcc", config)
        replay = replay_journal(journal.path)
        digest = task_digest("gcc", config)
        assert replay.state_of(digest) == "done"
        assert digest not in replay.failed

    def test_intent_without_done_is_in_flight(self, config):
        with write_journal(config) as journal:
            journal.begin(config)
            journal.intent_for("gcc", config)
        replay = replay_journal(journal.path)
        assert replay.state_of(task_digest("gcc", config)) == "in-flight"

    def test_seal_is_idempotent_and_validated(self, config):
        with write_journal(config) as journal:
            journal.begin(config)
            with pytest.raises(JournalError, match="seal status"):
                journal.seal("finished")
            journal.seal("complete", exit_code=0)
            journal.seal("failed", exit_code=4)  # ignored: first seal wins
        replay = replay_journal(journal.path)
        assert replay.status == "complete" and replay.exit_code == 0

    def test_bad_fsync_policy_rejected(self, config):
        with pytest.raises(JournalError, match="fsync policy"):
            write_journal(config, fsync="sometimes")

    def test_unwritable_journal_raises_journal_error(self, tmp_path):
        config = make_config(tmp_path)
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where the runs dir should be")
        with pytest.raises(JournalError, match="cannot open"):
            RunJournal(blocker / "r1.journal.jsonl", "r1", fsync="never")


class TestReplayTolerance:
    def test_torn_final_line_is_tolerated(self, config):
        with write_journal(config) as journal:
            journal.begin(config)
            journal.done_for("gcc", config)
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"v":1,"kind":"task.int')  # killed mid-append
        replay = replay_journal(journal.path)
        assert replay.torn
        assert replay.records == 2
        assert replay.state_of(task_digest("gcc", config)) == "done"

    def test_corrupt_middle_record_stops_replay(self, config):
        with write_journal(config) as journal:
            journal.begin(config)
            journal.done_for("gcc", config)
            journal.done_for("qcd", config)
        lines = journal.path.read_text().splitlines()
        lines[1] = lines[1].replace('"kind":"task.done"',
                                    '"kind":"task.dome"')
        journal.path.write_text("\n".join(lines) + "\n")
        replay = replay_journal(journal.path)
        # The tampered record fails its checksum; everything after it is
        # conservatively dropped (re-execution is always safe).
        assert replay.torn and replay.records == 1
        assert replay.state_of(task_digest("qcd", config)) == "unknown"

    def test_missing_journal_raises(self, config):
        with pytest.raises(JournalError, match="cannot read"):
            replay_journal(journal_path("nope", config))

    def test_empty_journal_raises(self, config):
        path = journal_path("empty", config)
        path.parent.mkdir(parents=True)
        path.write_text("")
        with pytest.raises(JournalError, match="no valid records"):
            replay_journal(path)


class TestTaskDigest:
    def test_stable_across_calls(self, config):
        assert task_digest("gcc", config) == task_digest("gcc", config)

    def test_distinguishes_programs_and_config(self, tmp_path, config):
        assert task_digest("gcc", config) != task_digest("qcd", config)
        for other in (
            make_config(tmp_path, engine="python"),
            ExperimentConfig(programs=("gcc",), scale=40,
                             cache_dir=tmp_path / "cache",
                             page_sizes=(4096,)),
        ):
            assert task_digest("gcc", config) != task_digest("gcc", other)

    def test_unknown_program_rejected(self, config):
        with pytest.raises(PipelineError, match="unknown program"):
            task_digest("notaprog", config)

    def test_entries_empty_without_cache(self, tmp_path):
        config = make_config(tmp_path, use_cache=False)
        assert task_entries("gcc", config) == []


class TestResumePlanning:
    def publish_entries(self, program, config):
        store = ResultStore(config.cache_dir)
        for name in task_entries(program, config):
            store.publish_payload(config.cache_dir / name,
                                  {"stats": {}}, program=program)
        return store

    def test_done_and_verified_skips(self, config):
        store = self.publish_entries("gcc", config)
        with write_journal(config) as journal:
            journal.begin(config)
            journal.done_for("gcc", config)
        plan = plan_resume(replay_journal(journal.path), config, store)
        assert plan.skipped == ["gcc"]
        assert plan.replayed == ["qcd"]
        assert not plan.config_changed

    def test_done_without_entry_on_disk_replays(self, config):
        # The journal claims, the store proves: a done record whose
        # entry vanished (or never made it) must re-execute.
        store = ResultStore(config.cache_dir)
        with write_journal(config) as journal:
            journal.begin(config)
            journal.done_for("gcc", config)
        plan = plan_resume(replay_journal(journal.path), config, store)
        assert plan.skipped == []
        assert sorted(plan.replayed) == ["gcc", "qcd"]

    def test_corrupt_entry_replays(self, config):
        store = self.publish_entries("gcc", config)
        with write_journal(config) as journal:
            journal.begin(config)
            journal.done_for("gcc", config)
        (entry,) = task_entries("gcc", config)
        (config.cache_dir / entry).write_bytes(b"shredded")
        plan = plan_resume(replay_journal(journal.path), config, store)
        assert plan.skipped == []

    def test_no_cache_run_never_skips(self, tmp_path):
        config = make_config(tmp_path, use_cache=False)
        store = ResultStore(config.cache_dir)
        with write_journal(config) as journal:
            journal.begin(config)
            journal.done_for("gcc", config)
        plan = plan_resume(replay_journal(journal.path), config, store)
        assert plan.skipped == []

    def test_config_drift_flagged_and_digests_replay(self, tmp_path, config):
        self.publish_entries("gcc", config)
        with write_journal(config) as journal:
            journal.begin(config)
            journal.done_for("gcc", config)
        changed = make_config(tmp_path, engine="python")
        plan = plan_resume(replay_journal(journal.path), changed,
                           ResultStore(changed.cache_dir))
        assert plan.config_changed
        # The engine is part of the task digest, so nothing matches.
        assert plan.skipped == []
