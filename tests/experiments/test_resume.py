"""Crash-safe runs, certified the hard way: kill the process at every
new faultpoint, then prove ``--resume`` converges.

Each scenario runs the real CLI in a subprocess with a deterministic
fault plan that SIGKILLs (or signals) the run mid-flight, then resumes
the journaled run and asserts the three invariants of the recovery
design:

* the resumed run exits 0 and its report is **bit-identical** to an
  uninterrupted run's;
* at least one task was **skipped** (journaled done + store-verified),
  visible as the manifest's ``resume.tasks_skipped`` gauge;
* ``store verify`` finds **zero corrupt entries** — atomic publishes
  mean a kill never tears a cache entry.

Graceful-shutdown scenarios additionally pin the exit code
(``128 + signum``), the journal's ``interrupted`` seal, and the black
box dump.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"
PROGRAMS = ("gcc", "qcd")


def run_cli(cache_dir, extra, check=False, env=None):
    proc = subprocess.run(
        [sys.executable, "-m", "repro.experiments", "table4",
         "--scale", "smoke", "--programs", *PROGRAMS,
         "--cache-dir", str(cache_dir), "--quiet"] + extra,
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC), **(env or {})},
    )
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def journal_lines(cache_dir, run_id):
    path = Path(cache_dir) / "runs" / f"{run_id}.journal.jsonl"
    return [json.loads(line)
            for line in path.read_text().splitlines() if line.strip()]


@pytest.fixture(scope="module")
def clean_report(tmp_path_factory):
    """The reference report of an uninterrupted run (own cache)."""
    tmp = tmp_path_factory.mktemp("clean")
    out = tmp / "clean.txt"
    run_cli(tmp / "cache", ["--out", str(out)], check=True)
    return out.read_bytes()


def assert_resume_converges(tmp_path, cache, run_id, clean_report):
    """Resume ``run_id``, then check all three recovery invariants."""
    out = tmp_path / "resumed.txt"
    manifest = tmp_path / "resumed.json"
    resumed = run_cli(cache, ["--resume", run_id, "--out", str(out),
                              "--manifest", str(manifest)])
    assert resumed.returncode == 0, resumed.stderr
    assert out.read_bytes() == clean_report
    gauges = json.loads(manifest.read_text())["gauges"]
    assert gauges["resume.tasks_skipped"] >= 1
    assert gauges["resume.tasks_skipped"] + gauges["resume.tasks_replayed"] \
        == len(PROGRAMS)
    verify = subprocess.run(
        [sys.executable, "-m", "repro.experiments", "store", "verify",
         "--cache-dir", str(cache), "--json"],
        capture_output=True, text=True, env={"PYTHONPATH": str(SRC)},
    )
    assert verify.returncode == 0, verify.stdout + verify.stderr
    assert json.loads(verify.stdout)["counts"]["corrupt"] == 0
    return gauges


class TestKillAndResume:
    @pytest.mark.parametrize("fault", [
        # 4th append = qcd's intent: gcc is journaled done, qcd is not.
        "journal.append:crash@4",
        # 2nd sim publish = qcd's: gcc's entry is on disk and journaled.
        "store.publish:crash@2",
    ])
    def test_sigkill_mid_run_then_resume(self, fault, tmp_path,
                                         clean_report):
        cache = tmp_path / "cache"
        crashed = run_cli(cache, ["--run-id", "r1", "--retries", "0",
                                  "--inject-faults", fault])
        assert crashed.returncode == -signal.SIGKILL
        kinds = [(r["kind"], r.get("program")) for r in
                 journal_lines(cache, "r1")]
        assert ("task.done", "gcc") in kinds      # write-ahead held up
        assert ("run.seal", None) not in kinds    # died unsealed
        assert_resume_converges(tmp_path, cache, "r1", clean_report)

    def test_sigkill_on_warm_load_then_resume(self, tmp_path, clean_report):
        # Crash while *reading* a verified entry: the second run dies on
        # qcd's warm load; its journal still lets gcc skip.
        cache = tmp_path / "cache"
        run_cli(cache, ["--run-id", "r1"], check=True)
        crashed = run_cli(cache, ["--run-id", "r2", "--retries", "0",
                                  "--inject-faults", "store.load:crash@2"])
        assert crashed.returncode == -signal.SIGKILL
        gauges = assert_resume_converges(tmp_path, cache, "r2", clean_report)
        # gcc's completion was journaled before the crash and skips;
        # qcd died mid-load (no done record) and re-executes.
        assert gauges["resume.tasks_skipped"] == 1

    def test_hard_worker_kill_poisons_siblings_but_resume_converges(
            self, tmp_path, clean_report):
        # A straight SIGKILL breaks the whole pool: with retries
        # exhausted *both* in-flight programs fail, the run exits 6 with
        # a sealed journal, and resume re-executes everything (nothing
        # completed, so nothing can be skipped) — still bit-identical.
        cache = tmp_path / "cache"
        failed = run_cli(cache, ["--run-id", "r1", "--jobs", "2",
                                 "--retries", "0",
                                 "--inject-faults", "worker.mid:crash@gcc"])
        assert failed.returncode == 6, failed.stderr
        seal = journal_lines(cache, "r1")[-1]
        assert seal["kind"] == "run.seal"
        assert seal["status"] == "failed" and seal["exit_code"] == 6
        out = tmp_path / "resumed.txt"
        resumed = run_cli(cache, ["--resume", "r1", "--out", str(out)])
        assert resumed.returncode == 0, resumed.stderr
        assert out.read_bytes() == clean_report

    def test_watchdog_worker_kill_then_resume(self, tmp_path, clean_report):
        # The deterministic hard-worker-kill: gcc's worker hangs, qcd
        # completes (its task.done lands in the parent's journal), then
        # the watchdog SIGKILLs the hung worker and retries are
        # exhausted.  Resume skips qcd and re-runs only gcc.
        cache = tmp_path / "cache"
        failed = run_cli(
            cache,
            ["--run-id", "r1", "--jobs", "2", "--retries", "0",
             "--worker-timeout", "2",
             "--inject-faults", "worker.mid:hang@gcc"],
            env={"REPRO_FAULT_HANG_S": "6"},
        )
        assert failed.returncode == 4, failed.stderr
        assert "WorkerTimeoutError" in failed.stderr
        records = journal_lines(cache, "r1")
        kinds = [(r["kind"], r.get("program")) for r in records]
        assert ("task.done", "qcd") in kinds
        assert ("task.failed", "gcc") in kinds
        assert records[-1]["status"] == "failed"
        gauges = assert_resume_converges(tmp_path, cache, "r1", clean_report)
        assert gauges["resume.tasks_skipped"] == 1


class TestGracefulShutdown:
    def test_sigint_serial(self, tmp_path, clean_report):
        cache = tmp_path / "cache"
        manifest = tmp_path / "m.json"
        proc = run_cli(cache, ["--run-id", "r1", "--retries", "0",
                               "--manifest", str(manifest),
                               "--inject-faults",
                               "store.publish:sigint@qcd"])
        assert proc.returncode == 128 + signal.SIGINT
        assert "exiting 130" in proc.stderr
        seal = journal_lines(cache, "r1")[-1]
        assert seal["kind"] == "run.seal"
        assert seal["status"] == "interrupted" and seal["exit_code"] == 130
        # The black box landed next to the manifest on the way out.
        blackbox = tmp_path / "m.blackbox.jsonl"
        assert blackbox.exists()
        categories = {json.loads(line)["category"]
                      for line in blackbox.read_text().splitlines()}
        assert "run.interrupted" in categories
        assert "journal.seal" in categories
        assert_resume_converges(tmp_path, cache, "r1", clean_report)

    def test_sigint_during_trace_write(self, tmp_path, clean_report):
        # The 2nd trace save is qcd's, on the writer thread while qcd
        # simulates: the interrupt lands on the task thread, which waits
        # for the write before unwinding.
        cache = tmp_path / "cache"
        proc = run_cli(cache, ["--run-id", "r1", "--retries", "0",
                               "--inject-faults", "trace.save:sigint@2"])
        assert proc.returncode == 128 + signal.SIGINT, proc.stderr
        seal = journal_lines(cache, "r1")[-1]
        assert seal["status"] == "interrupted" and seal["exit_code"] == 130
        assert list(cache.glob("*.tmp")) == []
        gauges = assert_resume_converges(tmp_path, cache, "r1", clean_report)
        assert gauges["resume.tasks_skipped"] == 1

    def test_sigterm_parallel(self, tmp_path, clean_report):
        # Journal appends happen parent-side only, so this SIGTERMs the
        # parent while its --jobs 2 pool is live: the scheduler's
        # finally must reap the pool before the seal lands.  Append #5
        # is the second completion record (after begin + two intents +
        # the first done), so exactly one task.done survives for resume
        # to skip.
        cache = tmp_path / "cache"
        proc = run_cli(cache, ["--run-id", "r1", "--jobs", "2",
                               "--retries", "0",
                               "--inject-faults",
                               "journal.append:sigterm@5"])
        assert proc.returncode == 128 + signal.SIGTERM
        seal = journal_lines(cache, "r1")[-1]
        assert seal["status"] == "interrupted" and seal["exit_code"] == 143
        assert_resume_converges(tmp_path, cache, "r1", clean_report)


class TestResumeCli:
    def test_resume_unknown_run_is_a_usage_error(self, tmp_path):
        from repro.experiments.cli import main

        code = main(["table4", "--scale", "smoke", "--programs", "gcc",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--resume", "never-ran", "--quiet"])
        assert code == 2

    def test_resume_and_run_id_conflict(self, tmp_path):
        from repro.experiments.cli import main

        code = main(["table4", "--scale", "smoke", "--programs", "gcc",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--resume", "a", "--run-id", "b", "--quiet"])
        assert code == 2

    def test_runs_dir_override(self, tmp_path, capsys):
        from repro.experiments.cli import main

        runs = tmp_path / "elsewhere"
        code = main(["table4", "--scale", "smoke", "--programs", "gcc",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--run-id", "r1", "--runs-dir", str(runs), "--quiet"])
        capsys.readouterr()
        assert code == 0
        assert (runs / "r1.journal.jsonl").exists()
        assert not (tmp_path / "cache" / "runs").exists()
