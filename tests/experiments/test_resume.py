"""Crash-safe runs, certified the hard way: kill the process at a
faultpoint, then prove that re-running the same command converges.

A program's result is a pure function of (program, config), and the
digest-checked result store records exactly which results exist, so the
store is the resume record.  Each scenario runs the real CLI in a
subprocess with a deterministic fault plan that SIGKILLs (or signals)
the run mid-flight, then re-runs the same command without the fault
over the same cache and asserts the three invariants of the recovery
design:

* the re-run exits 0 and its report is **bit-identical** to an
  uninterrupted run's;
* it loads exactly the sim entries that were published before the kill:
  the manifest's ``cache.sim.hits`` counter equals the number of sim
  entries ``store verify`` finds after the kill;
* ``store verify`` finds **zero corrupt entries** — atomic publishes
  mean a kill never tears a cache entry.

Graceful-shutdown scenarios additionally pin the exit code
(``128 + signum``), the ``run.interrupted`` event at the end of the
event log written beside the manifest, and that no ``*.tmp`` file is
left behind.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.cli import EXIT_USAGE, main as cli_main
from repro.experiments.store import SIM_SUFFIX, STATUS_SIM

SRC = Path(__file__).resolve().parents[2] / "src"
PROGRAMS = ("gcc", "qcd")


def cli_command(cache_dir, extra):
    return [sys.executable, "-m", "repro.experiments", "table4",
            "--scale", "smoke", "--programs", *PROGRAMS,
            "--cache-dir", str(cache_dir), "--quiet"] + list(extra)


def cli_env(env=None):
    return {**os.environ, "PYTHONPATH": str(SRC), **(env or {})}


def run_cli(cache_dir, extra, check=False, env=None):
    proc = subprocess.run(
        cli_command(cache_dir, extra), capture_output=True, text=True,
        timeout=120, env=cli_env(env),
    )
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def store_verify(cache_dir):
    """``store verify --json`` on ``cache_dir``: (sim entries, corrupt)."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro.experiments", "store", "verify",
         "--cache-dir", str(cache_dir), "--json"],
        capture_output=True, text=True, env=cli_env(),
    )
    report = json.loads(proc.stdout)
    sims = [entry["name"] for entry in report["entries"]
            if "-sim-" in entry["name"] and entry["status"] == STATUS_SIM]
    return sims, report["counts"]["corrupt"]


def event_categories(path):
    return [json.loads(line)["category"]
            for line in Path(path).read_text().splitlines() if line.strip()]


def assert_no_blackbox(tmp_path):
    """The event log is the one post-mortem record: no dump beside it."""
    assert list(tmp_path.rglob("*.blackbox.jsonl")) == []
    assert list(Path.cwd().glob("*.blackbox.jsonl")) == []


@pytest.fixture(scope="module")
def clean_report(tmp_path_factory):
    """The reference report of an uninterrupted run (own cache)."""
    tmp = tmp_path_factory.mktemp("clean")
    out = tmp / "clean.txt"
    run_cli(tmp / "cache", ["--out", str(out)], check=True)
    return out.read_bytes()


def assert_rerun_converges(tmp_path, cache, clean_report, extra=()):
    """Re-run the same command over ``cache``; check the invariants.

    Returns the number of sim entries published before the re-run.
    """
    published, corrupt = store_verify(cache)
    assert corrupt == 0
    out = tmp_path / "rerun.txt"
    manifest = tmp_path / "rerun.json"
    rerun = run_cli(cache, [*extra, "--out", str(out),
                            "--manifest", str(manifest)])
    assert rerun.returncode == 0, rerun.stderr
    assert out.read_bytes() == clean_report
    counters = json.loads(manifest.read_text())["counters"]
    assert counters.get("cache.sim.hits", 0) == len(published)
    after, corrupt = store_verify(cache)
    assert corrupt == 0
    assert len(after) == len(PROGRAMS)
    return len(published)


class TestKillThenRerun:
    def test_sigkill_mid_publish_then_rerun(self, tmp_path, clean_report):
        # The 2nd sim publish is qcd's: gcc's entry is on disk.
        cache = tmp_path / "cache"
        crashed = run_cli(cache, ["--retries", "0",
                                  "--inject-faults", "store.publish:crash@2"])
        assert crashed.returncode == -signal.SIGKILL
        assert assert_rerun_converges(tmp_path, cache, clean_report) == 1

    def test_sigkill_on_warm_load_then_rerun(self, tmp_path, clean_report):
        # Crash while *reading* a verified entry: the second run dies on
        # qcd's warm load, and the load leaves both entries intact.
        cache = tmp_path / "cache"
        run_cli(cache, [], check=True)
        crashed = run_cli(cache, ["--retries", "0",
                                  "--inject-faults", "store.load:crash@2"])
        assert crashed.returncode == -signal.SIGKILL
        assert assert_rerun_converges(tmp_path, cache, clean_report) == 2

    def test_hard_worker_kill_then_rerun(self, tmp_path, clean_report):
        # A straight SIGKILL breaks the whole pool: with retries
        # exhausted both in-flight programs fail and the run exits 6.
        # gcc's worker dies after publishing; whether qcd's did is a
        # race, which the re-run's hit count must match either way.
        cache = tmp_path / "cache"
        failed = run_cli(cache, ["--jobs", "2", "--retries", "0",
                                 "--inject-faults", "worker.mid:crash@gcc"])
        assert failed.returncode == 6, failed.stderr
        assert assert_rerun_converges(
            tmp_path, cache, clean_report, ["--jobs", "2"]) >= 1

    def test_watchdog_worker_kill_then_rerun(self, tmp_path, clean_report):
        # The deterministic hard-worker-kill: gcc's worker hangs after
        # publishing, qcd completes, then the watchdog SIGKILLs the hung
        # worker and retries are exhausted.  The re-run loads both.
        cache = tmp_path / "cache"
        failed = run_cli(
            cache,
            ["--jobs", "2", "--retries", "0", "--worker-timeout", "2",
             "--inject-faults", "worker.mid:hang@gcc"],
            env={"REPRO_FAULT_HANG_S": "6"},
        )
        assert failed.returncode == 4, failed.stderr
        assert "WorkerTimeoutError" in failed.stderr
        assert assert_rerun_converges(
            tmp_path, cache, clean_report, ["--jobs", "2"]) == 2


class TestGracefulShutdown:
    def test_sigint_serial(self, tmp_path, clean_report):
        cache = tmp_path / "cache"
        manifest = tmp_path / "m.json"
        events = tmp_path / "m.events.jsonl"
        proc = run_cli(cache, ["--retries", "0",
                               "--manifest", str(manifest),
                               "--inject-faults",
                               "store.publish:sigint@qcd"])
        assert proc.returncode == 128 + signal.SIGINT
        assert "exiting 130" in proc.stderr
        assert event_categories(events)[-1] == "run.interrupted"
        assert list(cache.glob("*.tmp")) == []
        # The log beside the manifest is named on the way out.
        assert f"[event log: {events}]" in proc.stderr
        assert_no_blackbox(tmp_path)
        assert assert_rerun_converges(tmp_path, cache, clean_report) == 1

    def test_sigint_during_trace_write(self, tmp_path, clean_report):
        # The 2nd trace save is qcd's, on the writer thread while qcd
        # simulates: the interrupt lands on the task thread, which waits
        # for the write before unwinding.
        cache = tmp_path / "cache"
        events = tmp_path / "m.events.jsonl"
        proc = run_cli(cache, ["--retries", "0",
                               "--manifest", str(tmp_path / "m.json"),
                               "--inject-faults", "trace.save:sigint@2"])
        assert proc.returncode == 128 + signal.SIGINT, proc.stderr
        assert event_categories(events)[-1] == "run.interrupted"
        assert list(cache.glob("*.tmp")) == []
        assert_no_blackbox(tmp_path)
        assert assert_rerun_converges(tmp_path, cache, clean_report) == 1

    def test_sigterm_parallel(self, tmp_path, clean_report):
        # SIGTERM the parent while its --jobs 2 pool is live: the
        # scheduler's finally must reap the pool before the CLI exits
        # 143.  qcd's worker hangs before it starts work, so the signal
        # is sent with gcc's entry published and qcd's worker still live.
        cache = tmp_path / "cache"
        events = tmp_path / "m.events.jsonl"
        proc = subprocess.Popen(
            cli_command(cache, ["--jobs", "2", "--retries", "0",
                                "--manifest", str(tmp_path / "m.json"),
                                "--inject-faults", "worker.start:hang@qcd"]),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            env=cli_env({"REPRO_FAULT_HANG_S": "60"}),
        )
        try:
            deadline = time.monotonic() + 60
            while not list(cache.glob(f"*-sim-*{SIM_SUFFIX}")):
                assert proc.poll() is None, proc.stderr.read()
                assert time.monotonic() < deadline, "no sim entry appeared"
                time.sleep(0.05)
            proc.send_signal(signal.SIGTERM)
            _, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == 128 + signal.SIGTERM, stderr
        assert event_categories(events)[-1] == "run.interrupted"
        assert list(cache.glob("*.tmp")) == []
        assert_no_blackbox(tmp_path)
        assert assert_rerun_converges(
            tmp_path, cache, clean_report, ["--jobs", "2"]) == 1


class TestRemovedRunFlags:
    @pytest.mark.parametrize("flags", [
        ["--run-id", "r1"], ["--resume", "r1"], ["--runs-dir", "runs"],
    ], ids=["run-id", "resume", "runs-dir"])
    def test_removed_flags_are_usage_errors(self, tmp_path, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            cli_main(["table4", "--programs", "qcd", "--scale", "smoke",
                      "--cache-dir", str(tmp_path), "--quiet", *flags])
        assert exc.value.code == EXIT_USAGE
        assert f"unrecognized arguments: {flags[0]}" in capsys.readouterr().err
