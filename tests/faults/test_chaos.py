"""Chaos suite: seeded fault plans driven through the real CLI.

The resilience contract under test: a run with a single injected fault
either produces tables **bit-identical** to a clean run (the fault was
recovered) or exits with a classified error / partial result and a valid
manifest — never a hang, a raw traceback, or silently wrong numbers.
"""

from __future__ import annotations

import time

import pytest

from repro.experiments.cli import (
    EXIT_PARTIAL, EXIT_PIPELINE, EXIT_TRANSIENT, EXIT_USAGE,
    main as cli_main,
)
from repro.observe.manifest import load_manifest

PROGRAMS = ("qcd", "gcc")  # the two quickest smoke workloads


def _run_cli(tmp_path, label, *extra):
    """One smoke-scale CLI run; returns (exit_code, rendered report)."""
    out = tmp_path / f"{label}.txt"
    code = cli_main([
        "table4", "--scale", "smoke", "--programs", *PROGRAMS,
        "--cache-dir", str(tmp_path / f"{label}-cache"),
        "--quiet", "--out", str(out), *extra,
    ])
    return code, (out.read_text() if out.exists() else "")


@pytest.fixture(scope="module")
def clean_report(tmp_path_factory):
    """The fault-free reference output every recovery must reproduce."""
    tmp_path = tmp_path_factory.mktemp("chaos_clean")
    code, text = _run_cli(tmp_path, "clean")
    assert code == 0
    assert text
    return text


class TestRecoveredFaults:
    """Faults the pipeline must absorb: output bit-identical to clean."""

    def test_worker_crash_is_retried_bit_identical(
        self, tmp_path, clean_report
    ):
        # SIGKILL mid-run (satellite: the parent sees BrokenProcessPool,
        # recreates the pool, and the retry must reproduce every number).
        code, text = _run_cli(
            tmp_path, "crash", "--jobs", "2",
            "--inject-faults", "worker:crash@gcc", "--fault-seed", "7",
        )
        assert code == 0
        assert text == clean_report

    def test_hung_worker_is_killed_and_retried(
        self, tmp_path, clean_report, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULT_HANG_S", "30")
        start = time.monotonic()
        code, text = _run_cli(
            tmp_path, "hang", "--jobs", "2", "--worker-timeout", "3",
            "--inject-faults", "worker:hang@gcc",
        )
        elapsed = time.monotonic() - start
        assert code == 0
        assert text == clean_report
        assert elapsed < 25  # the watchdog, not the hang, set the pace

    def test_corrupt_cache_read_recomputes(self, tmp_path, clean_report):
        label = "corrupt"
        code, _ = _run_cli(tmp_path, label)  # warm the cache
        assert code == 0
        code, text = _run_cli(
            tmp_path, label, "--inject-faults", "cache.read:corrupt",
        )
        assert code == 0
        assert text == clean_report

    def test_unwritable_cache_degrades_to_cacheless(
        self, tmp_path, clean_report
    ):
        # cache-dir under a regular file: every mkdir/write raises an
        # OSError (chmod tricks don't bind when tests run as root).
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        out = tmp_path / "ro.txt"
        code = cli_main([
            "table4", "--scale", "smoke", "--programs", *PROGRAMS,
            "--cache-dir", str(blocker / "cache"),
            "--quiet", "--out", str(out),
        ])
        assert code == 0
        assert out.read_text() == clean_report

    def test_injected_write_oserror_degrades_to_cacheless(
        self, tmp_path, clean_report
    ):
        code, text = _run_cli(
            tmp_path, "wfault", "--inject-faults", "io.write:oserror*inf",
            "--retries", "0",
        )
        assert code == 0
        assert text == clean_report

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failed_journal_append_is_retried(
        self, tmp_path, clean_report, jobs
    ):
        # Append 1 is run.begin, append 2 the first task's intent: a
        # failed intent is an attempt failure, retried on either executor.
        code, text = _run_cli(
            tmp_path, f"journal-j{jobs}", "--jobs", jobs, "--run-id", "r",
            "--inject-faults", "journal.append:oserror@2",
        )
        assert code == 0
        assert text == clean_report

    def test_serial_and_parallel_recoveries_match(
        self, tmp_path, clean_report
    ):
        code, serial = _run_cli(
            tmp_path, "serial", "--jobs", "1",
            "--inject-faults", "cache.read:corrupt", "--fault-seed", "7",
        )
        assert code == 0
        code, parallel = _run_cli(
            tmp_path, "par", "--jobs", "2",
            "--inject-faults", "worker:crash@gcc", "--fault-seed", "7",
        )
        assert code == 0
        assert serial == parallel == clean_report


class TestWarmTraceColdSimRecovery:
    """Worker faults over a warm trace cache and a cold sim cache.

    Each scenario first warms both caches, then drops the sim entries,
    so every pool worker (and every retry) loads its trace from the
    cache and simulates it.  A crashed, watchdog-killed or transiently
    failing worker, or one whose trace read is torn, must still recover
    to the clean tables; a fatal fault must still abort with a
    classified exit.
    """

    @staticmethod
    def _drop_sim_cache(tmp_path, label):
        dropped = 0
        for entry in (tmp_path / f"{label}-cache").glob("*-sim-*.pkl"):
            entry.unlink()
            dropped += 1
        assert dropped, "warm-up did not populate the sim cache"

    @pytest.mark.parametrize("fault, extra, expected", [
        ("crash", ("--inject-faults", "worker:crash@gcc",
                   "--fault-seed", "7"), 0),
        # Killed after its sim entry is published: the retry reads it.
        ("crashmid", ("--inject-faults", "worker.mid:crash@gcc"), 0),
        ("hang", ("--worker-timeout", "3",
                  "--inject-faults", "worker:hang@gcc"), 0),
        ("oserror", ("--inject-faults", "worker:oserror@gcc"), 0),
        # The worker's trace read is torn: it re-traces as on a miss.
        ("corrupt", ("--inject-faults", "cache.read:corrupt@gcc"), 0),
        ("fatal", ("--inject-faults", "worker:fatal@gcc*inf"),
         EXIT_PIPELINE),
    ], ids=["crash", "crash-mid", "hang", "oserror", "corrupt-trace",
            "fatal"])
    def test_fault_over_warm_traces(
        self, tmp_path, clean_report, monkeypatch, fault, extra, expected
    ):
        # The hang is cut short by the watchdog (SIGKILL), not by the
        # hang itself ending.
        monkeypatch.setenv("REPRO_FAULT_HANG_S", "30")
        label = f"warm{fault}"
        code, _ = _run_cli(tmp_path, label)  # warm both caches
        assert code == 0
        self._drop_sim_cache(tmp_path, label)
        code, text = _run_cli(tmp_path, label, "--jobs", "2", *extra)
        assert code == expected
        if expected == 0:
            assert text == clean_report


class TestClassifiedFailures:
    """Faults that must surface as classified exits, never tracebacks."""

    def test_persistent_fatal_fault_exits_4_with_one_line(
        self, tmp_path, capsys
    ):
        code, _ = _run_cli(
            tmp_path, "fatal", "--jobs", "2",
            "--inject-faults", "worker:fatal@gcc*inf",
        )
        assert code == EXIT_PIPELINE
        err = capsys.readouterr().err
        assert "error: PipelineError" in err
        assert "Traceback" not in err

    def test_persistent_transient_fault_exits_6_after_retries(
        self, tmp_path, capsys
    ):
        code, _ = _run_cli(
            tmp_path, "transient", "--jobs", "2", "--retries", "1",
            "--inject-faults", "worker:oserror@gcc*inf",
        )
        assert code == EXIT_TRANSIENT
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    def test_bad_fault_spec_is_a_usage_error(self, tmp_path, capsys):
        code, _ = _run_cli(tmp_path, "badspec", "--inject-faults", "nope")
        assert code == EXIT_USAGE
        assert "Traceback" not in capsys.readouterr().err

    def test_abort_cancels_pending_work(self, tmp_path, monkeypatch):
        # Regression (satellite): a fatal failure must tear the pool down
        # immediately — not wait for a slow sibling worker to finish.
        monkeypatch.setenv("REPRO_FAULT_HANG_S", "60")
        start = time.monotonic()
        code, _ = _run_cli(
            tmp_path, "abort", "--jobs", "2",
            "--inject-faults", "worker.mid:fatal@qcd*inf,worker.mid:hang@gcc*inf",
        )
        elapsed = time.monotonic() - start
        assert code == EXIT_PIPELINE
        assert elapsed < 45  # did not sit out the 60s hang


class TestKeepGoing:
    """--keep-going: partial tables, explicit gaps, auditable manifest."""

    def test_partial_run_exits_3_with_failures_section(self, tmp_path):
        manifest_path = tmp_path / "partial.json"
        code, text = _run_cli(
            tmp_path, "partial", "--jobs", "2", "--keep-going",
            "--inject-faults", "worker:fatal@gcc*inf",
            "--manifest", str(manifest_path),
        )
        assert code == EXIT_PARTIAL
        assert "PARTIAL RESULTS" in text
        assert "gcc" in text.split("PARTIAL RESULTS", 1)[1]
        manifest = load_manifest(manifest_path)  # validates on read
        (record,) = manifest.failures
        assert record["program"] == "gcc"
        assert record["error"] == "PipelineError"
        assert record["attempts"] >= 1
        assert record["elapsed_s"] >= 0

    def test_surviving_programs_render_normally(self, tmp_path, clean_report):
        code, text = _run_cli(
            tmp_path, "survivors", "--jobs", "2", "--keep-going",
            "--inject-faults", "worker:fatal@gcc*inf",
        )
        assert code == EXIT_PARTIAL
        # qcd's rows are present and identical to the clean run's ...
        for line in clean_report.splitlines():
            if "qcd" in line:
                assert line in text
        # ... while gcc's data rows are absent from the tables.
        table_part = text.split("PARTIAL RESULTS", 1)[0]
        clean_gcc = [l for l in clean_report.splitlines()
                     if "gcc" in l and any(c.isdigit() for c in l)]
        assert clean_gcc and not any(l in table_part for l in clean_gcc)

    def test_serial_keep_going_records_failures_too(self, tmp_path):
        # The worker:* sites only exist in pool workers; serially a
        # fatal fault from inside the pipeline must be recorded the
        # same way (cache.write carries the program qualifier).
        code, text = _run_cli(
            tmp_path, "serialpartial", "--jobs", "1", "--keep-going",
            "--inject-faults", "cache.write:fatal@gcc*inf",
        )
        assert code == EXIT_PARTIAL
        assert "PARTIAL RESULTS" in text

    def test_keep_going_with_no_failures_exits_0(self, tmp_path, clean_report):
        code, text = _run_cli(tmp_path, "ok", "--keep-going")
        assert code == 0
        assert text == clean_report
