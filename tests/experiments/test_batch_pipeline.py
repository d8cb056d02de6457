"""The one phase-1 → phase-2 path, end to end.

Phase 1 traces into memory; phase 2 simulates that trace while, on a
trace-cache miss, a writer thread saves it.  These tests pin what the
path must keep doing: a later run that loads the saved entry reproduces
the cold run's counting variables exactly, whether the entry is the
cold run's own or one saved again, and whichever engine simulates it;
faults injected
into the save are retried or, under ``--keep-going``, recorded; and the
removed streamed mode has left no option, config field or metric.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro import faults, observe
from repro.experiments.cli import EXIT_PARTIAL, EXIT_USAGE, main as cli_main
from repro.experiments.pipeline import ExperimentConfig, load_program_data
from repro.experiments.store import SIM_SUFFIX
from repro.simulate._native import native_available
from repro.trace import load_trace, save_trace
from tests.conftest import same_counts

PROGRAM = "qcd"  # the cheapest workload at smoke scale


@pytest.fixture(autouse=True)
def clean_process_state():
    faults.clear_plan()
    observe.reset()
    yield
    faults.clear_plan()
    observe.reset()
    observe.disable()


def make_config(cache_dir, **overrides):
    return ExperimentConfig(
        programs=(PROGRAM,), scale="smoke", cache_dir=cache_dir, **overrides
    )


def assert_same_data(a, b):
    """Two ProgramData for the same program agree on everything the
    tables are built from."""
    assert a.name == b.name and a.scale == b.scale
    assert vars(a.meta) == vars(b.meta)
    assert [vars(obj) for obj in a.registry.objects] == \
        [vars(obj) for obj in b.registry.objects]
    ra, rb = a.result, b.result
    assert ra.total_writes == rb.total_writes
    assert ra.overlap_anomalies == rb.overlap_anomalies
    assert ra.n_discarded == rb.n_discarded
    assert [s.index for s in ra.sessions] == [s.index for s in rb.sessions]
    assert same_counts(ra.counts, rb.counts)


def _sim_entries(cache_dir):
    return list(cache_dir.glob(f"*-sim-*{SIM_SUFFIX}"))


def _trace_entry(cache_dir):
    (entry,) = cache_dir.glob(f"{PROGRAM}-*.npz")
    return entry


@pytest.fixture(scope="module")
def cold(tmp_path_factory):
    """A cold run's ProgramData and the cache directory it filled."""
    cache_dir = tmp_path_factory.mktemp("cold")
    return load_program_data(PROGRAM, make_config(cache_dir)), cache_dir


class TestTraceCacheHits:
    def test_cold_run_saves_one_entry_and_no_temp_files(self, cold):
        _, cache_dir = cold
        trace, _ = load_trace(_trace_entry(cache_dir))
        assert len(trace) > 0
        assert len(_sim_entries(cache_dir)) == 1
        assert not [p for p in cache_dir.iterdir() if p.name.endswith(".tmp")]

    def test_trace_hit_equals_cold_run(self, cold, tmp_path):
        baseline, cache_dir = cold
        copy = tmp_path / "cache"
        copy.mkdir()
        entry = _trace_entry(cache_dir)
        (copy / entry.name).write_bytes(entry.read_bytes())
        messages = []
        warm = load_program_data(PROGRAM, make_config(copy), messages.append)
        assert_same_data(baseline, warm)
        assert any("loading cached trace" in message for message in messages)
        assert not any("tracing" in message for message in messages)

    def test_resaved_entry_loads_as_a_hit(self, cold, tmp_path):
        """An entry loaded and saved again is the same entry: a later
        run loads it as a hit and reproduces the cold run."""
        baseline, cache_dir = cold
        copy = tmp_path / "cache"
        copy.mkdir()
        entry = copy / _trace_entry(cache_dir).name
        save_trace(*load_trace(_trace_entry(cache_dir)), entry)
        assert entry.read_bytes() == _trace_entry(cache_dir).read_bytes()
        messages = []
        warm = load_program_data(PROGRAM, make_config(copy), messages.append)
        assert_same_data(baseline, warm)
        assert any("loading cached trace" in message for message in messages)

    @pytest.mark.skipif(not native_available(),
                        reason="native kernel unavailable")
    def test_engines_agree_on_a_cached_trace(self, cold, tmp_path):
        _, cache_dir = cold
        results = {}
        for engine in ("python", "native"):
            copy = tmp_path / engine
            copy.mkdir()
            entry = _trace_entry(cache_dir)
            (copy / entry.name).write_bytes(entry.read_bytes())
            results[engine] = load_program_data(
                PROGRAM, make_config(copy, engine=engine))
        assert_same_data(results["python"], results["native"])

    def test_cacheless_run_matches_and_writes_nothing(self, cold, tmp_path):
        baseline, _ = cold
        data = load_program_data(
            PROGRAM, make_config(tmp_path / "off", use_cache=False))
        assert_same_data(baseline, data)
        assert not (tmp_path / "off").exists() or \
            list((tmp_path / "off").iterdir()) == []


class TestSaveFaults:
    """Faults injected into the writer-thread save, through the CLI."""

    def _args(self, tmp_path, *extra):
        return ["table1", "--programs", PROGRAM, "--scale", "smoke",
                "--cache-dir", str(tmp_path / "cache"), "--quiet", *extra]

    def test_transient_save_fault_is_retried(self, tmp_path, cold):
        baseline, _ = cold
        code = cli_main(self._args(
            tmp_path, "--inject-faults", "trace.save:corrupt@1"))
        assert code == 0
        # The retried attempt published a whole, loadable entry.
        trace, _ = load_trace(_trace_entry(tmp_path / "cache"))
        assert vars(trace.meta) == vars(baseline.meta)

    def test_fatal_save_fault_keep_going_is_partial(self, tmp_path, capsys):
        code = cli_main(self._args(
            tmp_path, "--inject-faults", "trace.save:fatal", "--keep-going"))
        assert code == EXIT_PARTIAL
        assert "PARTIAL RESULTS" in capsys.readouterr().out
        assert not list((tmp_path / "cache").glob(f"{PROGRAM}-*.npz"))


class TestNoStreamedMode:
    """The streamed phase-1 → phase-2 mode is gone: its options are
    refused, and no config field, manifest key or metric names it."""

    @pytest.mark.parametrize("flags", [
        ["--stream"], ["--chunk-events", "2048"],
    ], ids=["stream", "chunk-events"])
    def test_removed_flags_are_usage_errors(self, tmp_path, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            cli_main(["table1", "--programs", PROGRAM, "--scale", "smoke",
                      "--cache-dir", str(tmp_path), "--quiet", *flags])
        assert exc.value.code == EXIT_USAGE
        assert f"unrecognized arguments: {flags[0]}" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["stream", "chunk_events"])
    def test_config_has_no_streaming_field(self, tmp_path, field):
        assert field not in {f.name for f in dataclasses.fields(
            ExperimentConfig)}
        with pytest.raises(TypeError, match=field):
            make_config(tmp_path, **{field: 1})

    def test_manifest_names_no_stream(self, tmp_path):
        manifest_path = tmp_path / "run.json"
        code = cli_main([
            "table1", "--programs", PROGRAM, "--scale", "smoke",
            "--cache-dir", str(tmp_path / "cache"),
            "--manifest", str(manifest_path), "--quiet",
        ])
        assert code == 0
        manifest = json.loads(manifest_path.read_text())
        assert "stream" not in manifest["config"]
        assert "chunk_events" not in manifest["config"]
        for section in ("counters", "gauges", "notes"):
            assert not [name for name in manifest.get(section, {})
                        if name.startswith("stream.")], section
