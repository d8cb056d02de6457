"""Cache-layer correctness: corruption recovery, atomic writes, validation.

A torn or garbage ``.repro_cache/`` entry must never abort a run — it is
logged, deleted, and recomputed as a miss — and writers must publish
entries atomically so a crash or a racing worker cannot tear a file.
"""

from __future__ import annotations

import ast
import json
import pathlib
import pickle
import struct
import zipfile
import zlib

import numpy as np
import pytest

from repro import observe
from repro.errors import PipelineError, TraceFormatError
from repro.experiments.cli import main as cli_main
from repro.experiments.pipeline import ExperimentConfig, load_program_data
from repro.experiments.store import (
    SIM_SUFFIX,
    STATUS_CORRUPT,
    STATUS_OTHER,
    ResultStore,
)
from repro.simulate import simulate_sessions, validate_page_sizes
from repro.trace import load_trace, save_trace

PROGRAM = "qcd"  # heapless and quick at smoke scale
SRC_REPRO = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"


def _json_array(doc):
    return np.frombuffer(json.dumps(doc).encode("utf-8"), dtype=np.uint8)


def _write_earlier_version(path, trace, registry, version):
    """``trace`` as an archive of container version 1 (whole int64
    columns and a ``meta`` member), 2 (one chunk of int64 columns and a
    ``stream`` footer) or 3 (the same chunk in the stored int8/int32
    dtypes), the layouts earlier releases wrote."""
    columns = dict(zip(("kinds", "col_a", "col_b", "col_c"),
                       map(np.asarray, trace.as_arrays())))
    if version < 3:
        columns = {name: column.astype(np.int64)
                   for name, column in columns.items()}
    doc = {"version": version, "meta": vars(trace.meta),
           "objects": [vars(obj) for obj in registry.objects]}
    if version == 1:
        members = {**columns, "meta": _json_array(doc)}
    else:
        members = {f"chunk-00000000.{name}": column
                   for name, column in columns.items()}
        doc["n_events"] = len(trace)
        doc["chunks"] = [{"seq": 0, "n_events": len(trace), "crc32": [
            zlib.crc32(column.tobytes()) for column in columns.values()]}]
        members["stream"] = _json_array(doc)
    with open(path, "wb") as handle:
        np.savez_compressed(handle, **members)


def assert_same_trace(loaded, original):
    (trace, registry), (want, want_registry) = loaded, original
    assert vars(trace.meta) == vars(want.meta)
    for got, expected in zip(trace.as_arrays(), want.as_arrays()):
        assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()
    assert [vars(obj) for obj in registry.objects] == \
        [vars(obj) for obj in want_registry.objects]


@pytest.fixture()
def warm_cache(tmp_path):
    """A cache directory holding one program's trace + sim entries."""
    config = ExperimentConfig(
        programs=(PROGRAM,), scale="smoke", cache_dir=tmp_path
    )
    baseline = load_program_data(PROGRAM, config)
    return config, baseline


def _entry(config, suffix):
    matches = [p for p in config.cache_dir.iterdir() if p.name.endswith(suffix)]
    assert len(matches) == 1, matches
    return matches[0]


@pytest.fixture()
def observing():
    was_enabled = observe.is_enabled()
    observe.reset()
    observe.enable()
    yield observe.get_registry()
    if not was_enabled:
        observe.disable()
    observe.reset()


class TestCorruptionRecovery:
    def test_garbage_sim_entry_recovers_as_miss(self, warm_cache, observing):
        config, baseline = warm_cache
        sim_path = _entry(config, SIM_SUFFIX)
        sim_path.write_bytes(b"this is not a zip")
        messages = []
        data = load_program_data(PROGRAM, config, messages.append)
        assert data.result.counts == baseline.result.counts
        counters = observing.snapshot()["counters"]
        assert counters["cache.sim.corrupt"] == 1
        assert counters["cache.sim.misses"] == 1
        assert "cache.sim.hits" not in counters
        notes = observing.snapshot()["notes"]
        assert notes["cache.sim.corrupt"] == [sim_path.name]
        assert any("corrupt" in message for message in messages)
        # The bad entry was replaced by a good one: next load is a hit.
        reloaded = load_program_data(PROGRAM, config)
        assert reloaded.result.counts == baseline.result.counts
        assert observing.snapshot()["counters"]["cache.sim.hits"] == 1

    def test_truncated_sim_entry_recovers(self, warm_cache):
        config, baseline = warm_cache
        sim_path = _entry(config, SIM_SUFFIX)
        sim_path.write_bytes(sim_path.read_bytes()[:64])  # torn mid-write
        data = load_program_data(PROGRAM, config)
        assert data.result.counts == baseline.result.counts

    def test_sim_footer_missing_a_field_recovers(self, warm_cache, observing):
        # A well-formed entry whose CRCs hold but whose footer lacks a
        # total: rejected on load and recomputed as a miss.
        config, baseline = warm_cache
        sim_path = _entry(config, SIM_SUFFIX)
        with np.load(sim_path) as archive:
            members = {name: archive[name] for name in archive.files}
        doc = json.loads(members["stream"].tobytes().decode("utf-8"))
        del doc["total_writes"]
        members["stream"] = _json_array(doc)
        with zipfile.ZipFile(sim_path, "w") as rebuilt:
            for name, array in members.items():
                with rebuilt.open(name + ".npy", "w") as member:
                    np.lib.format.write_array(member, array)
        data = load_program_data(PROGRAM, config)
        assert data.result.counts == baseline.result.counts
        assert observing.snapshot()["counters"]["cache.sim.corrupt"] == 1

    def test_truncated_trace_npz_recovers(self, warm_cache, observing):
        config, baseline = warm_cache
        _entry(config, SIM_SUFFIX).unlink()  # force the trace path to be read
        trace_path = _entry(config, ".npz")
        trace_path.write_bytes(trace_path.read_bytes()[:100])
        messages = []
        data = load_program_data(PROGRAM, config, messages.append)
        assert data.result.counts == baseline.result.counts
        counters = observing.snapshot()["counters"]
        assert counters["cache.trace.corrupt"] == 1
        assert counters["cache.trace.misses"] == 1
        assert any("corrupt" in message for message in messages)

    def test_garbage_trace_npz_recovers(self, warm_cache):
        config, baseline = warm_cache
        _entry(config, SIM_SUFFIX).unlink()
        _entry(config, ".npz").write_bytes(b"\x00" * 32)
        data = load_program_data(PROGRAM, config)
        assert data.result.counts == baseline.result.counts

    def test_corrupt_kind_byte_recovers(self, warm_cache, observing):
        """A kind byte that is not an event kind, in a well-formed .npz
        whose zip CRC matches it, must not reach the engine: the
        loader's kind-range check rejects it and the pipeline recomputes
        the trace as a miss."""
        config, baseline = warm_cache
        _entry(config, SIM_SUFFIX).unlink()  # force the trace path to be read
        trace_path = _entry(config, ".npz")
        with np.load(trace_path) as archive:
            members = {name: archive[name] for name in archive.files}
        kinds = members["kinds"].copy()
        kinds[len(kinds) // 2] = 77  # not an EventKind
        members["kinds"] = kinds
        with open(trace_path, "wb") as handle:
            np.savez_compressed(handle, **members)
        with pytest.raises(TraceFormatError, match="invalid event kind 77"):
            load_trace(trace_path)
        data = load_program_data(PROGRAM, config)
        assert data.result.counts == baseline.result.counts
        counters = observing.snapshot()["counters"]
        assert counters["cache.trace.corrupt"] == 1
        assert counters["cache.trace.misses"] == 1

    @pytest.mark.parametrize("column", ["kinds", "col_a", "col_b", "col_c"])
    def test_bit_flip_in_a_column_member_recovers_as_miss(
            self, warm_cache, observing, column):
        """One bit flipped in the middle of a column member's stored
        bytes: the member's zip CRC-32 (or the deflate stream) rejects
        it on load, and the pipeline recomputes the trace as a miss."""
        config, baseline = warm_cache
        _entry(config, SIM_SUFFIX).unlink()  # force the trace path to be read
        trace_path = _entry(config, ".npz")
        original = load_trace(trace_path)
        data = bytearray(trace_path.read_bytes())
        with zipfile.ZipFile(trace_path) as archive:
            info = archive.getinfo(column + ".npy")
        name_length, extra_length = struct.unpack_from(
            "<HH", data, info.header_offset + 26)
        start = info.header_offset + 30 + name_length + extra_length
        data[start + info.compress_size // 2] ^= 0x10
        trace_path.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match=f"member {column}"):
            load_trace(trace_path)
        data = load_program_data(PROGRAM, config)
        assert data.result.counts == baseline.result.counts
        counters = observing.snapshot()["counters"]
        assert counters["cache.trace.corrupt"] == 1
        assert counters["cache.trace.misses"] == 1
        assert_same_trace(load_trace(trace_path), original)

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_earlier_format_version_recovers_as_miss(
            self, warm_cache, observing, version):
        """A trace cached by an earlier container version is rejected
        with a TraceFormatError and recomputed as a miss; the entry is
        rewritten in the current version."""
        config, baseline = warm_cache
        _entry(config, SIM_SUFFIX).unlink()  # force the trace path to be read
        trace_path = _entry(config, ".npz")
        trace, registry = load_trace(trace_path)
        _write_earlier_version(trace_path, trace, registry, version)
        with pytest.raises(TraceFormatError,
                           match="unsupported trace format version"):
            load_trace(trace_path)
        data = load_program_data(PROGRAM, config)
        assert data.result.counts == baseline.result.counts
        counters = observing.snapshot()["counters"]
        assert counters["cache.trace.corrupt"] == 1
        assert counters["cache.trace.misses"] == 1
        assert_same_trace(load_trace(trace_path), (trace, registry))


class _Bomb:
    """Unpickling it creates the file ``marker``."""

    def __init__(self, marker):
        self.marker = marker

    def __reduce__(self):
        return pathlib.Path.touch, (pathlib.Path(self.marker),)


class TestNoCodeExecution:
    """No cache entry is ever unpickled: a pickle that runs code when
    loaded is a corrupt entry at the sim entry's name and an ignored
    file at the earlier ``-sim-*.pkl`` name."""

    def test_the_bomb_is_live(self, tmp_path):
        marker = tmp_path / "marker"
        pickle.loads(pickle.dumps(_Bomb(marker)))
        assert marker.exists()

    def test_pickled_entries_never_run(self, warm_cache, tmp_path, observing):
        config, baseline = warm_cache
        marker = tmp_path / "marker"
        bomb = pickle.dumps(_Bomb(marker))
        sim_path = _entry(config, SIM_SUFFIX)
        legacy = sim_path.with_name(sim_path.name[:-len(SIM_SUFFIX)] + ".pkl")
        sim_path.write_bytes(bomb)
        legacy.write_bytes(bomb)
        statuses = {entry.name: entry.status for entry
                    in ResultStore(config.cache_dir).verify().entries}
        assert statuses[sim_path.name] == STATUS_CORRUPT
        assert statuses[legacy.name] == STATUS_OTHER
        data = load_program_data(PROGRAM, config)
        assert data.result.counts == baseline.result.counts
        counters = observing.snapshot()["counters"]
        assert counters["cache.sim.corrupt"] == 1
        assert counters["cache.sim.misses"] == 1
        assert legacy.read_bytes() == bomb
        assert cli_main(["store", "verify", "--cache-dir",
                         str(config.cache_dir)]) == 0
        assert not marker.exists()

    def test_no_module_imports_pickle(self):
        importers = []
        for path in sorted(SRC_REPRO.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text("utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                if any(name.split(".")[0] in ("pickle", "_pickle", "shelve")
                       for name in names):
                    importers.append(str(path.relative_to(SRC_REPRO)))
        assert importers == []


class TestReadonlyCache:
    """An unwritable cache dir degrades the run, never aborts it."""

    # A cache dir nested under a regular file: mkdir and every write
    # raise OSError (chmod-based setups don't bind when running as root).

    def test_run_succeeds_cacheless(self, tmp_path, observing):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        config = ExperimentConfig(
            programs=(PROGRAM,), scale="smoke", cache_dir=blocker / "cache"
        )
        messages = []
        data = load_program_data(PROGRAM, config, messages.append)
        assert data.result.counts
        snapshot = observing.snapshot()
        assert snapshot["counters"]["cache.readonly"] >= 1
        assert any("unwritable" in message for message in messages)
        # Nothing claims to have been written.
        assert "cache.trace.written" not in snapshot["notes"]
        assert "cache.sim.written" not in snapshot["notes"]

    def test_cacheless_run_matches_cached_run(self, tmp_path, warm_cache):
        _, baseline = warm_cache
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        config = ExperimentConfig(
            programs=(PROGRAM,), scale="smoke", cache_dir=blocker / "cache"
        )
        data = load_program_data(PROGRAM, config)
        assert data.result.counts == baseline.result.counts


class TestEndToEndRecovery:
    """Corruption recovery exercised through the real CLI entry point."""

    def test_truncated_trace_npz_recovers_through_cli(self, tmp_path):
        from repro.experiments.cli import main as cli_main

        cache_dir = tmp_path / "cache"
        args = ["table4", "--scale", "smoke", "--programs", PROGRAM,
                "--cache-dir", str(cache_dir), "--quiet"]
        clean = tmp_path / "clean.txt"
        assert cli_main(args + ["--out", str(clean)]) == 0

        sim = [p for p in cache_dir.iterdir()
               if p.name.endswith(SIM_SUFFIX)]
        for path in sim:
            path.unlink()  # force the trace entry to be read
        (trace_path,) = [p for p in cache_dir.iterdir()
                         if p.name.endswith(".npz")]
        trace_path.write_bytes(trace_path.read_bytes()[:100])

        recovered = tmp_path / "recovered.txt"
        assert cli_main(args + ["--out", str(recovered)]) == 0
        assert recovered.read_text() == clean.read_text()


class TestAtomicWrites:
    def test_no_temp_files_left_behind(self, warm_cache):
        config, _ = warm_cache
        leftovers = [p for p in config.cache_dir.iterdir()
                     if p.name.endswith(".tmp")]
        assert leftovers == []

    def test_save_trace_replaces_whole_file(self, warm_cache, tmp_path):
        config, _ = warm_cache
        trace_path = _entry(config, ".npz")
        trace, registry = load_trace(trace_path)
        target = tmp_path / "out" / "entry.npz"
        target.parent.mkdir()
        target.write_bytes(b"old torn garbage")
        save_trace(trace, registry, target)
        # The publish was a rename: the content is complete and loadable.
        reloaded_trace, _ = load_trace(target)
        assert len(reloaded_trace) == len(trace)
        assert [p.name for p in target.parent.iterdir()] == ["entry.npz"]


class TestPageSizeValidation:
    @pytest.mark.parametrize("bad", [0, -4096, 3000, 4097, 2.5, True])
    def test_validate_rejects(self, bad):
        with pytest.raises(PipelineError):
            validate_page_sizes((4096, bad))

    def test_validate_rejects_empty(self):
        with pytest.raises(PipelineError):
            validate_page_sizes(())

    @pytest.mark.parametrize("good", [(1,), (4096,), (4096, 8192), (2, 65536)])
    def test_validate_accepts_powers_of_two(self, good):
        validate_page_sizes(good)

    def test_config_rejects_bad_page_size(self):
        with pytest.raises(PipelineError):
            ExperimentConfig(page_sizes=(4096, 3000))

    def test_engine_rejects_bad_page_size(self, warm_cache):
        config, _ = warm_cache
        trace, registry = load_trace(_entry(config, ".npz"))
        from repro.sessions import discover_sessions

        sessions = discover_sessions(registry)
        with pytest.raises(PipelineError):
            simulate_sessions(trace, registry, sessions, page_sizes=(3000,))
