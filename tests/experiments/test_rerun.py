"""The result store is the resume record: re-running over a cache.

A program's result is a pure function of (program, config), and its sim
cache entry is named after exactly that pair, so re-running the same
command over the same cache loads every entry that was published and
verifies, and recomputes the rest.  These in-process tests pin the two
halves of that contract: the entry names (what a re-run looks for) and
the hit/miss decisions of a re-run over a cache in every state a crash
or an operator can leave it in.  ``test_resume.py`` kills real runs and
checks that the re-run converges.
"""

from __future__ import annotations

import struct
import zipfile

import pytest

from repro import observe
from repro.errors import PipelineError
from repro.experiments.pipeline import (
    ExperimentConfig,
    load_experiment_data,
    load_program_data,
    sim_cache_path,
    trace_cache_path,
)
from repro.experiments.store import STATUS_NPZ, STATUS_SIM, ResultStore
from repro.simulate import ENGINE_CHOICES
from repro.workloads import WORKLOADS

PROGRAM = "qcd"  # heapless and quick at smoke scale


def smoke(cache_dir, **overrides):
    fields = {"programs": (PROGRAM,), "scale": "smoke",
              "cache_dir": cache_dir, **overrides}
    return ExperimentConfig(**fields)


def sim_path(config, name=PROGRAM):
    workload = WORKLOADS[name]
    return sim_cache_path(workload, config.scale_of(workload), config)


def trace_path(config, name=PROGRAM):
    workload = WORKLOADS[name]
    return trace_cache_path(workload, config.scale_of(workload), config)


@pytest.fixture()
def observing():
    was_enabled = observe.is_enabled()
    observe.reset()
    observe.enable()
    yield
    if not was_enabled:
        observe.disable()
    observe.reset()


def counters_of(run):
    """Run ``run()`` on a fresh registry; return (result, counters)."""
    observe.reset()
    result = run()
    return result, observe.get_registry().snapshot()["counters"]


@pytest.fixture()
def published(tmp_path):
    """A cache holding one finished program: (config, its result)."""
    config = smoke(tmp_path)
    return config, load_program_data(PROGRAM, config)


class TestEntryNames:
    """What a re-run looks for: one entry per (program, config)."""

    def test_stable_across_calls_and_configs(self, tmp_path):
        assert sim_path(smoke(tmp_path)) == sim_path(smoke(tmp_path))
        assert trace_path(smoke(tmp_path)) == trace_path(smoke(tmp_path))

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_names_the_program_in_the_cache_dir(self, tmp_path, name):
        config = smoke(tmp_path)
        for path in (sim_path(config, name), trace_path(config, name)):
            assert path.parent == tmp_path
            assert path.name.startswith(f"{name}-s")

    def test_distinguishes_programs(self, tmp_path):
        config = smoke(tmp_path)
        names = {sim_path(config, name) for name in WORKLOADS}
        assert len(names) == len(WORKLOADS)

    def test_distinguishes_scales(self, tmp_path):
        names = {sim_path(smoke(tmp_path, scale=scale))
                 for scale in ("smoke", "full", 3)}
        assert len(names) == 3

    def test_distinguishes_page_sizes_but_shares_the_trace(self, tmp_path):
        one = smoke(tmp_path, page_sizes=(4096,))
        two = smoke(tmp_path, page_sizes=(4096, 8192))
        assert sim_path(one) != sim_path(two)
        assert trace_path(one) == trace_path(two)

    @pytest.mark.parametrize("engine", ENGINE_CHOICES)
    def test_ignores_the_engine(self, tmp_path, engine):
        # Every backend computes bit-identical results, so an entry one
        # engine published is a hit for the others.
        assert sim_path(smoke(tmp_path, engine=engine)) == \
            sim_path(smoke(tmp_path))

    def test_ignores_jobs(self, tmp_path):
        assert sim_path(smoke(tmp_path, jobs=3)) == sim_path(smoke(tmp_path))

    def test_unknown_program_rejected(self, tmp_path):
        with pytest.raises(PipelineError, match="unknown program"):
            load_program_data("nosuch", smoke(tmp_path))


class TestRerun:
    """The hit/miss decisions of a re-run over the store."""

    def test_published_entry_is_a_hit_and_runs_nothing(
            self, published, observing):
        config, first = published
        again, counters = counters_of(
            lambda: load_program_data(PROGRAM, config))
        assert counters["cache.sim.hits"] == 1
        assert "cache.sim.misses" not in counters
        assert "engine.runs" not in counters
        assert "cache.trace.hits" not in counters
        assert again.result.counts == first.result.counts
        assert again.meta.base_time_us == first.meta.base_time_us

    def test_missing_sim_entry_recomputes_from_the_cached_trace(
            self, published, observing):
        config, first = published
        sim_path(config).unlink()
        again, counters = counters_of(
            lambda: load_program_data(PROGRAM, config))
        assert counters["cache.sim.misses"] == 1
        assert counters["cache.trace.hits"] == 1
        assert counters["engine.runs"] == 1
        assert again.result.counts == first.result.counts
        assert sim_path(config).exists()

    def test_missing_trace_alone_is_still_a_hit(self, published, observing):
        config, _ = published
        trace_path(config).unlink()
        _, counters = counters_of(lambda: load_program_data(PROGRAM, config))
        assert counters["cache.sim.hits"] == 1
        assert not trace_path(config).exists()

    def test_empty_cache_recomputes_everything(self, tmp_path, observing):
        config = smoke(tmp_path)
        _, counters = counters_of(lambda: load_program_data(PROGRAM, config))
        assert counters["cache.sim.misses"] == 1
        assert counters["cache.trace.misses"] == 1
        assert {entry.status for entry in ResultStore(tmp_path).verify()
                .entries} == {STATUS_SIM, STATUS_NPZ}

    def test_no_cache_run_never_hits_and_writes_nothing(
            self, published, observing):
        config, first = published
        before = sorted(path.name for path in config.cache_dir.iterdir())
        uncached = smoke(config.cache_dir, use_cache=False)
        again, counters = counters_of(
            lambda: load_program_data(PROGRAM, uncached))
        assert "cache.sim.hits" not in counters
        assert counters["engine.runs"] == 1
        assert sorted(path.name for path in config.cache_dir.iterdir()) \
            == before
        assert again.result.counts == first.result.counts

    def test_other_page_sizes_miss_but_reuse_the_trace(
            self, published, observing):
        config, _ = published
        other = smoke(config.cache_dir, page_sizes=(8192,))
        again, counters = counters_of(
            lambda: load_program_data(PROGRAM, other))
        assert counters["cache.sim.misses"] == 1
        assert counters["cache.trace.hits"] == 1
        assert sim_path(config).exists() and sim_path(other).exists()
        assert again.result.page_sizes == (8192,)

    def test_temp_dropping_beside_the_entry_is_ignored(
            self, published, observing):
        # A writer killed mid-publish leaves only a temp file; the entry
        # it would have replaced still loads.
        config, _ = published
        dropping = sim_path(config).with_name(
            sim_path(config).name + ".abc123.tmp")
        dropping.write_bytes(b"half")
        _, counters = counters_of(lambda: load_program_data(PROGRAM, config))
        assert counters["cache.sim.hits"] == 1

    def test_corrupt_entry_is_republished_and_verifies(
            self, published, observing):
        config, first = published
        path = sim_path(config)
        # One byte flipped in the middle of the hits column's stored bytes.
        data = bytearray(path.read_bytes())
        with zipfile.ZipFile(path) as archive:
            info = archive.getinfo("hits.npy")
        name_length, extra_length = struct.unpack_from(
            "<HH", data, info.header_offset + 26)
        start = info.header_offset + 30 + name_length + extra_length
        data[start + info.compress_size // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        again, counters = counters_of(
            lambda: load_program_data(PROGRAM, config))
        assert counters["cache.sim.corrupt"] == 1
        assert counters["cache.sim.misses"] == 1
        assert again.result.counts == first.result.counts
        statuses = {entry.name: entry.status
                    for entry in ResultStore(config.cache_dir).verify().entries}
        assert statuses[path.name] == STATUS_SIM

    def test_gc_then_rerun_converges(self, published, observing):
        config, first = published
        sim_path(config).write_bytes(b"\x80\x04 torn")
        assert ResultStore(config.cache_dir).gc()["removed"] == \
            [sim_path(config).name]
        again, counters = counters_of(
            lambda: load_program_data(PROGRAM, config))
        assert counters["cache.sim.misses"] == 1
        assert "cache.sim.corrupt" not in counters
        assert again.result.counts == first.result.counts
        assert ResultStore(config.cache_dir).verify().corrupt == []

    def test_partial_run_recomputes_only_the_rest(
            self, published, observing):
        # A run killed after its first program: the re-run loads that
        # program and computes the other.
        config, _ = published
        both = smoke(config.cache_dir, programs=(PROGRAM, "bps"))
        data, counters = counters_of(lambda: load_experiment_data(both))
        assert tuple(data) == (PROGRAM, "bps")
        assert counters["cache.sim.hits"] == 1
        assert counters["cache.sim.misses"] == 1
        _, counters = counters_of(lambda: load_experiment_data(both))
        assert counters["cache.sim.hits"] == 2
        assert "cache.sim.misses" not in counters

    def test_entry_published_by_one_engine_hits_for_another(
            self, published, observing):
        config, first = published
        other = smoke(config.cache_dir, engine="python")
        again, counters = counters_of(
            lambda: load_program_data(PROGRAM, other))
        assert counters["cache.sim.hits"] == 1
        assert again.result.counts == first.result.counts
