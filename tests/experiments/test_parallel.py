"""Parallel pipeline: equivalence with serial, merged observation, CLI.

The process-pool fan-out must be invisible to consumers: identical
``ProgramData`` for every program, identical rendered tables, and — when
observation is on — a merged manifest whose counter totals match a
serial run's, with the worker fan-out visible only as extra
``worker:<name>`` spans.
"""

from __future__ import annotations

import pickle
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro import observe
from repro.errors import PipelineError
from repro.experiments import parallel, pipeline
from repro.experiments.cli import main as cli_main
from repro.experiments.pipeline import ExperimentConfig, load_experiment_data
from repro.observe.manifest import RunManifest, load_manifest
from tests.conftest import same_counts

PROGRAMS = ("gcc", "ctex", "spice", "qcd", "bps")


@pytest.fixture(scope="module")
def serial_data(tmp_path_factory):
    config = ExperimentConfig(
        programs=PROGRAMS, scale="smoke",
        cache_dir=tmp_path_factory.mktemp("serial_cache"),
    )
    return load_experiment_data(config)


@pytest.fixture(scope="module")
def parallel_data(tmp_path_factory):
    config = ExperimentConfig(
        programs=PROGRAMS, scale="smoke",
        cache_dir=tmp_path_factory.mktemp("parallel_cache"), jobs=2,
    )
    return load_experiment_data(config)


class TestEquivalence:
    def test_all_programs_present_in_config_order(self, parallel_data):
        assert tuple(parallel_data) == PROGRAMS

    def test_counting_variables_identical(self, serial_data, parallel_data):
        for name in PROGRAMS:
            serial = serial_data[name]
            parallel = parallel_data[name]
            assert serial.scale == parallel.scale
            assert serial.meta.base_time_us == parallel.meta.base_time_us
            serial_sessions = [s.label for s in serial.result.sessions]
            parallel_sessions = [s.label for s in parallel.result.sessions]
            assert serial_sessions == parallel_sessions, name
            assert same_counts(serial.result.counts, parallel.result.counts), name
            assert serial.result.total_writes == parallel.result.total_writes
            assert serial.result.n_discarded == parallel.result.n_discarded

    def test_single_job_config_takes_serial_path(
        self, serial_data, monkeypatch, tmp_path
    ):
        # jobs=1 must not spin up a pool; results still correct.
        def no_pool(*args, **kwargs):
            raise AssertionError("jobs=1 started a process pool")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", no_pool)
        config = ExperimentConfig(
            programs=("qcd",), scale="smoke", cache_dir=tmp_path, jobs=1,
        )
        data = load_experiment_data(config)
        assert same_counts(data["qcd"].result.counts, serial_data["qcd"].result.counts)

    def test_jobs_clamped_to_program_count(self, serial_data, tmp_path):
        config = ExperimentConfig(
            programs=("qcd", "gcc"), scale="smoke", cache_dir=tmp_path,
            jobs=64,
        )
        data = load_experiment_data(config)
        assert tuple(data) == ("qcd", "gcc")
        assert same_counts(data["gcc"].result.counts, serial_data["gcc"].result.counts)


class TestDispatchWindow:
    """The scheduler keeps at most ``jobs`` tasks submitted, so a task's
    watchdog deadline starts when a worker picks it up."""

    def test_never_more_than_jobs_tasks_submitted(
        self, serial_data, monkeypatch, tmp_path
    ):
        futures, peaks = [], []

        class SpyPool(parallel.ProcessPoolExecutor):
            def submit(self, fn, *args):
                peaks.append(1 + sum(not f.done() for f in futures))
                futures.append(super().submit(fn, *args))
                return futures[-1]

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", SpyPool)
        programs = ("qcd", "gcc", "bps")
        config = ExperimentConfig(
            programs=programs, scale="smoke", cache_dir=tmp_path, jobs=2,
        )
        data = load_experiment_data(config)
        assert len(futures) == len(programs)
        assert max(peaks) == 2
        for name in programs:
            assert same_counts(data[name].result.counts, serial_data[name].result.counts)

    def test_kill_pool_kills_a_busy_worker(self):
        # An abort, a watchdog expiry or a SIGTERM must not leave a
        # worker running its task after the scheduler has moved on.
        pool = ProcessPoolExecutor(max_workers=1)
        future = pool.submit(time.sleep, 60)
        while not future.running():
            time.sleep(0.01)
        processes = list(pool._processes.values())
        parallel._kill_pool(pool)
        for proc in processes:
            proc.join(timeout=10)
            assert not proc.is_alive()

    def test_kill_pool_reaps_workers_before_returning(self):
        # The executor's manager thread reaps killed workers; a caller
        # that checks a worker while that thread still reaps it can lose
        # the exit status and see a dead worker as alive.  So every
        # worker has exited, and the thread is gone, when it returns.
        pool = ProcessPoolExecutor(max_workers=2)
        futures = [pool.submit(time.sleep, 60) for _ in range(2)]
        while not all(future.running() for future in futures):
            time.sleep(0.01)
        processes = list(pool._processes.values())
        manager = pool._executor_manager_thread
        parallel._kill_pool(pool)
        assert not manager.is_alive()
        assert [proc.exitcode is not None for proc in processes] == \
            [True] * len(processes)

    def test_kill_pool_leaves_no_future_pending(self):
        # Queued work is cancelled and the running task fails with the
        # broken pool: nothing waits on a worker that no longer exists.
        pool = ProcessPoolExecutor(max_workers=1)
        futures = [pool.submit(time.sleep, 60) for _ in range(4)]
        while not futures[0].running():
            time.sleep(0.01)
        parallel._kill_pool(pool)
        assert all(future.done() for future in futures)
        assert futures[-1].cancelled()

    def test_kill_pool_accepts_no_pool_and_the_in_process_executor(self):
        parallel._kill_pool(None)
        executor = parallel._InProcessExecutor()
        future = executor.submit(sum, (1, 2))
        parallel._kill_pool(executor)
        assert future.result() == 3


class TestMergedObservation:
    @pytest.fixture()
    def observing(self):
        was_enabled = observe.is_enabled()
        observe.reset()
        observe.enable()
        yield observe.get_registry()
        if not was_enabled:
            observe.disable()
        observe.reset()

    def test_merged_manifest_counters_match_serial_totals(
        self, observing, tmp_path
    ):
        config = ExperimentConfig(
            programs=PROGRAMS, scale="smoke", cache_dir=tmp_path / "cold",
            jobs=3,
        )
        with observe.span("pipeline"):
            load_experiment_data(config)
        manifest = RunManifest.from_registry(target="parallel-unit")
        # Cold cache: every program missed and recomputed, in a worker.
        assert manifest.counters["cache.trace.misses"] == len(PROGRAMS)
        assert manifest.counters["cache.sim.misses"] == len(PROGRAMS)
        assert manifest.counters["engine.runs"] == len(PROGRAMS)
        # The backend that ran is a counter too, so it merges the same way.
        assert sum(value for name, value in manifest.counters.items()
                   if name.startswith("engine.backend.")) == len(PROGRAMS)
        assert manifest.cache["trace"]["written"]
        assert manifest.counters["trace.events"] == manifest.counters["engine.events"]
        assert manifest.counters["cpu.stores"] == manifest.counters["trace.writes"]
        assert manifest.gauges["pipeline.jobs"] == 3
        # Stage rollup looks serial: every program reports its stages.
        for name in PROGRAMS:
            assert {"compile", "trace", "simulate"} <= set(manifest.stages[name])

    def test_worker_spans_grafted_under_parent(self, observing, tmp_path):
        config = ExperimentConfig(
            programs=("qcd", "gcc"), scale="smoke", cache_dir=tmp_path,
            jobs=2,
        )
        with observe.span("pipeline"):
            load_experiment_data(config)
        spans = observing.snapshot()["spans"]
        by_name = {s["name"]: s for s in spans}
        for name in ("qcd", "gcc"):
            worker = by_name[f"worker:{name}"]
            assert worker["path"] == f"pipeline/worker:{name}"
            assert worker["parent"] == "pipeline"
            program = by_name[f"program:{name}"]
            assert program["path"] == f"pipeline/worker:{name}/program:{name}"
            # Worker clocks are rebased into the parent timeline: the
            # grafted span cannot start before its worker was submitted.
            assert program["start_s"] >= worker["start_s"]


class TestPoolCacheReads:
    """Pool workers get their traces the way a serial run does."""

    @pytest.fixture()
    def observing(self):
        was_enabled = observe.is_enabled()
        observe.reset()
        observe.enable()
        yield observe.get_registry()
        if not was_enabled:
            observe.disable()
        observe.reset()

    @staticmethod
    def _warm_trace_cold_sim(config):
        """Fill the trace cache, then drop the sim cache entries."""
        from repro.experiments.pipeline import sim_cache_path
        from repro.workloads import WORKLOADS

        warm = ExperimentConfig(
            programs=config.programs, scale=config.scale,
            cache_dir=config.cache_dir, jobs=1,
        )
        data = load_experiment_data(warm)
        for name in config.programs:
            workload = WORKLOADS[name]
            sim_cache_path(workload, warm.scale_of(workload), warm).unlink()
        return data

    @staticmethod
    def _assert_no_shm_counters(counters):
        assert not [key for key in counters if key.startswith("trace.shm.")]

    def test_workers_read_the_trace_cache(self, observing, tmp_path):
        programs = ("qcd", "gcc")
        config = ExperimentConfig(
            programs=programs, scale="smoke", cache_dir=tmp_path, jobs=2,
        )
        serial = self._warm_trace_cold_sim(config)
        observe.reset()  # drop warm-up counters
        observe.enable()
        parallel = load_experiment_data(config)
        counters = observing.snapshot()["counters"]
        # Every worker loaded its program's trace from the disk cache.
        assert counters["cache.trace.hits"] == len(programs)
        assert counters["cache.sim.misses"] == len(programs)
        for name in programs:
            assert same_counts(serial[name].result.counts, parallel[name].result.counts)
            assert (serial[name].result.total_writes
                    == parallel[name].result.total_writes)
        self._assert_no_shm_counters(counters)

    def test_worker_submissions_carry_no_trace(self, tmp_path, monkeypatch):
        # The pool pickles each task's arguments.  A worker reads its
        # trace from the cache itself, so no trace column or registry
        # crosses the pool boundary and each submission stays small.
        from repro.trace import EventTrace, ObjectRegistry

        submitted = []

        class RecordingPool(ProcessPoolExecutor):
            def submit(self, fn, *args, **kwargs):
                submitted.append((args, len(pickle.dumps((fn, args, kwargs)))))
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", RecordingPool)
        programs = ("qcd", "gcc")
        config = ExperimentConfig(
            programs=programs, scale="smoke", cache_dir=tmp_path, jobs=2,
        )
        self._warm_trace_cold_sim(config)
        data = load_experiment_data(config)
        assert set(data) == set(programs)
        assert sorted(args[0] for args, _ in submitted) == sorted(programs)
        for args, size in submitted:
            assert not [arg for arg in args if isinstance(
                arg, (EventTrace, ObjectRegistry, np.ndarray))]
            assert size < 8192, size

    @pytest.mark.parametrize("name", PROGRAMS)
    def test_cache_hit_returns_the_traced_trace(self, tmp_path, name):
        # What a worker simulates is what phase 1 traced: a trace cache
        # hit rebuilds the columns, the meta and the registry bit for bit.
        from repro.workloads import WORKLOADS

        workload = WORKLOADS[name]
        config = ExperimentConfig(
            programs=(name,), scale="smoke", cache_dir=tmp_path,
        )
        scale = config.scale_of(workload)
        traced, registry, saving = pipeline._trace_for(
            workload, scale, config, None
        )
        assert saving is not None
        assert saving.finish(None) is None
        loaded, loaded_registry, again = pipeline._trace_for(
            workload, scale, config, None
        )
        assert again is None  # a hit: nothing to write
        assert len(loaded) == len(traced) > 0
        assert vars(loaded.meta) == vars(traced.meta)
        for want, got in zip(traced.as_arrays(), loaded.as_arrays()):
            assert np.array_equal(np.asarray(want), np.asarray(got))
        assert ([vars(obj) for obj in loaded_registry.objects]
                == [vars(obj) for obj in registry.objects])

    def test_cold_trace_cache_workers_trace(self, observing, tmp_path):
        # Nothing on disk: every worker runs phase 1 itself.
        programs = ("qcd", "gcc")
        config = ExperimentConfig(
            programs=programs, scale="smoke", cache_dir=tmp_path, jobs=2,
        )
        data = load_experiment_data(config)
        counters = observing.snapshot()["counters"]
        assert counters["cache.trace.misses"] == len(programs)
        assert counters.get("cache.trace.hits", 0) == 0
        assert set(data) == set(programs)
        self._assert_no_shm_counters(counters)

    def test_warm_sim_cache_needs_no_trace(self, observing, tmp_path):
        # A sim cache hit means the worker never touches the trace.
        programs = ("qcd", "gcc")
        warm = ExperimentConfig(
            programs=programs, scale="smoke", cache_dir=tmp_path, jobs=1,
        )
        load_experiment_data(warm)
        observe.reset()
        observe.enable()
        config = ExperimentConfig(
            programs=programs, scale="smoke", cache_dir=tmp_path, jobs=2,
        )
        load_experiment_data(config)
        counters = observing.snapshot()["counters"]
        assert counters["cache.sim.hits"] == len(programs)
        assert counters.get("cache.trace.hits", 0) == 0
        assert counters.get("cache.trace.misses", 0) == 0
        self._assert_no_shm_counters(counters)


class TestCli:
    def test_jobs_flag_smoke(self, capsys, tmp_path):
        code = cli_main([
            "table4", "--scale", "smoke", "--cache-dir", str(tmp_path),
            "--quiet", "--programs", "qcd", "gcc", "--jobs", "2",
        ])
        assert code == 0
        assert "Table 4" in capsys.readouterr().out

    def test_jobs_recorded_in_manifest(self, capsys, tmp_path):
        manifest_path = tmp_path / "run.json"
        code = cli_main([
            "table1", "--scale", "smoke", "--cache-dir", str(tmp_path / "c"),
            "--quiet", "--programs", "qcd", "gcc", "--jobs", "2",
            "--manifest", str(manifest_path),
        ])
        assert code == 0
        manifest = load_manifest(manifest_path)
        assert manifest.config["jobs"] == 2
        assert {"worker:qcd", "worker:gcc"} <= {
            s["name"] for s in manifest.spans
        }

    def test_bad_jobs_rejected(self, capsys):
        assert cli_main(["table1", "--quiet", "--jobs", "0"]) == 2
        assert "jobs" in capsys.readouterr().err


class TestConfigValidation:
    def test_jobs_must_be_positive_int(self):
        with pytest.raises(PipelineError):
            ExperimentConfig(jobs=0)
        with pytest.raises(PipelineError):
            ExperimentConfig(jobs=-2)
