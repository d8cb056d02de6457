"""Guard: journal + store bookkeeping must not tax the hot path.

A journaled run pays, per task, two journal appends (intent + done,
flushed but not fsync'd under the default ``task`` policy), two
memoized task-digest lookups, and the store's envelope check on load.
On the fully-cached hot path — every result already published and
verified — that bookkeeping must stay under the same 3% bound the
observe and faultpoint layers are held to.

Two angles:

* **end-to-end** — min-of-N warm-cache ``load_experiment_data`` runs
  with a live journal vs ``journal=None``; the ratio must stay under
  1.03.  Each sample times repeated runs for at least
  ``MIN_SAMPLE_SECONDS``;
* **by micro-timing** — a single flushed journal append must stay in
  the sub-millisecond range, so per-task cost cannot balloon with the
  task count.
"""

from __future__ import annotations

import time

import pytest

from repro.experiments.journal import RunJournal, task_digest
from repro.experiments.pipeline import load_experiment_data

# More rounds than the faultpoint guard: the measured delta per run is
# well under a millisecond, so one cold-page-cache outlier must not be
# able to decide the minimum.
N_TIMING_ROUNDS = 8
MAX_JOURNAL_OVERHEAD = 1.03
#: A timed sample repeats the warm load until it lasts this long, so one
#: scheduler hiccup cannot decide a sub-millisecond sample.
MIN_SAMPLE_SECONDS = 0.05
MAX_APPEND_SECONDS = 1e-3


@pytest.fixture()
def journal_factory(experiment_config, tmp_path):
    """Fresh begun journals under tmp (never the real runs dir)."""
    count = 0

    def make() -> RunJournal:
        nonlocal count
        count += 1
        journal = RunJournal(
            tmp_path / f"bench-{count}.journal.jsonl", run_id=f"bench-{count}"
        )
        journal.begin(experiment_config)
        return journal

    return make


def test_journaled_hot_path_overhead_under_3_percent(
        experiment_config, experiment_data, journal_factory):
    # ``experiment_data`` guarantees the cache is fully warm; one
    # journaled warm-up additionally fills the task-digest and
    # workload-key memos so min-of-N measures steady state for both.
    warmup = journal_factory()
    load_experiment_data(experiment_config, journal=warmup)
    warmup.seal("complete", exit_code=0)
    warmup.close()

    def timed_run(journal) -> float:
        """Seconds per warm load, over at least MIN_SAMPLE_SECONDS."""
        loads, start = 0, time.perf_counter()
        while True:
            load_experiment_data(experiment_config, journal=journal)
            loads += 1
            elapsed = time.perf_counter() - start
            if elapsed >= MIN_SAMPLE_SECONDS:
                return elapsed / loads

    plain_times, journaled_times = [], []
    for _ in range(N_TIMING_ROUNDS):
        plain_times.append(timed_run(None))
        journal = journal_factory()
        journaled_times.append(timed_run(journal))
        journal.seal("complete", exit_code=0)
        journal.close()

    ratio = min(journaled_times) / min(plain_times)
    assert ratio < MAX_JOURNAL_OVERHEAD, (
        f"journaled hot-path overhead {100 * (ratio - 1):.2f}% exceeds "
        f"{100 * (MAX_JOURNAL_OVERHEAD - 1):.0f}% "
        f"(journaled {min(journaled_times):.4f}s vs "
        f"plain {min(plain_times):.4f}s)"
    )


def test_journal_append_micro_cost(experiment_config, journal_factory):
    """One intent+done pair — checksum, serialize, write, flush — must
    stay sub-millisecond per record, so journaling scales with the task
    count, not against it."""
    journal = journal_factory()
    programs = list(experiment_config.programs)
    appends = 0
    try:
        for program in programs:  # prime the digest/entry memos
            journal.intent_for(program, experiment_config)
        start = time.perf_counter()
        for round_index in range(20):
            for program in programs:
                journal.intent_for(program, experiment_config)
                journal.done_for(program, experiment_config, cached=True)
                appends += 2
        elapsed = time.perf_counter() - start
    finally:
        journal.seal("complete", exit_code=0)
        journal.close()

    per_append = elapsed / appends
    assert per_append < MAX_APPEND_SECONDS, (
        f"journal append costs {1e6 * per_append:.0f}µs "
        f"(bound {1e6 * MAX_APPEND_SECONDS:.0f}µs)"
    )


def test_task_digest_is_memoized(experiment_config):
    """The digest derives from generated workload source (~ms); the
    journal needs it on every append, so repeat lookups must be cheap
    dictionary hits."""
    program = experiment_config.programs[0]
    first = task_digest(program, experiment_config)  # prime the memo

    start = time.perf_counter()
    for _ in range(1000):
        assert task_digest(program, experiment_config) == first
    per_call = (time.perf_counter() - start) / 1000
    assert per_call < 50e-6, f"memoized digest {1e6 * per_call:.1f}µs/call"
