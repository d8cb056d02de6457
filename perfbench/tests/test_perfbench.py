"""The benchmark's own tests.  Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import pytest

import ledger
import run
import speed
import worker

SMOKE = dict(scale="smoke", programs=("qcd",))


@pytest.fixture(scope="module")
def reference():
    return worker.load_reference()


@pytest.fixture(scope="module")
def smoke_cold(tmp_path_factory):
    """A smoke-scale ``cold`` output and a reference recorded from it."""
    out = worker.cold_iteration(tmp_path_factory.mktemp("cold"), **SMOKE)
    return out, {"report_sha256": out["report_sha256"],
                 "programs": out["counts"]}


def test_gate_passes_the_recorded_output(smoke_cold, tmp_path):
    _, recorded = smoke_cold
    again = worker.cold_iteration(tmp_path, recorded, **SMOKE)
    assert again["failures"] == []


def test_gate_fails_on_a_perturbed_report(smoke_cold, tmp_path, monkeypatch):
    _, recorded = smoke_cold
    real = worker.render_table4_report
    monkeypatch.setattr(worker, "TABLE4", (lambda d: real(d) + " ",))
    out = worker.cold_iteration(tmp_path, recorded, **SMOKE)
    assert out["failures"] == ["rendered report differs from the reference"]


def test_gate_fails_on_perturbed_counts(smoke_cold):
    out, recorded = smoke_cold
    counts = {name: dict(c) for name, c in out["counts"].items()}
    counts["qcd"]["cycles"] += 1
    failures = worker.check_pipeline("", counts, recorded)
    assert any(f.startswith("qcd: counts") for f in failures)


def test_replay_flags_a_rerun_of_phase_1(smoke_cold, tmp_path):
    out, _ = smoke_cold
    traces = tmp_path / "traces"
    traces.mkdir()
    # A trace cache that is missing its entry forces phase 1 to run.
    replay = worker.replay_iteration(traces, tmp_path, **SMOKE)
    assert any(f.startswith("phase 1 ran") for f in replay["failures"])
    ok = worker.replay_iteration(worker.Path(out["cache"]), tmp_path, **SMOKE)
    assert ok["failures"] == []


def test_live_gate_requires_every_approach_to_agree(reference):
    pools = reference["live"]["pools"]
    picks = worker.pick_breakpoints(7, pools)
    hits = {label: {kind: pools[kind][picks[kind]] for kind in picks}
            for label, _s, _p in worker.APPROACHES}
    assert worker.check_live(hits, picks, pools) == []
    hits["TP"]["heap"] += 1
    assert len(worker.check_live(hits, picks, pools)) == 1


def test_live_pick_is_seeded_and_always_hit(reference):
    pools = reference["live"]["pools"]
    picks = [worker.pick_breakpoints(seed, pools) for seed in range(200)]
    assert picks == [worker.pick_breakpoints(seed, pools)
                     for seed in range(200)]
    for kind in ("global", "local", "heap"):
        assert len({p[kind] for p in picks}) > 1
        assert all(pools[kind][p[kind]] >= 1 for p in picks)


def test_live_pick_is_hit_as_recorded(reference):
    """One full-scale NH session: each picked breakpoint is hit exactly
    as often as the reference says."""
    pools = reference["live"]["pools"]
    picks = worker.pick_breakpoints(3, pools)
    workload = worker.get_workload("gcc")
    session = worker.live_session(
        workload.compile(), workload, workload.default_scale, "native",
        4096, picks, label="NH")
    assert session["failures"] == []
    assert session["hits"] == {k: pools[k][picks[k]] for k in picks}


def test_bare_time_is_the_mean_of_the_runs_around_the_traced_one():
    bare = [{"gcc": {"run_s": 3.0, "instructions": 10, "cycles": 20},
             "qcd": {"run_s": 5.0, "instructions": 30, "cycles": 40}},
            {"gcc": {"run_s": 4.0, "instructions": 10, "cycles": 20},
             "qcd": {"run_s": 6.0, "instructions": 30, "cycles": 40}}]
    live_bare = [{"gcc": {"run_s": 1.0}}, {"gcc": {"run_s": 2.0}}]
    layers = {"cold": {"trace.run_s": 12.0, "pipeline.self_s": 0.5},
              "replay": {"pipeline.self_s": 0.25},
              "live": {"live.NH.run_s": 2.5}}
    metrics = run.compose_layers(bare, live_bare, layers)
    assert metrics["trace.hook_s"] == 12.0 - 9.0
    assert metrics["machine.bare_minstr_per_s"] == 40 / 9.0 / 1e6
    assert metrics["machine.instructions"] == 40
    assert metrics["live.NH.wms_s"] == 2.5 - 1.5
    assert metrics["pipeline.self_s"] == 0.75


def test_untraced_runs_carry_no_timing_wrappers(tmp_path, monkeypatch):
    seen = []
    real = worker.load_experiment_data

    def probe(config):
        seen.append(ledger.wrapped_targets())
        return real(config)

    monkeypatch.setattr(worker, "load_experiment_data", probe)
    worker.cold_iteration(tmp_path, **SMOKE)
    with ledger.Ledger() as traced:
        worker.cold_iteration(tmp_path, ledger=traced, **SMOKE)
    assert seen[0] == []
    assert len(seen[1]) == len(ledger.layer_targets())
    assert ledger.wrapped_targets() == []


def test_reference_seconds_weight_each_gap_by_the_speeds_around_it():
    probe = speed.SpeedProbe()
    # Samples at [0, 1] (speed 1), [3, 4] (speed 0.5), [6, 7] (speed 0.5).
    probe.samples = [(0.0, 1.0, 1.0), (3.0, 4.0, 0.5), (6.0, 7.0, 0.5)]
    assert probe.host_seconds(0.0, 7.0) == 4.0
    assert probe.ref_seconds(0.0, 7.0) == 2 * 0.75 + 2 * 0.5
    assert probe.ref_seconds(2.0, 5.0) == 1 * 0.75 + 1 * 0.5


def test_the_probe_samples_while_a_task_runs():
    with speed.SpeedProbe(period_s=0.05) as probe:
        start = speed.time.perf_counter()
        while speed.time.perf_counter() - start < 0.3:
            pass
        end = speed.time.perf_counter()
    assert len(probe.samples) >= 4
    assert 0 < probe.host_seconds(start, end) < end - start
    assert probe.ref_seconds(start, end) > 0


def test_self_time_leaves_out_the_inner_layers():
    book = ledger.Ledger()
    book.spans["inner"].append((1, 0.0, 1.0))

    def outer_call():
        book.spans["inner"].append((1, 2.0, 2.5))

    book.time_self("outer", ("inner",), outer_call)
    (sign, begin, end), taken = book.spans["outer"][0], book.spans["outer"][1:]
    assert sign == 1 and taken == [(-1, 2.0, 2.5)]
    assert book.seconds("outer", lambda b, e: 10.0) == 0.0
