"""The repository benchmark: ``cold``, ``replay`` and ``live``.

Run from the repository root::

    python3 perfbench/run.py                      # every workload, a table
    python3 perfbench/run.py --workload cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload live --trace 1   # per-layer ledger

Each workload iteration runs in a fresh interpreter (``worker.py``), one
at a time.  With ``--trace 0`` the run prints the end-to-end metrics of
the chosen workload; with ``--trace 1`` it runs the traced pass over all
three workloads and prints the per-layer metrics.  Every iteration's
output is checked against ``reference.json``.  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
See ``README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import mean, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"
WORKLOADS = ("cold", "replay", "live")
LIVE_PROGRAM = "gcc"
#: Extra interpreter start-ups per run, so ``setup_s`` is a median.
PROBES = 5
#: A run must end within 180 s; stop starting work well before that.
RUN_DEADLINE_S = 170.0

#: Times are reference seconds (see ``speed.py``), not host seconds.
END_TO_END = {
    "ref_wall_s": "s",
    "setup_s": "s",
    "ref_work_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "ok_ratio": "ratio",
}


def child_env() -> dict:
    """Children import the checkout's ``src`` and keep every file they
    write (kernel build, temp files) inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # One hash seed for every child: set and dict layouts, and so their
    # cost, then differ between runs only by the code.
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_NATIVE_CACHE"] = str(WORK_ROOT / "native")
    env["TMPDIR"] = str(WORK_ROOT / "tmp")
    (WORK_ROOT / "tmp").mkdir(parents=True, exist_ok=True)
    return env


class Worker:
    """Result of one ``worker.py`` task; ``result`` is None if it died."""

    def __init__(self, task: str, work: Path, timeout_s: float, *extra: str):
        cmd = [sys.executable, str(HERE / "worker.py"), task,
               "--work", str(work), *extra]
        self.host_setup_s = None
        self.result = None
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, env=child_env()) as proc:
            timer = threading.Timer(max(timeout_s, 1.0), proc.kill)
            timer.start()
            try:
                ready = proc.stdout.readline().split()
                if ready[:1] == ["ready"]:
                    # The worker's first speed measurement is not set-up.
                    self.host_setup_s = (time.perf_counter() - start
                                         - float(ready[1]))
                    line = proc.stdout.readline()
                    if line.strip():
                        self.result = json.loads(line)
                proc.wait()
            finally:
                timer.cancel()
        if proc.returncode != 0:
            self.result = None

    @property
    def setup_s(self):
        """Set-up in reference seconds, or None if the worker died."""
        if self.result is None:
            return None
        return self.host_setup_s * self.result["setup_speed"]

    @property
    def failures(self) -> list:
        if self.result is None:
            return ["worker died or timed out"]
        return self.result.get("failures", [])


def source_digest() -> str:
    """Digest of the code under test, keying per-checkout builds."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*")):
        if path.suffix in (".py", ".c") and path.is_file():
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def trace_cache(deadline: float) -> tuple:
    """The five full-scale traces, built once per checkout by the code
    under test.  Returns ``(directory, seconds spent building here)``."""
    final = WORK_ROOT / "traces" / source_digest()
    if final.is_dir():
        return final, 0.0
    staging = WORK_ROOT / "traces" / f"{final.name}.building-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    start = time.perf_counter()
    built = Worker("build-traces", staging, deadline - time.perf_counter(),
                   "--dest", str(staging))
    if built.result is None:
        shutil.rmtree(staging, ignore_errors=True)
        raise RuntimeError("building the replay trace cache failed")
    os.replace(staging, final)
    return final, time.perf_counter() - start


def untraced(workload: str, seed: int, seconds: float, work: Path,
             deadline: float) -> dict:
    """Iterations of ``workload`` for ``seconds``; the end-to-end metrics.

    ``setup_s`` never includes the replay trace-cache build: that is
    phase 1, which ``cold`` measures, and it happens in one run per
    checkout only.  A run that builds records the time as
    ``trace_build_s``."""
    extra, build_s = [], 0.0
    probes = [Worker("probe", work, deadline - time.perf_counter())
              for _ in range(PROBES)]
    if workload == "replay":
        traces, build_s = trace_cache(deadline)
        extra = ["--traces", str(traces)]
    elif workload == "live":
        extra = ["--seed", str(seed)]

    runs = []
    loop_start = time.perf_counter()
    while True:
        runs.append(Worker(workload, work, deadline - time.perf_counter(),
                           *extra))
        elapsed = time.perf_counter() - loop_start
        per_run = elapsed / len(runs)
        if elapsed + per_run > seconds \
                or 2 * per_run > deadline - time.perf_counter():
            break

    workers = probes + runs
    good = [r.result for r in runs if not r.failures] or \
        [r.result for r in runs if r.result is not None]
    failed = sum(1 for r in runs if r.failures)
    metrics = {"ok_ratio": (len(runs) - failed) / len(runs)}
    host = {}
    if good:
        metrics.update({
            "ref_wall_s": median(r["ref_wall_s"] for r in good),
            "ref_work_per_s": median(r["work"] / r["ref_wall_s"]
                                     for r in good),
            "peak_rss_mib": median(r["peak_rss_mib"] for r in good),
        })
        host["wall_s"] = median(r["wall_s"] for r in good)
        host["speed"] = median(r["ref_wall_s"] / r["wall_s"] for r in good)
    if all(w.setup_s is not None for w in workers):
        metrics["setup_s"] = median(w.setup_s for w in workers)
        host["setup_s"] = median(w.host_setup_s for w in workers)
    return {
        "metrics": metrics,
        "host": host,
        "attempted": len(runs),
        "failed": failed,
        "failures": [f for r in runs for f in r.failures],
        "fingerprint": good[0]["fingerprint"] if good else None,
        "samples": [r.result for r in runs],
        "setup_samples": [(w.host_setup_s, w.setup_s) for w in workers],
        "trace_build_s": build_s,
    }


def traced(workload: str, seed: int, work: Path, deadline: float) -> dict:
    """The per-layer ledger.  Every step runs in its own fresh worker,
    one after another:

    bare, traced cold, bare, untraced ``workload``, traced replay,
    bare gcc, traced live, bare gcc.

    A bare time is the mean of the two bare runs around the traced
    iteration it is subtracted from, which cancels a steady drift in
    host speed.  The untraced iteration of ``workload`` starts within a
    minute of its traced one, so the overhead compares nearby runs."""
    probes = [Worker("probe", work, deadline - time.perf_counter())
              for _ in range(PROBES)]
    runs = []

    def start(task: str, *extra: str):
        runs.append(Worker(task, work, deadline - time.perf_counter(),
                           *extra))
        return runs[-1].result

    bare = [start("bare")]
    steps = {"cold": start("cold", "--trace", "1")}
    bare.append(start("bare"))
    traces = ["--traces", steps["cold"]["cache"]] if steps["cold"] else []
    inputs = {"cold": [], "replay": traces, "live": ["--seed", str(seed)]}
    plain = start(workload, *inputs[workload])
    steps["replay"] = start("replay", "--trace", "1", *traces)
    live_bare = [start("bare", "--programs", LIVE_PROGRAM)]
    steps["live"] = start("live", "--trace", "1", *inputs["live"])
    live_bare.append(start("bare", "--programs", LIVE_PROGRAM))

    failures = [f for r in probes + runs for f in r.failures]
    metrics = {}
    if not failures:
        metrics = compose_layers(
            [b["bare"] for b in bare], [b["bare"] for b in live_bare],
            {name: step["layers"] for name, step in steps.items()})
        metrics["process.import_s"] = median(
            p.result["import_s"] * p.result["setup_speed"] for p in probes)
        metrics["simulate.kernel_load_s"] = median(
            p.result["kernel_load_s"] * p.result["setup_speed"]
            for p in probes)
        traced_s = steps[workload]["ref_wall_s"]
        metrics["bench.traced_wall_s"] = traced_s
        metrics["bench.untraced_wall_s"] = plain["ref_wall_s"]
        metrics["bench.trace_overhead_s"] = traced_s - plain["ref_wall_s"]
    live = steps["live"]
    return {
        "metrics": metrics,
        "attempted": len(runs),
        "failed": sum(1 for r in runs if r.failures),
        "failures": failures,
        "fingerprint": live["fingerprint"] if live else None,
        "picks": live["picks"] if live else None,
        "samples": [r.result for r in runs],
    }


def compose_layers(bare: list, live_bare: list, layers: dict) -> dict:
    """Per-layer metrics from the traced iterations and the bare runs
    around them: ``bare`` around the cold one, ``live_bare`` (gcc only)
    around the live one."""
    instructions = sum(b["instructions"] for b in bare[0].values())
    bare_s = mean(sum(b["run_s"] for b in run.values()) for run in bare)
    gcc_s = mean(run[LIVE_PROGRAM]["run_s"] for run in live_bare)
    metrics = {}
    for name in WORKLOADS:
        metrics.update(layers[name])
    metrics["pipeline.self_s"] = (layers["cold"]["pipeline.self_s"]
                                  + layers["replay"]["pipeline.self_s"])
    trace_s = metrics["trace.run_s"]
    metrics.update({
        "machine.instructions": instructions,
        "machine.cycles": sum(b["cycles"] for b in bare[0].values()),
        "machine.bare_minstr_per_s": instructions / bare_s / 1e6,
        "trace.traced_minstr_per_s": instructions / trace_s / 1e6,
        "trace.hook_s": trace_s - bare_s,
    })
    for key in [k for k in metrics if k.endswith(".run_s")
                and k.startswith("live.")]:
        metrics[key[:-len("run_s")] + "wms_s"] = metrics[key] - gcc_s
    return metrics


def per_layer_units() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.perf_counter() + RUN_DEADLINE_S
    # A fixed-width name: peak memory moves by megabytes with the length
    # of the cache paths the worker builds, so every run of a checkout
    # uses paths of one length.
    work = WORK_ROOT / "runs" / f"{workload}-{os.getpid():07d}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if trace:
            outcome = traced(workload, seed, work, deadline)
            units = per_layer_units()
        else:
            outcome = untraced(workload, seed, seconds, work, deadline)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    outcome.update(workload=workload, seed=seed, seconds=seconds,
                   trace=trace, source_digest=source_digest())
    missing = sorted(set(units) - set(outcome["metrics"]))
    if missing and not outcome["failures"]:
        outcome["failures"].append(f"metrics not measured: {missing}")
    outcome["units"] = units
    results = WORK_ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(results / f"{workload}-seed{seed}-trace{trace}-{stamp}.json",
              "w", encoding="utf-8") as handle:
        json.dump(outcome, handle, indent=1, sort_keys=True)
    return outcome


def report(outcome: dict, reference_engine: str) -> None:
    """Human-readable lines: fingerprint, failures, every metric."""
    name = outcome["workload"]
    fp = outcome["fingerprint"] or {}
    print(f"[{name}] fingerprint: " + ", ".join(
        f"{k}={v}" for k, v in sorted(fp.items())))
    if fp and fp.get("engine") != reference_engine:
        print(f"[{name}] NOTE: resolved engine {fp.get('engine')} differs "
              f"from the reference host's {reference_engine}; timings are "
              f"not comparable with runs there")
    host = outcome.get("host") or {}
    if host:
        print(f"[{name}] host: " + ", ".join(
            f"{k}={v:.6g}" for k, v in sorted(host.items()))
            + " (speed: reference seconds per host second)")
    if outcome.get("trace_build_s"):
        print(f"[{name}] built the trace cache in "
              f"{outcome['trace_build_s']:.3f} s (not part of setup_s)")
    for failure in outcome["failures"]:
        print(f"[{name}] FAILED: {failure}")
    print(f"[{name}] fail_ratio {outcome['failed'] / outcome['attempted']:g}"
          f" ({outcome['failed']} of {outcome['attempted']} iterations)")
    for metric, value in sorted(outcome["metrics"].items()):
        print(f"[{name}] {metric:<28} {value:>16.6g} "
              f"{outcome['units'].get(metric, '')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark (see README.md).")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=0,
                        help="picks the live workload's breakpoints")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long each workload measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from the traced pass")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from the root of "
              f"a repository checkout", file=sys.stderr)
        return 2
    with open(HERE / "reference.json", "r", encoding="utf-8") as handle:
        reference_engine = json.load(handle)["engine"]

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    outcomes = []
    for name in names:
        outcome = run_one(name, args.seed, args.seconds, args.trace)
        report(outcome, reference_engine)
        outcomes.append(outcome)
    if len(outcomes) == 1:
        metrics = outcomes[0]["metrics"]
        units = outcomes[0]["units"]
        keyed = {k: {"value": v, "unit": units[k]}
                 for k, v in metrics.items() if k in units}
    else:
        keyed = {f"{o['workload']}.{k}": {"value": v, "unit": o["units"][k]}
                 for o in outcomes for k, v in o["metrics"].items()
                 if k in o["units"]}
    attempted = sum(o["attempted"] for o in outcomes)
    failed = sum(o["failed"] for o in outcomes)
    correct = failed == 0 and not any(o["failures"] for o in outcomes)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": keyed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
