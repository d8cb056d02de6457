"""Record ``reference.json``: the outputs every benchmark run must match.

Run from the repository root after a change that is meant to alter the
tables, the traced counts or the live hit counts::

    PYTHONPATH=src:perfbench python3 perfbench/record_reference.py

It runs ``cold`` and ``replay`` once and keeps their report digests and
per-program counts.  For ``live`` it keeps, per candidate breakpoint,
the hit count phase 2 simulated for that session, and refuses to write
unless a live CodePatch session watching every candidate at once counts
the same hits.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import worker

#: Candidates the seed picks from, chosen so that the pick moves the
#: run's cost by well under 1%: per kind, the hits, installs and VM
#: active-page misses phase 2 counts for them are of the same size.
#: Locals come from functions that are never on the stack twice, so
#: NH's four registers always suffice, and whose frames are short-lived
#: (a watched ``compile_stmt`` frame makes VM trap on most stack writes
#: and costs a quarter of the run more).
GLOBALS = ("n_stmts", "n_folds", "symval", "symdef", "ob_chunks")
LOCALS = ("mix.h", "mix.v", "final_checksum.i", "final_checksum.h")
HEAP_ORDINALS = range(100)


def simulated_hits(item) -> dict:
    """Phase-2 hit count per session label for one program."""
    return {
        session.label: counts.hits
        for session, counts in zip(item.result.sessions, item.result.counts)
        if session.kind in ("OneGlobalStatic", "OneLocalAuto", "OneHeap")
    }


def live_hits(pools: dict) -> dict:
    """Hit counts of every candidate, watched at once under CodePatch."""
    workload = worker.get_workload(worker.LIVE_PROGRAM)
    scale = workload.default_scale
    debugger = worker.Debugger(workload.compile(scale), strategy="code")
    workload.setup(debugger.memory, debugger.image, scale)
    watches = {"global": {}, "local": {}, "heap": {}}
    for name in pools["global"]:
        watches["global"][name] = debugger.watch_global(name)
    for name in pools["local"]:
        watches["local"][name] = debugger.watch_local(*name.split(".", 1))
    for ordinal in pools["heap"]:
        watches["heap"][ordinal] = debugger.watch_heap(
            "ob_alloc", alloc_ordinal=int(ordinal))
    outcome = debugger.run()
    workload.check(outcome.state, debugger.runtime, scale)
    return {kind: {name: bp.hit_count for name, bp in bps.items()}
            for kind, bps in watches.items()}


def main() -> int:
    work = worker.fresh_dir(worker.WORK_ROOT, "reference-")
    cold = worker.cold_iteration(work)
    replay = worker.replay_iteration(Path(cold["cache"]), work)
    if replay["failures"]:
        print("replay failed:", replay["failures"], file=sys.stderr)
        return 1

    config = worker.ExperimentConfig(cache_dir=Path(cold["cache"]))
    data = worker.load_experiment_data(config)
    simulated = simulated_hits(data[worker.LIVE_PROGRAM])
    pools = {
        "global": {name: simulated[name] for name in GLOBALS},
        "local": {name: simulated[name] for name in LOCALS},
        "heap": {str(k): simulated[f"heap#{k + 1}"] for k in HEAP_ORDINALS},
    }
    if live_hits(pools) != pools:
        print("live hit counts differ from the simulated ones",
              file=sys.stderr)
        return 1
    if any(hits < 1 for pool in pools.values() for hits in pool.values()):
        print("a candidate is never hit", file=sys.stderr)
        return 1

    reference = {
        "engine": worker.fingerprint()["engine"],
        "cold": {"report_sha256": cold["report_sha256"],
                 "programs": cold["counts"]},
        "replay": {"report_sha256": replay["report_sha256"],
                   "programs": replay["counts"]},
        "live": {"program": worker.LIVE_PROGRAM, "pools": pools},
    }
    with open(worker.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {worker.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
