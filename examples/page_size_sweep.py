"""How page size affects the VirtualMemory strategy.

The paper chose simulation partly because "we are interested in how page
size affects the performance of strategies based on virtual memory
protection, and a simulator allows us to change the page size easily"
(section 4).  This example traces one workload once and replays the
phase-2 simulation at six page sizes, printing the VM model's mean
relative overhead at each — bigger pages never help.

Run:  python examples/page_size_sweep.py
"""

from repro.models.overhead import relative_overheads, vm_terms
from repro.sessions import discover_sessions
from repro.simulate import simulate_sessions
from repro.workloads import get_workload
from repro.workloads.base import run_workload

PAGE_SIZES = (1024, 2048, 4096, 8192, 16384, 65536)


def main() -> None:
    workload = get_workload("ctex")
    print(f"tracing {workload.name} (smoke scale)...")
    run = run_workload(workload, workload.smoke_scale * 2)
    sessions = discover_sessions(run.registry)
    result = simulate_sessions(run.trace, run.registry, sessions, PAGE_SIZES)
    base_us = run.trace.meta.base_time_us
    print(f"{len(result.sessions)} studied sessions, "
          f"{result.total_writes} writes, base {base_us / 1000:.1f} ms\n")

    print(f"{'page size':>10} {'mean rel overhead':>18} {'worst session':>14}")
    print("-" * 46)
    for size in PAGE_SIZES:
        rels = relative_overheads(result.counts, vm_terms(size), base_us).tolist()
        mean = sum(rels) / len(rels)
        print(f"{size // 1024:>9}K {mean:>17.2f}x {max(rels):>13.2f}x")

    print(
        "\nLarger pages put more unrelated data on protected pages, so\n"
        "active-page misses (each a full kernel fault) grow faster than\n"
        "the savings on protect/unprotect transitions."
    )


if __name__ == "__main__":
    main()
