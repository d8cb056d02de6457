"""Pinned live counts: gcc debugger sessions at smoke scale.

``tools/check_fast_path.py`` and ``test_fast_tier_sessions.py`` compare
the CPU's two loops, which share :class:`~repro.sim_os.SimOs` and the
write-monitor services; a counting slip in the trap, fault and check
path would change both loops alike and pass them.  These sessions pin
what that path charges and counts: the CPU's cycles, instructions,
stores and trap counts, the ``SimOs`` counters and the ``WmsStats`` of
each approach of the ``live`` benchmark workload, watching
``check_fast_path.GCC_WATCHES`` (``check_fast_path.live_run`` on the
fast path, the tier debugger sessions run on unless profiled).  Those
pages take the same stores under 4K and 8K pages, so bps sessions
watching ``check_fast_path.PAGE_SIZE_WATCHES`` pin what the page size
changes.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest


def _load_tool():
    path = Path(__file__).resolve().parents[2] / "tools" / "check_fast_path.py"
    spec = importlib.util.spec_from_file_location("check_fast_path", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TOOL = _load_tool()

#: A change here is a change in what a live session charges or counts.
#: At smoke scale the watched objects' pages take the same stores under
#: 4K and 8K pages, so the two VM sessions agree.
PINNED = {
    "NH": {
        "cycles": 1_279_135, "instructions": 196_858, "stores": 15_152,
        "trap_counts": {"MONITOR_FAULT": 168},
        "os": {"mprotect_calls": 0, "pages_protected": 0,
               "pages_unprotected": 0, "faults_delivered": 168,
               "stores_emulated": 0},
        "stats": {"installs": 57, "removes": 56, "hits": 168, "checks": 168},
    },
    "VM-4K": {
        "cycles": 53_214_695, "instructions": 196_858, "stores": 15_152,
        "trap_counts": {"WRITE_FAULT": 2224},
        "os": {"mprotect_calls": 4561, "pages_protected": 2281,
               "pages_unprotected": 2280, "faults_delivered": 2224,
               "stores_emulated": 2224},
        "stats": {"installs": 57, "removes": 56, "hits": 168, "checks": 2224},
    },
    "VM-8K": {
        "cycles": 53_214_695, "instructions": 196_858, "stores": 15_152,
        "trap_counts": {"WRITE_FAULT": 2224},
        "os": {"mprotect_calls": 4561, "pages_protected": 2281,
               "pages_unprotected": 2280, "faults_delivered": 2224,
               "stores_emulated": 2224},
        "stats": {"installs": 57, "removes": 56, "hits": 168, "checks": 2224},
    },
    "TP": {
        "cycles": 63_954_831, "instructions": 196_858, "stores": 15_152,
        "trap_counts": {"TRAP_INSTR": 15152},
        "os": {"mprotect_calls": 0, "pages_protected": 0,
               "pages_unprotected": 0, "faults_delivered": 15152,
               "stores_emulated": 15152},
        "stats": {"installs": 57, "removes": 56, "hits": 168, "checks": 15152},
    },
    "CP": {
        "cycles": 2_195_279, "instructions": 212_010, "stores": 15_152,
        "trap_counts": {},
        "os": {"mprotect_calls": 0, "pages_protected": 0,
               "pages_unprotected": 0, "faults_delivered": 0,
               "stores_emulated": 0},
        "stats": {"installs": 57, "removes": 56, "hits": 168, "checks": 15152},
    },
}


#: bps under VM with ``PAGE_SIZE_WATCHES``: the 8K pages around the
#: watched objects take stores the 4K pages do not, so VM-8K faults
#: more.
PAGE_SIZE_PINNED = {
    "VM-4K": {
        "cycles": 146_055_327, "instructions": 864_515, "stores": 81_550,
        "trap_counts": {"WRITE_FAULT": 6039},
        "os": {"mprotect_calls": 12415, "pages_protected": 6212,
               "pages_unprotected": 6207, "faults_delivered": 6039,
               "stores_emulated": 6039},
        "stats": {"installs": 169, "removes": 168, "hits": 1721, "checks": 6039},
    },
    "VM-8K": {
        "cycles": 192_253_877, "instructions": 864_515, "stores": 81_550,
        "trap_counts": {"WRITE_FAULT": 8088},
        "os": {"mprotect_calls": 16513, "pages_protected": 8259,
               "pages_unprotected": 8256, "faults_delivered": 8088,
               "stores_emulated": 8088},
        "stats": {"installs": 169, "removes": 168, "hits": 1721, "checks": 8088},
    },
}


def _counts(name, strategy, page_size, watches):
    result = TOOL.live_run(name, "smoke", "_fast_loop", strategy, page_size, watches)
    assert result["error"] is None
    instructions, cycles, stores, trap_counts = result["counters"]
    return {
        "cycles": cycles, "instructions": instructions, "stores": stores,
        "trap_counts": {kind.name: count for kind, count in trap_counts.items()},
        "os": result["os"],
        "stats": result["stats"],
    }


@pytest.mark.parametrize("approach", TOOL.APPROACHES, ids=[a[0] for a in TOOL.APPROACHES])
def test_live_counts_are_pinned(approach):
    label, strategy, page_size = approach
    assert _counts("gcc", strategy, page_size, TOOL.GCC_WATCHES) == PINNED[label]


@pytest.mark.parametrize("approach", TOOL.VM_APPROACHES, ids=[a[0] for a in TOOL.VM_APPROACHES])
def test_page_size_counts_are_pinned(approach):
    label, strategy, page_size = approach
    assert _counts("bps", strategy, page_size, TOOL.PAGE_SIZE_WATCHES) == \
        PAGE_SIZE_PINNED[label]
