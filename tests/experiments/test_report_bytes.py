"""The full-scale reports, byte for byte.

``perfbench/reference.json`` pins the sha256 of the full-scale ``table4``
report (``cold``) and of the full-scale ``all`` report (``replay``).  The
committed ``.repro_cache/`` holds every full-scale trace and sim entry,
so both reports render here from a copy of it in about a second, with no
phase 1 or phase 2 run.  A change that moves one digit of any table, in
the models or anywhere else, fails here.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from repro.experiments.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parents[2]
REFERENCE = json.loads(
    (REPO_ROOT / "perfbench" / "reference.json").read_text(encoding="utf-8"))


def entries(cache: Path) -> dict:
    return {path.name: (path.stat().st_mtime_ns, path.stat().st_size)
            for path in cache.iterdir()}


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    cache = tmp_path_factory.mktemp("full") / "cache"
    shutil.copytree(REPO_ROOT / ".repro_cache", cache)
    return cache


@pytest.mark.parametrize("target,workload", [("table4", "cold"),
                                             ("all", "replay")])
def test_full_scale_report_matches_reference(cache_dir, tmp_path, target,
                                             workload):
    before = entries(cache_dir)
    out = tmp_path / f"{target}.txt"
    assert cli_main([target, "--cache-dir", str(cache_dir), "--quiet",
                     "--out", str(out)]) == 0
    # Every entry was a cache hit: nothing was traced or simulated.
    assert entries(cache_dir) == before
    report = out.read_text(encoding="utf-8")
    assert report.endswith("\n")
    digest = hashlib.sha256(report[:-1].encode("utf-8")).hexdigest()
    assert digest == REFERENCE[workload]["report_sha256"]
