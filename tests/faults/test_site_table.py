"""docs/RESILIENCE.md's faultpoint-site table matches the code.

Every site a ``faultpoint("...")`` call in ``src/repro`` hits has a row,
every row names a site some call hits, and the "program qualifier?"
column agrees with the calls: ``no`` for a site no call passes a
``program`` to (an ``@name`` clause never selects it), ``yes`` or a
restriction ("... only") when every call passes one, and a restriction
when only some do.
"""

from __future__ import annotations

import re
from collections import defaultdict
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

_CALL = re.compile(r'faultpoint\(\s*"([a-z_][a-z0-9_.]*)"([^)]*)\)')


def _code_sites():
    """site -> one bool per call: whether that call passes ``program``."""
    sites = defaultdict(list)
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        for match in _CALL.finditer(path.read_text(encoding="utf-8")):
            sites[match.group(1)].append(
                re.search(r"\bprogram\s*=", match.group(2)) is not None)
    return dict(sites)


def _doc_table():
    """site -> its "program qualifier?" cell, from the table under
    ``### Faultpoint sites``."""
    text = (REPO_ROOT / "docs" / "RESILIENCE.md").read_text(encoding="utf-8")
    section = text.split("### Faultpoint sites", 1)[1]
    rows = {}
    for line in section.splitlines()[1:]:
        if line.startswith("#"):
            break
        if not line.startswith("| `"):
            continue
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        for site in re.findall(r"`([^`]+)`", cells[0]):
            rows[site] = cells[-1]
    return rows


CODE_SITES = _code_sites()
DOC_TABLE = _doc_table()


def test_both_sides_are_found():
    # The parsers above must see something, or every check passes idly.
    assert len(CODE_SITES) >= 9
    assert len(DOC_TABLE) >= 9


def test_every_documented_site_is_hit():
    assert sorted(set(DOC_TABLE) - set(CODE_SITES)) == []


@pytest.mark.parametrize("site", sorted(CODE_SITES))
def test_site_is_documented(site):
    assert site in DOC_TABLE, f"{site} has no row in docs/RESILIENCE.md"


@pytest.mark.parametrize("site", sorted(CODE_SITES))
def test_program_qualifier_column(site):
    calls, cell = CODE_SITES[site], DOC_TABLE.get(site)
    if not any(calls):
        assert cell == "no", site
    elif all(calls):
        assert cell == "yes" or cell.endswith(" only"), site
    else:
        assert cell.endswith(" only"), site
