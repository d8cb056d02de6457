#!/usr/bin/env python
"""Docs-lint: keep ``docs/TRACE_FORMAT.md`` honest about the implementation.

The normative spec carries three generated blocks between HTML-comment
markers:

* the **column table** — name, dtype, width, and per-kind meaning of the
  four trace columns, derived from a real :meth:`EventTrace.as_arrays`
  call (so a dtype drift in the code breaks the lint, not a reader);
* the **stored column table** — member, dtype and width of each column
  member of the on-disk container, read back from a file the writer
  saved;
* the **kind table** — the :class:`EventKind` byte values;
* the **sim member table** and the **sim footer keys** — the members of
  a sim cache entry, with their dtypes, and the top-level keys of its
  footer, read back from an entry the result store published.

``python tools/lint_trace_format.py`` exits non-zero (printing a diff
hint) when the blocks in the doc do not match what the implementation
produces; ``--write`` regenerates them in place.  Wired into tier-1 via
``tests/trace/test_tracefile.py`` and into CI as the docs-lint
step of the ``equivalence`` job.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

DOC_PATH = REPO_ROOT / "docs" / "TRACE_FORMAT.md"

_BLOCKS = ("column-table", "stored-column-table", "kind-table",
           "sim-member-table", "sim-footer-keys")

#: What row ``i`` of each sim entry count member holds, for studied
#: session ``i``; a member without a meaning here fails the lint.
_SIM_MEANINGS = {
    "session": "its index in `discover_sessions(registry)`",
    "installs": "monitor installs",
    "removes": "monitor removes",
    "hits": "monitor hits",
    "max_concurrent": "peak simultaneously active monitors",
    "protects": "page protects (0 → 1 active monitors) at `<size>`",
    "unprotects": "page unprotects (1 → 0) at `<size>`",
    "active_page_misses": "misses on a page holding an active monitor, "
                          "at `<size>`",
}


def generated_column_table() -> str:
    """The column table, derived from a live ``as_arrays()`` call."""
    import numpy as np

    from repro.trace import EventTrace

    trace = EventTrace("lint")
    trace.append_install(0, 0, 4)
    columns = trace.as_arrays()
    dtypes = {
        name: np.asarray(column).dtype
        for name, column in zip(columns._fields, columns)
    }
    meanings = {
        "kinds": ("event kind byte", "event kind byte", "event kind byte"),
        "col_a": ("object id", "object id", "BA (begin address)"),
        "col_b": ("BA (begin address)", "BA (begin address)",
                  "EA (end address)"),
        "col_c": ("EA (end address)", "EA (end address)", "0"),
    }
    lines = [
        "| column | dtype | bytes/event | INSTALL | REMOVE | WRITE |",
        "|--------|-------|-------------|---------|--------|-------|",
    ]
    for name in columns._fields:
        dtype = dtypes[name]
        install, remove, write = meanings[name]
        lines.append(
            f"| `{name}` | `{dtype}` (little-endian) | {dtype.itemsize} "
            f"| {install} | {remove} | {write} |"
        )
    return "\n".join(lines)


def generated_stored_column_table() -> str:
    """The on-disk column table, from the members of a saved trace."""
    import tempfile

    import numpy as np

    from repro.trace import EventTrace, ObjectRegistry, save_trace

    trace = EventTrace("lint")
    trace.append_install(0, 0, 4)
    registry = ObjectRegistry()
    registry.global_("g", 4)
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "lint.npz"
        save_trace(trace, registry, path)
        with np.load(path) as archive:
            dtypes = {name: archive[name].dtype
                      for name in archive.files if name != "stream"}
    lines = [
        "| member | dtype | bytes/event |",
        "|--------|-------|-------------|",
    ]
    for name, dtype in dtypes.items():
        lines.append(
            f"| `{name}.npy` | `{dtype}` (little-endian) "
            f"| {dtype.itemsize} |"
        )
    total = sum(dtype.itemsize for dtype in dtypes.values())
    lines.append(f"| all four | | {total} |")
    return "\n".join(lines)


def generated_kind_table() -> str:
    from repro.trace import EventKind

    lines = [
        "| kind | byte value |",
        "|------|------------|",
    ]
    for kind in EventKind:
        lines.append(f"| `{kind.name}` | {int(kind)} |")
    return "\n".join(lines)


def _published_sim_entry():
    """The members and footer document of a sim entry the store
    publishes, over page sizes 4096 and 8192."""
    import json
    import tempfile

    import numpy as np

    from repro.experiments.store import SIM_SUFFIX, ResultStore, SimEntry
    from repro.sessions import discover_sessions
    from repro.simulate import simulate_sessions
    from repro.trace import EventTrace, ObjectRegistry

    registry = ObjectRegistry()
    watched = registry.global_("g", 4)
    trace = EventTrace("lint")
    trace.append_install(watched.id, 0, 4)
    trace.append_write(0, 4)
    result = simulate_sessions(trace, registry, discover_sessions(registry),
                               (4096, 8192), engine="python")
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / f"lint-sim-4096-8192{SIM_SUFFIX}"
        ResultStore(path.parent).publish_payload(
            path, SimEntry.of(registry, result))
        with np.load(path) as archive:
            members = {name: archive[name] for name in archive.files}
    doc = json.loads(members.pop("stream").tobytes().decode("utf-8"))
    return members, doc


def generated_sim_member_table() -> str:
    members, _ = _published_sim_entry()
    lines = [
        "| member | dtype | row `i` holds, for studied session `i` |",
        "|--------|-------|----------------------------------------|",
    ]
    for name, array in members.items():
        field, _, size = name.rpartition("_")
        if not size.isdigit():
            field, size = name, ""
        lines.append(
            f"| `{name}.npy` | `{array.dtype}` (little-endian) "
            f"| {_SIM_MEANINGS[field].replace('<size>', size)} |"
        )
    return "\n".join(lines)


def generated_sim_footer_keys() -> str:
    _, doc = _published_sim_entry()
    return ", ".join(f"`{key}`" for key in doc)


def _generated(block: str) -> str:
    if block == "column-table":
        return generated_column_table()
    if block == "stored-column-table":
        return generated_stored_column_table()
    if block == "kind-table":
        return generated_kind_table()
    if block == "sim-member-table":
        return generated_sim_member_table()
    if block == "sim-footer-keys":
        return generated_sim_footer_keys()
    raise ValueError(f"unknown block {block!r}")


def _block_pattern(block: str) -> re.Pattern:
    return re.compile(
        rf"(<!-- generated:{block} -->\n)(.*?)(\n<!-- /generated:{block} -->)",
        re.DOTALL,
    )


def check(text: str) -> list:
    """Mismatched block names (empty list = doc matches implementation)."""
    stale = []
    for block in _BLOCKS:
        match = _block_pattern(block).search(text)
        if match is None or match.group(2).strip() != _generated(block):
            stale.append(block)
    return stale


def write(text: str) -> str:
    for block in _BLOCKS:
        pattern = _block_pattern(block)
        if pattern.search(text) is None:
            raise SystemExit(
                f"error: {DOC_PATH} has no '<!-- generated:{block} -->' "
                "markers to fill"
            )
        text = pattern.sub(
            lambda m, b=block: m.group(1) + _generated(b) + m.group(3), text
        )
    return text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true",
        help="regenerate the blocks in docs/TRACE_FORMAT.md in place",
    )
    args = parser.parse_args(argv)
    if not DOC_PATH.exists():
        print(f"error: {DOC_PATH} does not exist", file=sys.stderr)
        return 1
    text = DOC_PATH.read_text(encoding="utf-8")
    if args.write:
        DOC_PATH.write_text(write(text), encoding="utf-8")
        print(f"regenerated {len(_BLOCKS)} block(s) in {DOC_PATH}")
        return 0
    stale = check(text)
    if stale:
        print(
            f"error: docs/TRACE_FORMAT.md is stale against the "
            f"implementation in block(s): {', '.join(stale)}.\n"
            f"Run: python tools/lint_trace_format.py --write",
            file=sys.stderr,
        )
        return 1
    print("docs/TRACE_FORMAT.md matches the implementation")
    return 0


if __name__ == "__main__":
    sys.exit(main())
