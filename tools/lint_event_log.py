#!/usr/bin/env python
"""Event-log lint: validate JSONL flight-recorder logs and keep the
schema table in ``docs/OBSERVABILITY.md`` honest about the writer.

Two jobs, composable in one invocation:

* **log validation** — every positional argument is a JSONL event log
  (the ``.events.jsonl`` file a ``--manifest`` run writes beside its
  manifest); each is checked line by line against the schema in
  :mod:`repro.observe.events` (all nine keys, strictly increasing
  ``seq``, a single ``run_id`` spanning parent and workers).  Pass
  ``--allow-multiple-runs`` for logs concatenated from several runs.
* **docs lint** — the "Event log" section of ``docs/OBSERVABILITY.md``
  carries a generated field table between
  ``<!-- generated:event-schema -->`` markers, derived from
  :data:`repro.observe.events.SCHEMA_FIELDS` — the same tuple the
  validator enforces — so the spec cannot drift from the writer.
  ``--check-docs`` exits non-zero when the block is stale;
  ``--write-docs`` regenerates it in place.

Wired into tier-1 via ``tests/observe/test_events.py`` and into CI as
the ``events-smoke`` job (which validates the logs of a serial and a
``--jobs 2`` chaos run) plus the docs-lint step.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

DOC_PATH = REPO_ROOT / "docs" / "OBSERVABILITY.md"

_BLOCK = "event-schema"
_BLOCK_PATTERN = re.compile(
    rf"(<!-- generated:{_BLOCK} -->\n)(.*?)(\n<!-- /generated:{_BLOCK} -->)",
    re.DOTALL,
)


def generated_schema_table() -> str:
    """The field table, derived from the writer's own schema tuple."""
    from repro.observe.events import EVENT_SCHEMA_VERSION, SCHEMA_FIELDS

    lines = [
        f"Schema version: **{EVENT_SCHEMA_VERSION}**"
        " (the `v` field of every line).",
        "",
        "| field | type | meaning |",
        "|-------|------|---------|",
    ]
    for name, json_type, meaning in SCHEMA_FIELDS:
        lines.append(f"| `{name}` | {json_type} | {meaning} |")
    return "\n".join(lines)


def check_docs(text: str) -> bool:
    """Whether the generated block in the doc matches the implementation."""
    match = _BLOCK_PATTERN.search(text)
    return match is not None and match.group(2).strip() == generated_schema_table()


def write_docs(text: str) -> str:
    if _BLOCK_PATTERN.search(text) is None:
        raise SystemExit(
            f"error: {DOC_PATH} has no '<!-- generated:{_BLOCK} -->' "
            "markers to fill"
        )
    return _BLOCK_PATTERN.sub(
        lambda m: m.group(1) + generated_schema_table() + m.group(3), text
    )


def validate_log(path: str, allow_multiple_runs: bool) -> int:
    """Validate one JSONL event log; returns the number of events.

    A torn final line (a writer killed mid-append — the expected
    artifact of a crash) is reported as a warning, not an error.
    """
    from repro.observe.events import load_event_log

    events = load_event_log(
        path, allow_multiple_runs=allow_multiple_runs,
        on_warning=lambda msg: print(f"warning: {msg}", file=sys.stderr),
    )
    run_ids = sorted({str(event["run_id"]) for event in events})
    workers = sorted({str(event["worker"]) for event in events})
    shown = ", ".join(repr(w) if w == "" else w for w in workers) or "-"
    print(
        f"{path}: OK — {len(events)} event(s), "
        f"run {', '.join(run_ids) or '-'}, workers [{shown}]"
    )
    return len(events)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "logs", nargs="*", metavar="LOG",
        help="JSONL event logs to validate (the .events.jsonl file a "
        "--manifest run writes beside its manifest)",
    )
    parser.add_argument(
        "--allow-multiple-runs", action="store_true",
        help="accept logs whose lines span more than one run_id "
        "(logs concatenated from several runs)",
    )
    parser.add_argument(
        "--check-docs", action="store_true",
        help="verify the generated schema block in docs/OBSERVABILITY.md",
    )
    parser.add_argument(
        "--write-docs", action="store_true",
        help="regenerate the schema block in docs/OBSERVABILITY.md in place",
    )
    args = parser.parse_args(argv)
    if not args.logs and not args.check_docs and not args.write_docs:
        parser.error("nothing to do: pass LOG files, --check-docs, "
                     "or --write-docs")

    failed = False
    for log in args.logs:
        try:
            validate_log(log, args.allow_multiple_runs)
        except (OSError, ValueError) as exc:
            print(f"error: {log}: {exc}", file=sys.stderr)
            failed = True

    if args.write_docs:
        if not DOC_PATH.exists():
            print(f"error: {DOC_PATH} does not exist", file=sys.stderr)
            return 1
        DOC_PATH.write_text(
            write_docs(DOC_PATH.read_text(encoding="utf-8")), encoding="utf-8"
        )
        print(f"regenerated the {_BLOCK} block in {DOC_PATH}")
    elif args.check_docs:
        if not DOC_PATH.exists():
            print(f"error: {DOC_PATH} does not exist", file=sys.stderr)
            return 1
        if not check_docs(DOC_PATH.read_text(encoding="utf-8")):
            print(
                f"error: docs/OBSERVABILITY.md is stale against "
                f"repro.observe.events.SCHEMA_FIELDS.\n"
                f"Run: python tools/lint_event_log.py --write-docs",
                file=sys.stderr,
            )
            failed = True
        else:
            print("docs/OBSERVABILITY.md event schema matches the writer")

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
