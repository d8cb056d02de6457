"""Content-addressed, integrity-verified result store over ``.repro_cache/``.

This module generalizes the pipeline's ad-hoc cache files into a small
*store* abstraction with three guarantees:

* **Atomic publish** — every entry is written to a temp file in the
  destination directory and ``os.replace``d into place, so concurrent
  writers and mid-write crashes publish whole entries or nothing.
* **Self-verifying entries** — both entry kinds are the trace container
  (``docs/TRACE_FORMAT.md``), whose zip member CRC-32s are an entry's
  one checksum: a trace entry (``<key>.npz``) holds the event columns, a
  sim entry (``<key>-sim-<sizes>.zip``, :class:`SimEntry`) the count
  columns of the studied sessions.  A load that fails any check raises
  :class:`~repro.errors.TraceFormatError` and the entry is treated
  exactly like a missing one (discarded, recomputed).  Nothing is ever
  unpickled, so no entry can execute code.
* **Maintenance surface** — :meth:`ResultStore.verify` audits every
  entry with every check a cached read makes, and :meth:`ResultStore.gc`
  removes temp droppings and corrupt blobs, surfaced as the ``store
  verify`` / ``store gc`` CLI subcommands.

Entry *names* are unchanged from the classic cache layout: the
simulation cache is deliberately keyed without the engine (a result
computed by one backend is bit-identical and valid for the others).

The store is also the resume record.  A program's result is a pure
function of (program, config), so after a crash re-running the same
command over the same cache loads every entry that was published and
verifies, and recomputes the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import observe
from repro.errors import TraceFormatError
from repro.faults import faultpoint
from repro.sessions import discover_sessions
from repro.sessions.types import SessionDef
from repro.simulate import SimulationResult, count_columns, count_table
from repro.trace.events import TraceMeta
from repro.trace.objects import ObjectRegistry
from repro.trace import tracefile

#: Entry statuses reported by :meth:`ResultStore.verify`.
STATUS_SIM = "sim"          #: sim entry that loads, every check passed
STATUS_NPZ = "npz"          #: trace container that loads, every check passed
STATUS_CORRUPT = "corrupt"  #: failed its integrity check
STATUS_TMP = "tmp"          #: orphaned temp file from a killed writer
STATUS_OTHER = "other"      #: unrecognized file, left alone

#: The file suffix of a sim entry.
SIM_SUFFIX = ".zip"

#: The integer run totals a sim entry's footer carries.
_TOTALS = ("total_writes", "overlap_anomalies", "n_discarded")


def sim_column_names(page_sizes: Sequence[int]) -> List[str]:
    """A sim entry's count members over ``page_sizes``, in order: the
    studied sessions' indexes, then their count columns."""
    return ["session", *count_columns(page_sizes)]


@dataclass
class SimEntry:
    """What a sim entry stores: a program's trace meta, object registry,
    page sizes and run totals (:data:`_TOTALS`), the studied sessions'
    indexes and their count table's stored columns.  The sessions are a
    pure function of the registry, so they are not stored."""

    meta: TraceMeta
    registry: ObjectRegistry
    page_sizes: Tuple[int, ...]
    totals: Dict[str, int]
    columns: Dict[str, np.ndarray]

    @classmethod
    def of(cls, registry: ObjectRegistry,
           result: SimulationResult) -> "SimEntry":
        columns = {"session": np.array(
            [session.index for session in result.sessions], np.int64)}
        for name in count_columns(result.page_sizes):
            columns[name] = result.counts[name]
        return cls(result.meta, registry, tuple(result.page_sizes),
                   {name: getattr(result, name) for name in _TOTALS},
                   columns)

    def result(self, sessions: Sequence[SessionDef]) -> SimulationResult:
        """The stored result over the registry's discovered ``sessions``;
        a session column that does not index them in increasing order,
        with the discarded ones making up the rest, is a
        :class:`TraceFormatError`."""
        index = self.columns["session"]
        if (len(index) + self.totals["n_discarded"] != len(sessions)
                or np.any((index < 0) | (index >= len(sessions)))
                or np.any(np.diff(index) <= 0)):
            raise TraceFormatError(
                f"sim entry's {len(index)} studied and "
                f"{self.totals['n_discarded']} discarded sessions do not "
                f"index the {len(sessions)} sessions of its registry"
            )
        return SimulationResult(
            self.meta.program, self.meta, self.page_sizes,
            sessions=[sessions[row] for row in index.tolist()],
            counts=count_table(self.columns, self.page_sizes,
                               self.totals["total_writes"]),
            **self.totals)


def _read_sim_entry(path: Path) -> SimEntry:
    """The :class:`SimEntry` at ``path``, with every member's CRC, the
    footer's fields and entry name, and the columns' dtype and length
    checked; a failure is a :class:`TraceFormatError`."""
    with tracefile.read_archive(path) as (archive, doc):
        if doc.get("entry") != path.name:
            raise TraceFormatError(
                f"{path.name}: footer names a different entry "
                f"{doc.get('entry')!r} (misplaced blob)"
            )
        meta, registry = tracefile._meta_and_registry(doc)
        page_sizes = doc.get("page_sizes")
        totals = {name: doc.get(name) for name in _TOTALS}
        if not (isinstance(page_sizes, list) and all(isinstance(value, int)
                for value in [*page_sizes, *totals.values()])):
            raise TraceFormatError(
                f"{path.name}: malformed sim entry footer: page_sizes and "
                f"{', '.join(_TOTALS)} must be integers"
            )
        columns = {}
        for name in sim_column_names(page_sizes):
            column = columns[name] = tracefile._read_member(archive, name)
            if column.dtype != np.int64 or \
                    len(column) != len(columns["session"]):
                raise TraceFormatError(
                    f"{path.name}: count column {name} is not "
                    f"{len(columns['session'])} int64 values"
                )
    return SimEntry(meta, registry, tuple(page_sizes), totals, columns)


@dataclass
class EntryReport:
    """One store entry's verification verdict."""

    name: str
    status: str
    size: int
    detail: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "status": self.status,
            "size": self.size,
            "detail": self.detail,
        }


@dataclass
class StoreReport:
    """The result of a full :meth:`ResultStore.verify` scan."""

    root: str
    entries: List[EntryReport] = field(default_factory=list)

    def count(self, status: str) -> int:
        return sum(1 for entry in self.entries if entry.status == status)

    @property
    def corrupt(self) -> List[EntryReport]:
        return [e for e in self.entries if e.status == STATUS_CORRUPT]

    def to_dict(self) -> Dict[str, object]:
        return {
            "root": self.root,
            "total": len(self.entries),
            "counts": {
                status: self.count(status)
                for status in (STATUS_SIM, STATUS_NPZ, STATUS_CORRUPT,
                               STATUS_TMP, STATUS_OTHER)
            },
            "entries": [entry.to_dict() for entry in self.entries],
        }


class ResultStore:
    """Content-addressed view over a cache directory.

    ``root`` is the classic ``.repro_cache`` directory; subdirectories
    are not entries and the maintenance surface leaves them alone.
    """

    def __init__(self, root: Path) -> None:
        self.root = Path(root)

    # -- publish/load -----------------------------------------------------

    def publish_payload(self, path: Path, payload: SimEntry,
                        program: Optional[str] = None) -> None:
        """Atomically publish the sim entry ``payload`` at ``path``:
        its count columns, then a footer that names ``path``."""
        faultpoint("store.publish", program=program, entry=path.name)
        with tracefile.publish_archive(path) as archive:
            # io.write is the site for torn-write chaos tests;
            # store.publish above is the store-level intent site.
            faultpoint("io.write", program=program, kind="sim")
            for name in sim_column_names(payload.page_sizes):
                tracefile._write_member(archive, name, payload.columns[name])
            footer = tracefile._footer_member(
                payload.meta, payload.registry,
                page_sizes=list(payload.page_sizes), **payload.totals,
                entry=path.name)
            tracefile._write_member(archive, "stream", footer)
        observe.inc("store.published")
        observe.emit_event("store.publish", program=program,
                           entry=path.name)

    def load_payload(self, path: Path,
                     program: Optional[str] = None) -> SimEntry:
        """Load and verify the sim entry published at ``path``.

        Raises :class:`~repro.errors.TraceFormatError` on any damage,
        and whatever the underlying read raises on I/O failure — callers
        treat any of these as a cache miss.
        """
        faultpoint("store.load", program=program, entry=path.name)
        entry = _read_sim_entry(path)
        observe.inc("store.loaded")
        observe.emit_event("store.load", "DEBUG", program=program,
                           entry=path.name)
        return entry

    # -- maintenance ------------------------------------------------------

    def verify(self) -> StoreReport:
        """Audit every entry under the store root."""
        report = StoreReport(root=str(self.root))
        if not self.root.is_dir():
            return report
        for path in sorted(self.root.iterdir()):
            if not path.is_file():
                continue
            report.entries.append(self._verify_file(path))
        return report

    def _verify_file(self, path: Path) -> EntryReport:
        size = path.stat().st_size
        name = path.name
        if name.endswith(".tmp"):
            return EntryReport(name, STATUS_TMP, size,
                               "orphaned temp file from a killed writer")
        status = {SIM_SUFFIX: STATUS_SIM, ".npz": STATUS_NPZ}.get(path.suffix)
        if status is None:
            return EntryReport(name, STATUS_OTHER, size, "not a store entry")
        try:
            if status == STATUS_SIM:
                entry = _read_sim_entry(path)
                entry.result(discover_sessions(entry.registry))
            else:
                tracefile.load_trace(path)
        except Exception as exc:
            return EntryReport(name, STATUS_CORRUPT, size,
                               f"{type(exc).__name__}: {exc}")
        return EntryReport(name, status, size, "loads")

    def gc(self, dry_run: bool = False) -> Dict[str, List[str]]:
        """Remove temp droppings and corrupt entries.

        Returns ``{"removed": [...], "kept": [...]}``; with ``dry_run``
        nothing is unlinked and would-be removals land in ``removed``.
        """
        removed: List[str] = []
        kept: List[str] = []
        for entry in self.verify().entries:
            if entry.status in (STATUS_TMP, STATUS_CORRUPT):
                if not dry_run:
                    try:
                        (self.root / entry.name).unlink()
                    except OSError:
                        kept.append(entry.name)
                        continue
                    observe.inc("store.gc.removed")
                    observe.emit_event("store.gc", "WARNING",
                                       entry=entry.name, status=entry.status)
                removed.append(entry.name)
            else:
                kept.append(entry.name)
        return {"removed": removed, "kept": kept}
