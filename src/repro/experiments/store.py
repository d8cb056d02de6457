"""Content-addressed, integrity-verified result store over ``.repro_cache/``.

This module generalizes the pipeline's ad-hoc cache files into a small
*store* abstraction with three guarantees:

* **Atomic publish** — every blob is written to a temp file in the
  destination directory and ``os.replace``d into place, so concurrent
  writers and mid-write crashes publish whole entries or nothing.
* **Self-verifying entries** — simulation payloads are wrapped in a v3
  *envelope* carrying a SHA-256 digest of the payload bytes, verified on
  every load; a mismatch raises :class:`StoreCorruptError` and the entry
  is treated exactly like a missing one (discarded, recomputed).  Trace
  ``.npz`` entries are already integrity-checked by their container
  (zip CRCs plus the footer's per-chunk column checksums — see
  ``docs/TRACE_FORMAT.md``), so the store verifies them by reading them
  through :class:`~repro.trace.tracefile.TraceStreamReader` rather than
  double-wrapping.
* **Maintenance surface** — :meth:`ResultStore.verify` audits every
  entry and :meth:`ResultStore.gc` removes temp droppings and corrupt
  blobs, surfaced as the ``store verify`` / ``store gc`` CLI
  subcommands.

A pickle that is not an envelope (a bare payload written before the
envelope existed) is a :class:`StoreCorruptError`, so it recovers as a
cache miss and ``verify`` reports it ``corrupt``.  Entry *names* are
unchanged from the classic cache layout: the simulation cache is
deliberately keyed without the engine (a payload computed by one backend
is bit-identical and valid for the others).

The store is also the resume record.  A program's result is a pure
function of (program, config), so after a crash re-running the same
command over the same cache loads every entry that was published and
verifies, and recomputes the rest.

The normative envelope schema is documented in
``docs/RESILIENCE.md`` ("Crash recovery").
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro import observe
from repro.errors import StoreCorruptError
from repro.faults import faultpoint
from repro.trace.tracefile import TraceStreamReader

#: Envelope format marker.
STORE_FORMAT = "repro-store"
STORE_VERSION = 3
DIGEST_ALGO = "sha256"

#: Entry statuses reported by :meth:`ResultStore.verify`.
STATUS_V3 = "v3"            #: enveloped, digest verified
STATUS_NPZ = "npz"          #: trace container, read and checksums verified
STATUS_CORRUPT = "corrupt"  #: failed its integrity check
STATUS_TMP = "tmp"          #: orphaned temp file from a killed writer
STATUS_OTHER = "other"      #: unrecognized file, left alone


def payload_digest(blob: bytes) -> str:
    """Content digest of a payload's pickled bytes."""
    return hashlib.sha256(blob).hexdigest()


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
                for status in (STATUS_V3, STATUS_NPZ, STATUS_CORRUPT,
                               STATUS_TMP, STATUS_OTHER)
            },
            "entries": [entry.to_dict() for entry in self.entries],
        }


def _atomic_write_bytes(blob: bytes, path: Path) -> None:
    """Write ``blob`` to ``path`` via temp file + ``os.replace``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class ResultStore:
    """Content-addressed view over a cache directory.

    ``root`` is the classic ``.repro_cache`` directory; subdirectories
    are not entries and the maintenance surface leaves them alone.
    """

    def __init__(self, root: Path) -> None:
        self.root = Path(root)

    # -- publish/load -----------------------------------------------------

    def publish_payload(self, path: Path, payload: object,
                        program: Optional[str] = None) -> str:
        """Atomically publish ``payload`` at ``path`` inside a v3
        envelope; returns the payload's content digest."""
        faultpoint("store.publish", program=program, entry=path.name)
        blob = pickle.dumps(payload)
        digest = payload_digest(blob)
        envelope = {
            "format": STORE_FORMAT,
            "version": STORE_VERSION,
            "algo": DIGEST_ALGO,
            "entry": path.name,
            "digest": digest,
            "payload": blob,
        }
        # io.write is the pre-existing site for torn-write chaos tests;
        # store.publish above is the store-level intent site.
        faultpoint("io.write", program=program, kind="sim")
        _atomic_write_bytes(pickle.dumps(envelope), path)
        observe.inc("store.published")
        observe.emit_event("store.publish", program=program,
                           entry=path.name, digest=digest[:12])
        return digest

    def load_payload(self, path: Path,
                     program: Optional[str] = None) -> object:
        """Load and verify the payload published at ``path``.

        Raises :class:`StoreCorruptError` on digest mismatch, envelope
        drift or a pickle that is not an envelope, and whatever the
        underlying read raises on I/O or pickle failure — callers treat
        any of these as a cache miss.
        """
        faultpoint("store.load", program=program, entry=path.name)
        with open(path, "rb") as handle:
            obj = pickle.load(handle)
        payload = self._open_envelope(obj, path)
        observe.inc("store.loaded")
        observe.emit_event("store.load", "DEBUG", program=program,
                           entry=path.name)
        return payload

    def _open_envelope(self, envelope: object, path: Path) -> object:
        if not (isinstance(envelope, dict)
                and envelope.get("format") == STORE_FORMAT):
            raise StoreCorruptError(
                f"{path.name}: not a store envelope (a "
                f"{type(envelope).__name__})"
            )
        if envelope.get("version") != STORE_VERSION:
            raise StoreCorruptError(
                f"{path.name}: unsupported store envelope version "
                f"{envelope.get('version')!r}"
            )
        if envelope.get("algo") != DIGEST_ALGO:
            raise StoreCorruptError(
                f"{path.name}: unsupported digest algo "
                f"{envelope.get('algo')!r}"
            )
        blob = envelope.get("payload")
        if not isinstance(blob, bytes):
            raise StoreCorruptError(f"{path.name}: envelope payload missing")
        expected = envelope.get("digest")
        actual = payload_digest(blob)
        if actual != expected:
            observe.inc("store.corrupt")
            observe.emit_event(
                "store.corrupt", "WARNING", entry=path.name,
                expected=str(expected)[:12], actual=actual[:12],
            )
            raise StoreCorruptError(
                f"{path.name}: content digest mismatch "
                f"(expected {expected}, got {actual})"
            )
        recorded = envelope.get("entry")
        if recorded not in (None, path.name):
            raise StoreCorruptError(
                f"{path.name}: envelope names a different entry "
                f"{recorded!r} (misplaced blob)"
            )
        return pickle.loads(blob)

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
        if name.endswith(".pkl"):
            try:
                with open(path, "rb") as handle:
                    obj = pickle.load(handle)
            except Exception as exc:
                return EntryReport(name, STATUS_CORRUPT, size,
                                   f"{type(exc).__name__}: {exc}")
            try:
                self._open_envelope(obj, path)
            except Exception as exc:
                return EntryReport(name, STATUS_CORRUPT, size, str(exc))
            return EntryReport(name, STATUS_V3, size)
        if name.endswith(".npz"):
            try:
                with TraceStreamReader(path) as reader:
                    for _columns in reader.stored_chunks():
                        pass
            except Exception as exc:
                return EntryReport(name, STATUS_CORRUPT, size,
                                   f"{type(exc).__name__}: {exc}")
            return EntryReport(name, STATUS_NPZ, size,
                               "container-checksummed trace")
        return EntryReport(name, STATUS_OTHER, size, "not a store entry")

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
