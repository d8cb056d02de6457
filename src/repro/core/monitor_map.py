"""Address -> write-monitor mapping structures.

The paper's measured implementation (Appendix A.5) keeps, for each page
holding an active monitor, a bitmap with one bit per word, stored in a
hash table keyed by page number; monitors are word-aligned (footnote 7:
"Higher-level clients can easily compensate for this restriction").

:class:`BitmapMonitorMap` is that structure, generalized to record *which*
monitors cover each word (the notification needs them).
:class:`IntervalMonitorMap` is a sorted-interval alternative used by the
lookup-structure ablation benchmark.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Tuple

from repro.core.wms import Monitor
from repro.errors import MonitorNotFound
from repro.units import WORD_SHIFT, WORD_SIZE, align_down, align_up

#: ``address & _WORD_MASK`` is ``align_down(address, WORD_SIZE)``.
_WORD_MASK = -WORD_SIZE


class MonitorMap:
    """Interface: install/remove monitors, look up address ranges."""

    def install(self, monitor: Monitor) -> None:
        raise NotImplementedError

    def remove(self, monitor: Monitor) -> None:
        raise NotImplementedError

    def lookup(self, begin: int, end: int) -> Tuple[Monitor, ...]:
        """Active monitors intersecting ``[begin, end)`` (empty = miss)."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    @staticmethod
    def word_span(monitor: Monitor) -> range:
        """Word addresses covered by ``monitor``, after word alignment."""
        begin = align_down(monitor.begin, WORD_SIZE)
        end = align_up(monitor.end, WORD_SIZE)
        return range(begin, end, WORD_SIZE)


class BitmapMonitorMap(MonitorMap):
    """The Appendix A.5 structure: per-word ownership in a hash table.

    ``_words`` maps each covered word address to the tuple of monitors
    covering it.  Lookup of a word-sized write is a single dict probe;
    this is the O(1) fast path CodePatch relies on.  ``_words`` is
    updated in place and never rebound: the strategies hand it to the
    CPU's miss paths, which probe it live.
    """

    def __init__(self) -> None:
        self._words: Dict[int, Tuple[Monitor, ...]] = {}
        self._count = 0

    def install(self, monitor: Monitor) -> None:
        words = self._words
        for word in self.word_span(monitor):
            existing = words.get(word)
            words[word] = (monitor,) if existing is None else existing + (monitor,)
        self._count += 1

    def remove(self, monitor: Monitor) -> None:
        words = self._words
        found = False
        for word in self.word_span(monitor):
            existing = words.get(word)
            if existing is None:
                continue
            remaining = tuple(m for m in existing if m is not monitor)
            if len(remaining) != len(existing):
                found = True
                if remaining:
                    words[word] = remaining
                else:
                    del words[word]
        if not found:
            raise MonitorNotFound(
                f"monitor [{monitor.begin:#x}, {monitor.end:#x}) not in map"
            )
        self._count -= 1

    def lookup(self, begin: int, end: int) -> Tuple[Monitor, ...]:
        words = self._words
        first = begin & _WORD_MASK
        if end - first <= WORD_SIZE:
            # Fast path: a word-sized (or smaller) write probes one word.
            return words.get(first, ())
        hits: List[Monitor] = []
        for word in range(first, end, WORD_SIZE):
            for monitor in words.get(word, ()):
                if monitor not in hits:
                    hits.append(monitor)
        return tuple(hits)

    def __len__(self) -> int:
        return self._count

    def covered_words(self) -> int:
        """Number of words currently covered by at least one monitor."""
        return len(self._words)


class IntervalMonitorMap(MonitorMap):
    """Sorted-interval alternative (for the lookup-structure ablation).

    Monitors are kept sorted by begin address; lookup bisects and scans
    left no farther than the largest active monitor could reach.
    """

    def __init__(self) -> None:
        self._begins: List[int] = []
        self._monitors: List[Monitor] = []
        self._max_size = 0

    def install(self, monitor: Monitor) -> None:
        index = bisect.bisect_left(self._begins, monitor.begin)
        self._begins.insert(index, monitor.begin)
        self._monitors.insert(index, monitor)
        self._max_size = max(self._max_size, monitor.size_bytes)

    def remove(self, monitor: Monitor) -> None:
        index = bisect.bisect_left(self._begins, monitor.begin)
        while index < len(self._monitors) and self._begins[index] == monitor.begin:
            if self._monitors[index] is monitor:
                del self._begins[index]
                del self._monitors[index]
                return
            index += 1
        raise MonitorNotFound(
            f"monitor [{monitor.begin:#x}, {monitor.end:#x}) not in map"
        )

    def lookup(self, begin: int, end: int) -> Tuple[Monitor, ...]:
        hits: List[Monitor] = []
        # Candidates starting inside [begin, end).
        index = bisect.bisect_left(self._begins, begin)
        scan = index
        while scan < len(self._monitors) and self._begins[scan] < end:
            hits.append(self._monitors[scan])
            scan += 1
        # Candidates starting before `begin` that might still reach it.
        scan = index - 1
        limit = begin - self._max_size
        while scan >= 0 and self._begins[scan] > limit:
            if self._monitors[scan].end > begin:
                hits.append(self._monitors[scan])
            scan -= 1
        hits.sort(key=lambda m: m.begin)
        return tuple(hits)

    def __len__(self) -> int:
        return len(self._monitors)
