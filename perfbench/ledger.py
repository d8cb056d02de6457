"""Per-layer timing from outside the program.

A :class:`Ledger` wraps public functions of the layers under test, so
a traced run learns how long each layer was busy and how much work it
did without a line of instrumentation inside ``src/``.  The wrappers
exist only inside ``with ledger:``; untraced runs never enter one.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple


def _size(path) -> int:
    return os.stat(path).st_size


def layer_targets() -> List[Tuple[object, str, str, Optional[Callable]]]:
    """``(owner, attribute, layer name, counter)`` for every wrapped call.

    ``counter(args, result)`` returns a ``{count name: amount}`` dict of
    the work one call did.  The pipeline imports the trace, session and
    simulate functions by name, so they are wrapped where it looks them
    up.
    """
    from repro.experiments import pipeline
    from repro.experiments.store import ResultStore
    from repro.machine.cpu import Cpu
    from repro.workloads.base import Workload

    return [
        (Workload, "compile", "minic.compile", None),
        (Cpu, "run", "cpu.run", None),
        (pipeline, "save_trace", "trace.save",
         lambda args, result: {"trace.save_bytes": _size(args[2]),
                               "trace.saved_events": len(args[0])}),
        (pipeline, "load_trace", "trace.load",
         lambda args, result: {"trace.load_bytes": _size(args[0])}),
        (pipeline, "discover_sessions", "sessions.discover",
         lambda args, result: {"sessions.count": len(result)}),
        (pipeline, "simulate_sessions", "simulate",
         lambda args, result: {"simulate.events": len(args[0])}),
        (ResultStore, "publish_payload", "store.publish",
         lambda args, result: {"store.publish_bytes": _size(args[1])}),
        (ResultStore, "load_payload", "store.load", None),
    ]


#: ``(sign, begin, end)``: a busy span, added (+1) or taken away (-1).
Span = Tuple[int, float, float]


def host_clock(begin: float, end: float) -> float:
    return end - begin


class Ledger:
    """Busy spans and work counts per layer, gathered by wrappers."""

    def __init__(self) -> None:
        self.spans: Dict[str, List[Span]] = defaultdict(list)
        self.counts: Dict[str, int] = defaultdict(int)
        self._saved: List[Tuple[object, str, object]] = []

    def seconds(self, name: str, clock: Callable = host_clock) -> float:
        """Busy seconds of layer ``name``; ``clock(begin, end)`` says how
        long each span took, in host seconds by default."""
        return sum(sign * clock(begin, end)
                   for sign, begin, end in self.spans[name])

    def _wrap(self, original: Callable, name: str,
              counter: Optional[Callable]) -> Callable:
        @functools.wraps(original)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            result = original(*args, **kwargs)
            self.spans[name].append((1, start, time.perf_counter()))
            if counter is not None:
                for key, amount in counter(args, result).items():
                    self.counts[key] += amount
            return result

        return timed

    def __enter__(self) -> "Ledger":
        for owner, attribute, name, counter in layer_targets():
            original = getattr(owner, attribute)
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, name, counter))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def time(self, name: str, call: Callable, *args, **kwargs):
        """Run ``call`` and add its wall time to layer ``name``."""
        start = time.perf_counter()
        result = call(*args, **kwargs)
        self.spans[name].append((1, start, time.perf_counter()))
        return result

    def time_self(self, name: str, inner: Tuple[str, ...], call: Callable,
                  *args, **kwargs):
        """Like :meth:`time`, less the time the ``inner`` layers were
        busy during the call."""
        marks = {layer: len(self.spans[layer]) for layer in inner}
        result = self.time(name, call, *args, **kwargs)
        for layer in inner:
            self.spans[name] += [(-sign, begin, end) for sign, begin, end
                                 in self.spans[layer][marks[layer]:]]
        return result


def wrapped_targets() -> List[str]:
    """Names of layer functions currently replaced by a ledger wrapper."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attribute}"
        for owner, attribute, _name, _counter in layer_targets()
        if hasattr(getattr(owner, attribute), "__wrapped__")
    ]
