"""Write monitor service interface (paper section 2).

Terminology follows the paper exactly:

* a **write monitor** is a descriptor for a contiguous region of memory
  (we use :class:`Monitor` for both the descriptor and, loosely, the
  region);
* a monitor is **active** once the WMS guarantees notification of all
  writes affecting it;
* a write to one or more active monitors is a **monitor hit** — there is
  a *single* notification per hit, however many monitors it touches;
* any other write is a **monitor miss**.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.errors import WmsError


@dataclass(frozen=True, eq=False)
class Monitor:
    """A write monitor: the byte range ``[begin, end)``.

    ``tag`` is opaque client data (the debugger stores the watched
    variable here).  Monitors compare and hash by identity: two monitors
    over the same range are distinct installations.
    """

    begin: int
    end: int
    tag: object = None

    def __post_init__(self) -> None:
        if self.end <= self.begin:
            raise WmsError(f"empty monitor range [{self.begin:#x}, {self.end:#x})")

    @property
    def size_bytes(self) -> int:
        return self.end - self.begin

    def intersects(self, begin: int, end: int) -> bool:
        """Does this monitor intersect the byte range ``[begin, end)``?"""
        return begin < self.end and end > self.begin


@dataclass(frozen=True)
class Notification:
    """MonitorNotification(BA, EA, PC): one monitor hit.

    ``begin``/``end`` are the write's byte range, ``pc`` the program
    counter of the write instruction, ``monitors`` the active monitors
    the write touched, and ``value`` the written word (when the strategy
    can recover it).
    """

    begin: int
    end: int
    pc: int
    monitors: tuple = ()
    value: object = None


@dataclass
class WmsStats:
    """Event counters a live WMS accumulates during a run."""

    installs: int = 0
    removes: int = 0
    hits: int = 0
    checks: int = 0  # writes examined (hits + misses seen by this WMS)


class WriteMonitorService:
    """Abstract write monitor service.

    Subclasses implement the strategy-specific machinery in
    :meth:`_activate` / :meth:`_deactivate` and call :meth:`_notify` on
    each monitor hit.  Clients use :meth:`install_monitor` /
    :meth:`remove_monitor` and either poll :attr:`notifications` or
    register a callback.
    """

    #: Human-readable strategy name; subclasses override.
    strategy = "abstract"

    def __init__(self) -> None:
        self.active: List[Monitor] = []
        self.notifications: List[Notification] = []
        self.callback: Optional[Callable[[Notification], None]] = None
        self.stats = WmsStats()

    # -- client interface ----------------------------------------------------

    def install_monitor(self, begin: int, end: int, tag: object = None) -> Monitor:
        """InstallMonitor(BA, EA): activate a new write monitor."""
        monitor = Monitor(begin, end, tag)
        self._activate(monitor)
        self.active.append(monitor)
        self.stats.installs += 1
        return monitor

    def remove_monitor(self, monitor: Monitor) -> None:
        """RemoveMonitor(BA, EA): deactivate ``monitor``."""
        try:
            self.active.remove(monitor)
        except ValueError:
            raise WmsError(
                f"monitor [{monitor.begin:#x}, {monitor.end:#x}) is not active"
            ) from None
        self._deactivate(monitor)
        self.stats.removes += 1

    def remove_all(self) -> None:
        """Deactivate every active monitor."""
        for monitor in list(self.active):
            self.remove_monitor(monitor)

    # -- subclass obligations ---------------------------------------------------

    def _activate(self, monitor: Monitor) -> None:
        raise NotImplementedError

    def _deactivate(self, monitor: Monitor) -> None:
        raise NotImplementedError

    # -- notification delivery ----------------------------------------------------

    def _notify(
        self, begin: int, end: int, pc: int, monitors: tuple, value: object = None
    ) -> None:
        """Deliver one MonitorNotification."""
        notification = Notification(begin, end, pc, monitors, value)
        self.notifications.append(notification)
        self.stats.hits += 1
        if self.callback is not None:
            self.callback(notification)

    def _count_miss(self) -> None:
        """Count a monitor miss that the CPU's watched compiled code ran
        in place of this strategy's handler (``repro.machine.cpu.MissPath``):
        the one count the handler makes on a miss."""
        self.stats.checks += 1

    # -- teardown -------------------------------------------------------------------

    def detach(self) -> None:
        """Unhook from the machine/OS (subclasses extend)."""
