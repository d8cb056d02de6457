"""The write monitor service (WMS): the paper's core contribution.

A WMS notifies clients of every write to a distinguished region of
memory (section 2).  Its interface is three operations::

    InstallMonitor(BA, EA)        install a new write monitor
    RemoveMonitor(BA, EA)         remove an existing write monitor
    MonitorNotification(BA, EA, PC)   upcall on each monitor hit

This package provides the interface
(:class:`~repro.core.wms.WriteMonitorService`), the address->monitor
mapping structure of Appendix A.5
(:class:`~repro.core.monitor_map.BitmapMonitorMap`), and four *live*
implementations — one per strategy the paper studies — that run on the
simulated machine:

========================  =======================================
:class:`NativeHardwareWms`  hardware monitor registers (section 3.1)
:class:`VirtualMemoryWms`   page protection + write faults (3.2)
:class:`TrapPatchWms`       every store replaced by a trap (3.3)
:class:`CodePatchWms`       inline check before every store (3.3)
========================  =======================================

The last three (with the bitmap map) describe their monitor miss to the
CPU, whose compiled code runs it in place; only hits reach their
handlers on the CPU's fast tier (:class:`~repro.machine.cpu.MissPath`).
"""

from repro.core.wms import Monitor, Notification, WriteMonitorService
from repro.core.monitor_map import (
    BitmapMonitorMap,
    IntervalMonitorMap,
    MonitorMap,
)
from repro.core.native_hardware import NativeHardwareWms
from repro.core.virtual_memory import VirtualMemoryWms
from repro.core.trap_patch import TrapPatchWms
from repro.core.code_patch import CodePatchWms, OptimizedCodePatchWms

#: Strategy name -> live WMS class.
STRATEGIES = {
    "native": NativeHardwareWms,
    "vm": VirtualMemoryWms,
    "trap": TrapPatchWms,
    "code": CodePatchWms,
}

__all__ = [
    "Monitor",
    "Notification",
    "WriteMonitorService",
    "MonitorMap",
    "BitmapMonitorMap",
    "IntervalMonitorMap",
    "NativeHardwareWms",
    "VirtualMemoryWms",
    "TrapPatchWms",
    "CodePatchWms",
    "OptimizedCodePatchWms",
    "STRATEGIES",
]
