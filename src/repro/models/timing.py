"""Timing variables (paper Table 2).

The models' platform inputs, in microseconds, as measured on a 40 MHz
SPARCstation 2 running SunOS 4.1.1.  :data:`SPARCSTATION_2_TIMING` holds
the paper's published values; :mod:`repro.experiments.table2` re-derives
them by running the Appendix-A microbenchmarks against the simulated
machine and OS.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict

from repro.units import us_to_cycles


@dataclass(frozen=True)
class TimingVariables:
    """All timing variables of Table 2, in microseconds.

    ``software_update`` and ``software_lookup`` characterize the
    virtual-address -> write-monitor mapping shared by the VirtualMemory,
    TrapPatch, and CodePatch strategies (paper section 7, Figure 2).
    """

    #: SoftwareUpdate_t: update the address->monitor mapping on
    #: install/remove.
    software_update: float = 22.0
    #: SoftwareLookup_t: does an address range intersect an active monitor?
    software_lookup: float = 2.75
    #: NHFaultHandler_t: receive a monitor-register fault and continue.
    nh_fault_handler: float = 131.0
    #: VMFaultHandler_t: receive a write fault, emulate, continue.
    vm_fault_handler: float = 561.0
    #: VMProtectPage_t: write-protect one page.
    vm_protect_page: float = 80.0
    #: VMUnprotectPage_t: unwrite-protect one page.
    vm_unprotect_page: float = 299.0
    #: TPFaultHandler_t: receive a trap fault, emulate, continue.
    tp_fault_handler: float = 102.0

    def as_dict(self) -> Dict[str, float]:
        """Name -> microseconds, using the paper's variable names."""
        return {
            "SoftwareUpdate": self.software_update,
            "SoftwareLookup": self.software_lookup,
            "NHFaultHandler": self.nh_fault_handler,
            "VMFaultHandler": self.vm_fault_handler,
            "VMProtectPage": self.vm_protect_page,
            "VMUnprotectPage": self.vm_unprotect_page,
            "TPFaultHandler": self.tp_fault_handler,
        }

    def scaled(self, factor: float) -> "TimingVariables":
        """A uniformly scaled copy (for what-if platform studies)."""
        return replace(
            self,
            software_update=self.software_update * factor,
            software_lookup=self.software_lookup * factor,
            nh_fault_handler=self.nh_fault_handler * factor,
            vm_fault_handler=self.vm_fault_handler * factor,
            vm_protect_page=self.vm_protect_page * factor,
            vm_unprotect_page=self.vm_unprotect_page * factor,
            tp_fault_handler=self.tp_fault_handler * factor,
        )

    # -- cycle views (for the live WMS implementations) ---------------------
    # Computed once per instance: every CP check and every VM or TP trap
    # charges one of these.

    @cached_property
    def software_lookup_cycles(self) -> int:
        return us_to_cycles(self.software_lookup)

    @cached_property
    def software_update_cycles(self) -> int:
        return us_to_cycles(self.software_update)


#: The paper's published Table 2.
SPARCSTATION_2_TIMING = TimingVariables()
