"""Edge-case battery for the VirtualMemory strategy.

The VM strategy has the most intricate state (page protection counts,
fault re-protection, shared pages between monitors); these tests pin
down the corners: monitors sharing pages, monitors spanning pages,
page-size interaction, and install/remove during execution.
"""

import pytest

from repro.core import VirtualMemoryWms
from repro.machine import Cpu, Memory, load_program
from repro.machine.paging import PageTable, Protection
from repro.minic.compiler import compile_source
from repro.minic.runtime import Runtime
from repro.sim_os import SimOs


def build(source: str, page_size: int = 4096):
    image = load_program(compile_source(source, "vm-edge"))
    cpu = Cpu(Memory(), PageTable(page_size))
    os = SimOs(cpu)
    runtime = Runtime(cpu)
    runtime.install()
    cpu.attach(image)
    wms = VirtualMemoryWms(cpu, os)
    return cpu, os, wms, image


SOURCE = """
int a;
int b;
int big[3000];    /* spans multiple 4K pages */
int main() {
  int i;
  a = 1;
  b = 2;
  for (i = 0; i < 5; i++) big[i * 1024 % 3000] = i;
  a = 3;
  return a + b;
}
"""


class TestSharedPages:
    def test_two_monitors_one_page_remove_one(self):
        """Removing one of two monitors on a page keeps it protected."""
        cpu, os, wms, image = build(SOURCE)
        a = image.global_var("a")
        b = image.global_var("b")
        monitor_a = wms.install_monitor(a.address, a.address + 4)
        wms.install_monitor(b.address, b.address + 4)
        wms.remove_monitor(monitor_a)
        assert cpu.page_table.is_write_protected(a.address)
        state = cpu.run("main")
        assert state.exit_value == 5
        # Only writes to b notify now.
        assert all(n.begin == b.address for n in wms.notifications)
        assert wms.stats.hits == 1

    def test_page_unprotected_when_last_monitor_leaves(self):
        cpu, os, wms, image = build(SOURCE)
        a = image.global_var("a")
        monitor = wms.install_monitor(a.address, a.address + 4)
        assert cpu.page_table.is_write_protected(a.address)
        wms.remove_monitor(monitor)
        assert not cpu.page_table.is_write_protected(a.address)


class TestSpanningMonitors:
    def test_monitor_across_page_boundary(self):
        cpu, os, wms, image = build(SOURCE)
        big = image.global_var("big")
        # A monitor covering the whole 12000-byte array protects every
        # page it touches.
        wms.install_monitor(big.address, big.address + big.size_bytes)
        pages = cpu.page_table.pages_of_range(big.address, big.address + big.size_bytes)
        assert len(pages) >= 3
        for page in pages:
            assert cpu.page_table.protection_of(page) is Protection.READ
        state = cpu.run("main")
        assert wms.stats.hits == 5

    def test_page_size_changes_fault_footprint(self):
        """With 16K pages, `a`'s monitor drags `big`'s first words onto
        the protected page, turning their writes into faulting misses."""
        small_cpu, _, small_wms, small_image = build(SOURCE, page_size=1024)
        a = small_image.global_var("a")
        small_wms.install_monitor(a.address, a.address + 4)
        small_cpu.run("main")

        large_cpu, _, large_wms, large_image = build(SOURCE, page_size=65536)
        a_large = large_image.global_var("a")
        large_wms.install_monitor(a_large.address, a_large.address + 4)
        large_cpu.run("main")

        assert large_wms.stats.checks > small_wms.stats.checks
        assert large_wms.stats.hits == small_wms.stats.hits == 2
        assert large_cpu.cycles > small_cpu.cycles


class TestDynamicInstall:
    def test_install_mid_run_from_callback(self):
        """A monitor installed from a notification callback catches
        subsequent writes (the debugger's install-on-entry pattern)."""
        cpu, os, wms, image = build(SOURCE)
        a = image.global_var("a")
        b = image.global_var("b")
        installed = []

        def on_hit(notification):
            if not installed:
                installed.append(wms.install_monitor(b.address, b.address + 4))

        wms.callback = on_hit
        wms.install_monitor(a.address, a.address + 4)
        cpu.run("main")
        values = [(n.begin, n.value) for n in wms.notifications]
        assert (a.address, 1) in values
        assert (b.address, 2) in values
        assert (a.address, 3) in values

    def test_remove_all_cleans_pages(self):
        cpu, os, wms, image = build(SOURCE)
        a = image.global_var("a")
        big = image.global_var("big")
        wms.install_monitor(a.address, a.address + 4)
        wms.install_monitor(big.address, big.address + big.size_bytes)
        wms.remove_all()
        assert not cpu.page_table.write_protected
        assert wms.page_monitor_count == {}

    def test_faults_charge_more_at_higher_counts(self):
        """Cycle cost scales with fault count: the VM pathology."""
        cpu, os, wms, image = build(SOURCE)
        a = image.global_var("a")
        wms.install_monitor(a.address, a.address + 4)
        cpu.run("main")
        # Both hits and the same-page miss (b shares a's page) faulted.
        assert os.counters["faults_delivered"] == wms.stats.checks >= 3
        assert os.counters["stores_emulated"] == wms.stats.checks


class TestFaultPath:
    """One write fault: lookup, unprotect, emulate, reprotect."""

    def test_page_that_keeps_a_monitor_is_protected_again(self):
        cpu, os, wms, image = build(SOURCE)
        a = image.global_var("a")
        wms.install_monitor(a.address, a.address + 4)
        page = cpu.page_table.page_of(a.address)
        counters, cycles = dict(os.counters), cpu.cycles
        cpu._store(0, a.address, 7)
        assert cpu.page_table.protection_of(page) is Protection.READ
        assert cpu.memory.load_word(a.address) == 7
        assert {name: os.counters[name] - counters[name] for name in counters} == {
            "mprotect_calls": 2,
            "pages_protected": 1,
            "pages_unprotected": 1,
            "faults_delivered": 1,
            "stores_emulated": 1,
        }
        costs = os.costs
        assert cpu.cycles - cycles == (
            costs.write_fault_delivery
            + wms.timing.software_lookup_cycles
            + costs.unprotect_page
            + costs.emulate_store
            + costs.protect_page
        )
        assert [(n.begin, n.value) for n in wms.notifications] == [(a.address, 7)]

    def test_page_protected_without_a_monitor_stays_unprotected(self):
        cpu, os, wms, image = build(SOURCE)
        a = image.global_var("a")
        page = cpu.page_table.page_of(a.address)
        os.protect_pages([page], Protection.READ)
        counters = dict(os.counters)
        cpu._store(0, a.address, 7)
        assert cpu.page_table.protection_of(page) is Protection.READ_WRITE
        assert cpu.memory.load_word(a.address) == 7
        assert os.counters["mprotect_calls"] - counters["mprotect_calls"] == 1
        assert os.counters["pages_unprotected"] - counters["pages_unprotected"] == 1
        assert os.counters["pages_protected"] == counters["pages_protected"]
        assert wms.stats.checks == 1 and wms.stats.hits == 0
