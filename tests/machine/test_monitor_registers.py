"""Tests for the hardware monitor-register file."""

import pytest

from repro.errors import MachineError, MonitorRegisterExhausted
from repro.machine.monitor_registers import MonitorRegisterFile


class TestAllocation:
    def test_starts_empty(self):
        mrf = MonitorRegisterFile()
        assert not mrf.any_enabled
        assert mrf.n_free() == 4

    def test_allocate_sets_flag(self):
        mrf = MonitorRegisterFile()
        mrf.allocate(0x100, 0x104)
        assert mrf.any_enabled
        assert mrf.n_free() == 3

    def test_default_four_registers_1992_hardware(self):
        """No widely-used 1992 chip supported more than four (section 3.1)."""
        mrf = MonitorRegisterFile()
        for index in range(4):
            mrf.allocate(index * 16, index * 16 + 4)
        with pytest.raises(MonitorRegisterExhausted):
            mrf.allocate(0x1000, 0x1004)

    def test_release_frees_register(self):
        mrf = MonitorRegisterFile()
        index = mrf.allocate(0x100, 0x104)
        mrf.release(index)
        assert mrf.n_free() == 4
        assert not mrf.any_enabled

    def test_release_range(self):
        mrf = MonitorRegisterFile()
        mrf.allocate(0x100, 0x104)
        assert mrf.release_range(0x100, 0x104)
        assert not mrf.release_range(0x100, 0x104)  # already gone

    def test_release_all(self):
        mrf = MonitorRegisterFile()
        mrf.allocate(0, 4)
        mrf.allocate(8, 12)
        mrf.release_all()
        assert mrf.n_free() == 4

    def test_rejects_empty_range(self):
        mrf = MonitorRegisterFile()
        with pytest.raises(MachineError):
            mrf.allocate(0x100, 0x100)

    def test_configurable_register_count(self):
        mrf = MonitorRegisterFile(n_registers=16)
        for index in range(16):
            mrf.allocate(index * 8, index * 8 + 4)
        assert mrf.n_free() == 0


class TestHitDetection:
    def test_hit_inside_range(self):
        mrf = MonitorRegisterFile()
        mrf.allocate(0x100, 0x110)
        assert mrf.hit(0x104, 0x108) is not None

    def test_miss_outside_range(self):
        mrf = MonitorRegisterFile()
        mrf.allocate(0x100, 0x110)
        assert mrf.hit(0x110, 0x114) is None
        assert mrf.hit(0xFC, 0x100) is None

    def test_hit_at_boundary(self):
        mrf = MonitorRegisterFile()
        mrf.allocate(0x100, 0x110)
        assert mrf.hit(0xFC, 0x104) is not None  # overlaps first word
        assert mrf.hit(0x10C, 0x114) is not None  # overlaps last word

    def test_disabled_register_never_hits(self):
        mrf = MonitorRegisterFile()
        index = mrf.allocate(0x100, 0x110)
        mrf.release(index)
        assert mrf.hit(0x100, 0x104) is None

    def test_hit_returns_correct_index(self):
        mrf = MonitorRegisterFile()
        mrf.allocate(0x100, 0x104)
        second = mrf.allocate(0x200, 0x204)
        assert mrf.hit(0x200, 0x204) == second


class TestWatchedWords:
    """``words`` holds exactly the words whose store :meth:`hit` reports."""

    @staticmethod
    def _expected(mrf):
        return {address >> 2 for address in range(0, 0x200, 4)
                if mrf.hit(address, address + 4) is not None}

    def test_words_follow_allocate_and_release(self):
        mrf = MonitorRegisterFile()
        live = mrf.words
        first = mrf.allocate(0x101, 0x10A)  # partial words at both ends
        assert mrf.words == {0x40, 0x41, 0x42} == self._expected(mrf)
        second = mrf.allocate(0x104, 0x110)  # overlaps the first
        assert mrf.words == self._expected(mrf)
        mrf.release(first)
        assert mrf.words == {0x41, 0x42, 0x43} == self._expected(mrf)
        mrf.allocate(0x180, 0x184)
        assert mrf.release_range(0x180, 0x184)
        assert mrf.words == self._expected(mrf)
        mrf.release(second)
        assert mrf.words == set()
        mrf.allocate(0, 8)
        mrf.release_all()
        assert mrf.words == set()
        assert mrf.words is live  # updated in place
