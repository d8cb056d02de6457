"""The native library loader: ABI handshake, stale-library rebuild and
the disable switch, for both entry points the library carries."""

from __future__ import annotations

import subprocess

import pytest

from repro.simulate import _native
from repro.simulate._native import load_native_library, native_unavailable_reason

needs_compiler = pytest.mark.skipif(
    _native._find_compiler() is None, reason="no C compiler")


@pytest.fixture
def reload_after(monkeypatch):
    """Reload the library with the original environment afterwards."""
    yield monkeypatch
    monkeypatch.undo()
    load_native_library(refresh=True)


@needs_compiler
def test_library_carries_both_entry_points(reload_after):
    reload_after.delenv("REPRO_NATIVE_DISABLE", raising=False)
    reload_after.delenv("REPRO_NATIVE_LIB", raising=False)
    lib = load_native_library(refresh=True)
    assert lib is not None, native_unavailable_reason()
    assert lib.engine_abi_version() == _native._ABI_VERSION == 2
    assert lib.tracelog_expand.argtypes and lib.engine_feed.argtypes


@needs_compiler
def test_stale_library_is_rebuilt_from_source(reload_after, tmp_path):
    """A library built from an older source layout (ABI version 1, no
    tracer-log expansion) is not used: the loader builds the current
    sources instead."""
    stale = tmp_path / "stale-v1.so"
    source = tmp_path / "engine.c"
    with open(_native._SOURCES[0]) as f:
        current = f.read()
    assert "#define ENGINE_ABI_VERSION 2\n" in current
    source.write_text(current.replace("#define ENGINE_ABI_VERSION 2\n",
                                      "#define ENGINE_ABI_VERSION 1\n"))
    subprocess.run([_native._find_compiler(), "-O1", "-shared", "-fPIC",
                    str(source), "-o", str(stale)],
                   check=True, capture_output=True)
    reload_after.delenv("REPRO_NATIVE_DISABLE", raising=False)
    reload_after.setenv("REPRO_NATIVE_LIB", str(stale))
    lib = load_native_library(refresh=True)
    assert lib is not None, native_unavailable_reason()
    assert lib.engine_abi_version() == 2
    assert hasattr(lib, "tracelog_expand")


def test_disable_switch_turns_off_both_entry_points(reload_after):
    reload_after.setenv("REPRO_NATIVE_DISABLE", "1")
    assert load_native_library(refresh=True) is None
    assert "REPRO_NATIVE_DISABLE" in native_unavailable_reason()
