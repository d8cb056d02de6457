"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from repro.machine import Cpu, Memory, load_program
from repro.machine.layout import MemoryLayout
from repro.minic.compiler import compile_source
from repro.minic.runtime import Runtime


REPO_ROOT = Path(__file__).resolve().parents[1]

#: Directories a test session may create or change in the checkout:
#: version control and the tools' own caches.
_IGNORED_DIRS = frozenset({
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks",
})


def _checkout_paths():
    """Every file and directory under the repo root, minus ignored dirs."""
    paths = set()
    for root, dirs, files in os.walk(REPO_ROOT):
        dirs[:] = [name for name in dirs if name not in _IGNORED_DIRS]
        paths.update(os.path.join(root, name) for name in dirs + files)
    return paths


@pytest.fixture(scope="session", autouse=True)
def checkout_stays_clean():
    """Fail the session if it adds any path under the repo root."""
    before = _checkout_paths()
    yield
    added = sorted(
        os.path.relpath(path, REPO_ROOT)
        for path in _checkout_paths() - before
    )
    if added:
        pytest.fail(f"the test session wrote into the checkout: {added}")


def same_counts(a, b) -> bool:
    """Whether two count tables hold the same columns and values."""
    return list(a) == list(b) and all(
        np.array_equal(a[name], b[name]) for name in a)


class MiniCRunner:
    """Compile-and-run helper: the workhorse of the behavioral tests."""

    def __init__(self) -> None:
        self.runtime = None
        self.cpu = None
        self.image = None

    def run(self, source: str, entry: str = "main", args=(), max_instructions: int = 5_000_000):
        """Compile ``source``, run ``entry``, return the exit value."""
        program = compile_source(source, "test")
        self.image = load_program(program)
        self.cpu = Cpu(Memory())
        self.runtime = Runtime(self.cpu)
        self.runtime.install()
        self.cpu.attach(self.image)
        state = self.cpu.run(entry, args, max_instructions)
        return state.exit_value

    @property
    def output(self):
        return self.runtime.output


@pytest.fixture
def minic():
    """Fresh MiniC compile-and-run helper."""
    return MiniCRunner()


def run_minic(source: str, entry: str = "main", args=()):
    """Function-style helper for tests that need several programs."""
    return MiniCRunner().run(source, entry, args)
