"""Setup shim for legacy editable installs (offline environments without
the ``wheel`` package). Configuration lives in pyproject.toml.

Adds one repo-specific command::

    python setup.py build_native

which compiles the native library (``repro.simulate._native``: the
phase-2 kernel and the phase-1 tracer-log expansion) into the user cache
eagerly, so the first run that loads it doesn't pay the compile.  The
command is best-effort by design: a box without a C toolchain prints
the reason and exits zero, because the library is an optional
accelerator — ``auto`` falls back to python and the tracer to NumPy.
"""

import sys

from setuptools import Command, setup


class BuildNative(Command):
    """Compile the native library into the build cache."""

    description = "compile the C library (optional accelerator)"
    user_options = []

    def initialize_options(self):
        pass

    def finalize_options(self):
        pass

    def run(self):
        sys.path.insert(0, "src")
        from repro.simulate._native import (
            build_native_library,
            native_available,
            native_unavailable_reason,
        )

        try:
            path = build_native_library()
        except Exception as exc:
            print(f"build_native: library not built ({exc}); "
                  f"'auto' will use the python backend")
            return
        if native_available(refresh=True):
            print(f"build_native: library ready at {path}")
        else:
            print(f"build_native: built {path} but the loader rejects it: "
                  f"{native_unavailable_reason()}")


setup(cmdclass={"build_native": BuildNative})
