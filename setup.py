"""Setup shim for legacy editable installs (offline environments without
the ``wheel`` package). Configuration lives in pyproject.toml.

Adds one repo-specific command::

    python setup.py build_native

which compiles the phase-2 C kernel (``repro.simulate._native``) into
the user cache eagerly, so the first ``--engine native`` (or ``auto``)
run doesn't pay the compile.  The command is best-effort by design: a
box without a C toolchain prints the reason and exits zero, because the
kernel is an optional accelerator — ``auto`` falls back to python.
"""

import sys

from setuptools import Command, setup


class BuildNative(Command):
    """Compile the native simulation kernel into the build cache."""

    description = "compile the C phase-2 kernel (optional accelerator)"
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
            print(f"build_native: kernel not built ({exc}); "
                  f"'auto' will use the python backend")
            return
        if native_available(refresh=True):
            print(f"build_native: kernel ready at {path}")
        else:
            print(f"build_native: built {path} but the loader rejects it: "
                  f"{native_unavailable_reason()}")


setup(cmdclass={"build_native": BuildNative})
