"""Build and load the native library.

The library holds two plain-C parts with no Python.h dependency:

* ``engine.c``, the phase-2 simulation kernel
  (:mod:`repro.simulate.native_engine`);
* ``tracelog.c``, the phase-1 tracer-log expansion
  (:meth:`repro.trace.tracer.Tracer.drain`).

So the "build system" is one compiler invocation::

    cc -O3 -shared -fPIC engine.c tracelog.c -o <cache>/engine-abi<N>-<sources sha256>.so

and the "bindings" are ctypes.  That keeps the native paths usable on
any box with *a* C compiler — no Cython, no build-time Python headers —
while still degrading gracefully when even that is missing:
``native_available()`` is False, ``engine="auto"`` falls back to the
scalar engine and the tracer expands its log with NumPy.

Resolution order for the shared object:

1. ``REPRO_NATIVE_LIB`` — an explicit prebuilt library path (what the
   ``python setup.py build_native`` artifact or a CI cache provides).
2. A cached build keyed by the ABI version and the sources' digest
   (``REPRO_NATIVE_CACHE`` or ``~/.cache/repro-native``): recompiled
   only when a source changes, published atomically so concurrent
   workers never observe a half-written library.
3. An on-demand compile with ``$CC``/``cc``/``gcc``.

``REPRO_NATIVE_DISABLE=1`` forces unavailability — used by the CI
no-toolchain job and the fallback-matrix tests to prove the fallbacks
without uninstalling the compiler.

Loaded libraries are checked twice before use: an ABI version handshake
(a stale prebuilt library from an older source layout is rebuilt from
source rather than trusted) and a signed-shift probe (the page math
needs arithmetic ``>>`` on int64, which C leaves implementation-defined
but every mainstream compiler provides).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from typing import Optional

_ABI_VERSION = 2
_HERE = os.path.dirname(os.path.abspath(__file__))
_SOURCES = tuple(os.path.join(_HERE, name) for name in ("engine.c", "tracelog.c"))

_lock = threading.Lock()
_lib: Optional[ctypes.CDLL] = None
_probe_result: Optional[bool] = None
_load_error: Optional[str] = None


def _cache_dir() -> str:
    explicit = os.environ.get("REPRO_NATIVE_CACHE")
    if explicit:
        return explicit
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro-native")


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in _SOURCES:
        with open(path, "rb") as handle:
            digest.update(os.path.basename(path).encode() + b"\0" + handle.read())
    return digest.hexdigest()[:16]


def _find_compiler() -> Optional[str]:
    for candidate in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if candidate and shutil.which(candidate):
            return candidate
    return None


def build_native_library(out_path: Optional[str] = None) -> str:
    """Compile the library's sources into a shared object and return
    its path.

    With ``out_path`` the library lands exactly there (the ``setup.py
    build_native`` entry point); otherwise it is published atomically
    into the cache directory under an ABI-and-source-digest name, so repeat calls
    are free and concurrent builders race benignly (last rename wins,
    both files are identical).

    Raises ``RuntimeError`` when no C compiler is on PATH or the compile
    fails — callers that want graceful degradation go through
    :func:`load_native_library` / :func:`native_available` instead.
    """
    compiler = _find_compiler()
    if compiler is None:
        raise RuntimeError(
            "no C compiler found (tried $CC, cc, gcc, clang); set CC or "
            "provide a prebuilt library via REPRO_NATIVE_LIB"
        )
    if out_path is None:
        cache = _cache_dir()
        os.makedirs(cache, exist_ok=True)
        final = os.path.join(cache, f"engine-abi{_ABI_VERSION}-{_source_digest()}.so")
        if os.path.exists(final):
            return final
    else:
        os.makedirs(os.path.dirname(os.path.abspath(out_path)) or ".",
                    exist_ok=True)
        final = out_path

    fd, tmp = tempfile.mkstemp(
        suffix=".so", dir=os.path.dirname(os.path.abspath(final))
    )
    os.close(fd)
    try:
        cmd = [
            compiler, "-O3", "-shared", "-fPIC",
            "-fvisibility=hidden", *_SOURCES, "-o", tmp,
        ]
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"native library compile failed ({' '.join(cmd)}):\n"
                f"{proc.stderr.strip()}"
            )
        os.replace(tmp, final)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return final


def _declare(lib: ctypes.CDLL) -> ctypes.CDLL:
    i64 = ctypes.c_int64
    p_i64 = ctypes.POINTER(ctypes.c_int64)
    p_i8 = ctypes.POINTER(ctypes.c_int8)
    lib.engine_abi_version.restype = i64
    lib.engine_abi_version.argtypes = []
    lib.engine_shift_probe.restype = ctypes.c_int
    lib.engine_shift_probe.argtypes = []
    lib.engine_new.restype = ctypes.c_void_p
    lib.engine_new.argtypes = [i64, i64, p_i64, p_i64, p_i64, i64]
    lib.engine_free.restype = None
    lib.engine_free.argtypes = [ctypes.c_void_p]
    lib.engine_feed.restype = ctypes.c_int
    lib.engine_feed.argtypes = [ctypes.c_void_p, i64, p_i8, p_i64, p_i64,
                                p_i64]
    lib.engine_flush.restype = ctypes.c_int
    lib.engine_flush.argtypes = [ctypes.c_void_p]
    lib.engine_read_sessions.restype = None
    lib.engine_read_sessions.argtypes = [ctypes.c_void_p, p_i64, p_i64,
                                         p_i64, p_i64]
    lib.engine_read_pages.restype = None
    lib.engine_read_pages.argtypes = [ctypes.c_void_p, i64, p_i64, p_i64,
                                      p_i64]
    lib.engine_total_writes.restype = i64
    lib.engine_total_writes.argtypes = [ctypes.c_void_p]
    lib.engine_overlap_anomalies.restype = i64
    lib.engine_overlap_anomalies.argtypes = [ctypes.c_void_p]
    ptr = ctypes.c_void_p
    lib.tracelog_expand.restype = ctypes.c_int
    lib.tracelog_expand.argtypes = [
        ptr, i64, i64,            # records, n_records, func_bits
        ptr, ptr, ptr, ptr, ptr,  # plan_start, plan_len, plan_off, plan_size, plan_obj
        i64,                      # n_funcs
        ptr, ptr, i64,            # side rows, side_ends, n_side
        ptr, ptr, ptr, ptr, i64,  # kinds, col_a, col_b, col_c, capacity
        ptr, ptr, ptr,            # ends, eligible, out
    ]
    return lib


def _open(path: str) -> ctypes.CDLL:
    """Load and check the library at ``path``; raise ``OSError`` with the
    reason it cannot be used."""
    lib = ctypes.CDLL(path)
    version = lib.engine_abi_version
    version.restype = ctypes.c_int64
    version.argtypes = []
    if version() != _ABI_VERSION:
        raise OSError(f"{path} has ABI version {version()}, expected {_ABI_VERSION}")
    lib = _declare(lib)
    if not lib.engine_shift_probe():
        raise OSError(
            f"{path} was built by a compiler without arithmetic right "
            "shift on signed int64; the page math would be wrong"
        )
    return lib


def _try_load() -> Optional[ctypes.CDLL]:
    global _load_error
    if os.environ.get("REPRO_NATIVE_DISABLE"):
        _load_error = "disabled via REPRO_NATIVE_DISABLE"
        return None
    stale = ""
    path = os.environ.get("REPRO_NATIVE_LIB")
    if path:
        try:
            lib = _open(path)
        except (OSError, AttributeError) as exc:
            # A stale or broken prebuilt library: rebuild from source.
            stale = f"could not use {path} ({exc}); "
        else:
            _load_error = None
            return lib
    try:
        path = build_native_library()
        lib = _open(path)
    except (RuntimeError, OSError, AttributeError, subprocess.SubprocessError) as exc:
        _load_error = f"{stale}{exc}"
        return None
    _load_error = None
    return lib


def load_native_library(refresh: bool = False) -> Optional[ctypes.CDLL]:
    """The loaded library, or ``None`` when unavailable (memoized).

    ``refresh=True`` re-runs the probe — tests use it after flipping
    ``REPRO_NATIVE_DISABLE`` / ``REPRO_NATIVE_LIB``.
    """
    global _lib, _probe_result
    with _lock:
        if refresh:
            _lib = None
            _probe_result = None
        if _probe_result is None:
            _lib = _try_load()
            _probe_result = _lib is not None
        return _lib


def native_available(refresh: bool = False) -> bool:
    """True when the native library can be (or has been) loaded."""
    return load_native_library(refresh=refresh) is not None


def native_unavailable_reason() -> Optional[str]:
    """Why the last load attempt failed (None when loaded or untried)."""
    return _load_error


__all__ = [
    "build_native_library",
    "load_native_library",
    "native_available",
    "native_unavailable_reason",
]
