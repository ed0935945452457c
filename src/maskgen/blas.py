"""The native-library settings training runs under: a scoped OpenBLAS
thread count and a process-wide glibc heap setting.

Training multiplies many small matrices, one (T, F) @ (F, V) product per
sequence ((96, 96) @ (96, 64) at the default sizes). A second OpenBLAS
thread spins on them: it doubles the CPU time and does not shorten the wall
time. ``one_blas_thread`` pins the OpenBLAS that numpy loaded to one thread
for the length of a block and then restores the previous count. No result
depends on the count.

An environment variable cannot do this: OpenBLAS reads its variables once,
when it loads, and numpy has loaded it before any maskgen code runs. So the
scope leaves the count alone when the user set one of those variables, and
it does nothing when no OpenBLAS is loaded. The library is looked up on the
first use, not at import.

Each training minibatch frees arrays of a few hundred kB. By default glibc
trims the freed top of its heap, and the next minibatch faults the same
pages back in. ``keep_freed_heap`` raises glibc's mmap and trim thresholds
so that freed memory stays mapped for reuse. The setting lasts for the rest
of the process: glibc offers no way to read the old values back, and
setting a threshold ends its dynamic adjustment for good. It is skipped
when the user set a threshold through the environment and under a C
library without ``mallopt``. No result depends on it.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os

# variables OpenBLAS reads for its thread count when it loads
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# variables and the tunable prefix through which glibc's heap thresholds are set
HEAP_VARIABLES = ("MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_")
HEAP_TUNABLES = "glibc.malloc."

# (get, set) symbol pairs of the builds numpy ships with or links against
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _openblas():
    """The (get, set) thread-count functions of the loaded OpenBLAS, or
    None when the process has none mapped."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


_pinned = False  # a one_blas_thread scope holds the count at 1; a forked child inherits it


@contextlib.contextmanager
def one_blas_thread():
    """Run the block on one OpenBLAS thread, unless the user chose a count
    through the environment. Also usable as a decorator. A nested scope makes
    no OpenBLAS call: setting the count restarts a pool thread a fork stopped."""
    global _pinned
    lib = None if _pinned or any(os.environ.get(name) for name in THREAD_VARIABLES) else _openblas()
    if lib is None:
        yield
        return
    get, set_ = lib
    before = get()
    set_(1)
    _pinned = True
    try:
        yield
    finally:
        _pinned = False
        set_(before)


def _mallopt():
    """The C library's ``mallopt``, or None when it has none."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return mallopt


@functools.cache
def keep_freed_heap() -> None:
    """Keep freed heap memory mapped for the rest of the process, unless the
    user chose heap thresholds through the environment."""
    if any(os.environ.get(name) for name in HEAP_VARIABLES) or HEAP_TUNABLES in os.environ.get("GLIBC_TUNABLES", ""):
        return
    mallopt = _mallopt()
    if mallopt is not None:
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: heap, not mmap, below 32 MiB
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: trim only a free top above 64 MiB
