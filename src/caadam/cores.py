"""How many cores a trial may use, and how many threads its BLAS runs.

A process that runs trials on its own may use every core it is allowed to
run on.  A pool worker may use its share: ``share_cores(workers)`` makes the
process one of ``workers`` workers, and gives the OpenBLAS that NumPy bundles
that share as threads.  ``spare_core()`` says whether a trial has a core
that its BLAS leaves idle, which ``train`` can fill with a helper thread.
"""

from __future__ import annotations

import functools
import os

import numpy as np

# This process's share of the usable cores, once it is a pool worker.
_worker_share: int | None = None


def usable_cores() -> int:
    """The number of cores this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@functools.cache
def _openblas(name: str):
    """``scipy_openblas_<name>64_`` of the OpenBLAS that NumPy bundles, for
    ``name`` ``get_num_threads`` or ``set_num_threads``; None when the library
    or the symbol is missing."""
    import ctypes  # only a thread count needs it
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(os.path.normpath(libs),
                                              "libscipy_openblas64_*.so"))):
        try:
            fn = getattr(ctypes.CDLL(path), f"scipy_openblas_{name}64_")
        except (OSError, AttributeError):
            continue
        setter = name == "set_num_threads"
        fn.argtypes, fn.restype = ([ctypes.c_int], None) if setter else ([], ctypes.c_int)
        return fn
    return None


def blas_threads() -> int | None:
    """The threads the bundled OpenBLAS runs, or None when they cannot be read."""
    getter = _openblas("get_num_threads")
    return None if getter is None else getter()


def share_cores(workers: int) -> None:
    """Make this process one of ``workers`` pool workers.  Its trials may use
    ``max(1, usable_cores() // workers)`` cores, and OpenBLAS gets that many
    threads: each OpenBLAS thread spins while it waits, so a full-width BLAS
    in every worker oversubscribes the cores.  The library is left as it is
    when ``OPENBLAS_NUM_THREADS`` is set, or when it cannot be found."""
    global _worker_share
    _worker_share = max(1, usable_cores() // workers)
    if "OPENBLAS_NUM_THREADS" in os.environ:
        return
    setter = _openblas("set_num_threads")
    if setter is not None:
        setter(_worker_share)


def trial_cores() -> int:
    """The cores a trial in this process may use: the usable cores, or a
    pool worker's share of them."""
    return usable_cores() if _worker_share is None else _worker_share


def spare_core() -> bool:
    """Whether the cores a trial may use exceed the threads its BLAS runs;
    False when the thread count cannot be read."""
    threads = blas_threads()
    return threads is not None and trial_cores() > threads
