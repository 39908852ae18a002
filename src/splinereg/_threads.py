"""Thread-count helpers and BLAS pool pinning for reproducible parallel timing."""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import sys
import threading
from pathlib import Path

import numpy as np

try:
    from threadpoolctl import threadpool_limits
except ImportError:  # threadpoolctl is optional: the ctypes OpenBLAS control below stands in
    threadpool_limits = None

# (get, set) thread-count symbols of the OpenBLAS in numpy's wheels: numpy 2
# ships scipy-openblas, numpy 1.x its own 64-bit-integer build.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
)


@functools.lru_cache(maxsize=1)
def _openblas_thread_controls():
    """(get, set) ctypes functions of the OpenBLAS bundled with numpy's wheel,
    or None when no such library or symbol is found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            getter = getattr(lib, get_name, None)
            setter = getattr(lib, set_name, None)
            if getter is not None and setter is not None:
                getter.argtypes, getter.restype = [], ctypes.c_int
                setter.argtypes, setter.restype = [ctypes.c_int], None
                return getter, setter
    return None


@functools.lru_cache(maxsize=1)
def _warn_unpinned():
    print(
        "splinereg: warning: cannot limit BLAS threads (no threadpoolctl and no "
        "OpenBLAS thread control in numpy.libs); BLAS may run its own workers",
        file=sys.stderr,
    )


def _pin_blas():
    """Limit BLAS/OpenMP pools to one thread; return the call that undoes it."""
    if threadpool_limits is not None:
        return threadpool_limits(limits=1).restore_original_limits
    controls = _openblas_thread_controls()
    if controls is None:
        _warn_unpinned()
        return lambda: None
    get_threads, set_threads = controls
    previous = get_threads()
    set_threads(1)
    return lambda: set_threads(previous)


# The pool sizes are process-wide, so blocks entered from any thread share one
# pinning: the first entry pins, the last exit undoes it.
_pin_lock = threading.Lock()
_pin_depth = 0
_unpin = None


@contextlib.contextmanager
def single_threaded_blas():
    """Limit BLAS/OpenMP pools to one thread for the duration of the block.

    Library-level parallelism is managed explicitly (component groups);
    letting BLAS spawn its own workers underneath would both oversubscribe the
    machine and make single-thread baselines meaningless. Uses threadpoolctl
    when installed, else numpy's bundled OpenBLAS through ctypes; with neither
    it warns once on stderr. Blocks nest, also across threads: the count stays
    1 until the last open block exits, which restores the count from before
    the first one entered.
    """
    global _pin_depth, _unpin
    with _pin_lock:
        if _pin_depth == 0:
            _unpin = _pin_blas()
        _pin_depth += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                _unpin()


def blas_environment() -> dict:
    """BLAS thread state for bench output: the threads of numpy's bundled
    OpenBLAS outside and inside `single_threaded_blas` (1 there when pinning
    works; None where numpy bundles no OpenBLAS) and what does the pinning:
    "threadpoolctl", "openblas-ctypes" or None."""
    controls = _openblas_thread_controls()
    if threadpool_limits is not None:
        pinning = "threadpoolctl"
    elif controls is not None:
        pinning = "openblas-ctypes"
    else:
        pinning = None
    threads = (lambda: None) if controls is None else controls[0]
    outside = threads()
    with single_threaded_blas():
        inside = threads()
    return {"blas_threads": outside, "blas_threads_pinned": inside, "blas_pinning": pinning}


def physical_core_count() -> int:
    """Number of physical cores this process may run on, ignoring SMT
    siblings: the distinct cores of the CPUs in its affinity mask. Falls back
    to the mask's size, and to cpu_count where there is no mask."""
    try:
        cpus = os.sched_getaffinity(0)
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1
    cores = set()
    for cpu in cpus:
        topo = f"/sys/devices/system/cpu/cpu{cpu}/topology"
        try:
            with open(os.path.join(topo, "core_id")) as fh:
                core = fh.read().strip()
            with open(os.path.join(topo, "physical_package_id")) as fh:
                pkg = fh.read().strip()
        except OSError:
            continue
        cores.add((pkg, core))
    return len(cores) or len(cpus)
