"""Thread-count helpers and BLAS pool pinning for reproducible parallel timing."""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import sys
from pathlib import Path

import numpy as np

try:
    from threadpoolctl import threadpool_limits
except ImportError:  # threadpoolctl is optional: the ctypes OpenBLAS control below stands in
    threadpool_limits = None

THREADS_ENV_VAR = "SPLINEREG_THREADS"

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


@contextlib.contextmanager
def single_threaded_blas():
    """Limit BLAS/OpenMP pools to one thread for the duration of the block.

    Library-level parallelism is managed explicitly (coefficient components);
    letting BLAS spawn its own workers underneath would both oversubscribe the
    machine and make single-thread baselines meaningless. Uses threadpoolctl
    when installed, else numpy's bundled OpenBLAS through ctypes, restoring
    the previous count on exit; with neither it warns once on stderr. The
    count is process-wide, so enter the block from one thread at a time.
    """
    if threadpool_limits is not None:
        with threadpool_limits(limits=1):
            yield
        return
    controls = _openblas_thread_controls()
    if controls is None:
        _warn_unpinned()
        yield
        return
    get_threads, set_threads = controls
    previous = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(previous)


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
    """Number of physical cores, ignoring SMT siblings. Falls back to cpu_count."""
    try:
        cores = set()
        base = "/sys/devices/system/cpu"
        for name in os.listdir(base):
            if not name.startswith("cpu") or not name[3:].isdigit():
                continue
            topo = os.path.join(base, name, "topology")
            try:
                with open(os.path.join(topo, "core_id")) as fh:
                    core = fh.read().strip()
                with open(os.path.join(topo, "physical_package_id")) as fh:
                    pkg = fh.read().strip()
            except OSError:
                continue
            cores.add((pkg, core))
        if cores:
            return len(cores)
    except OSError:
        pass
    return os.cpu_count() or 1


@functools.lru_cache(maxsize=None)
def _warn_bad_thread_env(value: str):
    print(f"splinereg: warning: {THREADS_ENV_VAR}={value!r} is not a positive integer; "
          "using 1 thread", file=sys.stderr)


def resolve_thread_count(flag_value: int | None) -> int:
    """Thread count from CLI flag, else environment, else 1. The flag wins (the
    parser admits only positive integers); an environment value that is not a
    positive integer is reported once on stderr."""
    if flag_value is not None:
        return flag_value
    env = os.environ.get(THREADS_ENV_VAR)
    if env:
        try:
            if int(env) >= 1:
                return int(env)
        except ValueError:
            pass
        _warn_bad_thread_env(env)
    return 1
