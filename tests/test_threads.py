"""BLAS pool pinning, checked against numpy's bundled OpenBLAS directly."""

import ctypes
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import splinereg as sr
from splinereg import _threads
from splinereg import bspline_core as core
from splinereg import regularizers_analytic as analytic
from splinereg._threads import single_threaded_blas


def _openblas_threads():
    """(get, set) of the OpenBLAS that numpy's wheel bundles, looked up here
    independently of the library, or None when the wheel has none."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


@pytest.fixture
def blas_threads():
    """The OpenBLAS thread-count getter, with the count set to 2 for the test
    and restored after it."""
    controls = _openblas_threads()
    if controls is None:
        pytest.skip("numpy does not bundle an OpenBLAS with thread controls")
    get, put = controls
    original = get()
    put(2)
    yield get
    put(original)


def test_single_threaded_blas_pins_and_restores(blas_threads):
    get = blas_threads
    with single_threaded_blas():
        assert get() == 1
        with single_threaded_blas():
            assert get() == 1
        assert get() == 1
    assert get() == 2


def test_every_penalty_pins_whoever_calls_it(blas_threads, monkeypatch):
    """Called with no block of the caller's around them, the sampled penalties
    run every contraction, and `penalty` every component share, at one BLAS
    thread, and each leaves the count as it found it."""
    get = blas_threads
    seen = []

    def spy(module, name):
        real = getattr(module, name)

        def recorded(*args, **kwargs):
            seen.append(get())
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, recorded)

    spy(core, "_contract")
    spy(analytic, "_component_share")
    grid = sr.make_smooth_grid(core.GridGeometry((4, 3, 5), (8.0,) * 3), 2.0, 15.0, seed=7)
    weights = sr.RegularizerWeights(1, 1, 1, 1, 1)
    calls = {"quadrature_penalty": lambda: sr.quadrature_penalty(grid, weights, (4, 4, 4)),
             "penalty": lambda: sr.penalty(grid, weights)}
    for policy in ("skip-boundary", "clamp"):
        spec = sr.SamplingSpec.voxel_grid((2.0,) * 3, policy)
        calls[f"fd_penalty {policy}"] = lambda spec=spec: sr.fd_penalty(grid, weights, spec)
        calls[f"fd_penalty {policy} S3"] = lambda spec=spec: sr.fd_penalty(grid, weights, spec, terms=[2])
    for name, call in calls.items():
        seen.clear()
        call()
        assert seen and set(seen) == {1}, (name, seen)
        assert get() == 2, name


def test_single_threaded_blas_nests_across_threads(blas_threads):
    """A enters, B enters, A exits: B still runs pinned, and B's exit restores
    the count from before A entered."""
    get = blas_threads
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    seen = {}

    def first():
        with single_threaded_blas():
            a_in.set()
            b_in.wait(10)
        a_out.set()

    def second():
        a_in.wait(10)
        with single_threaded_blas():
            b_in.set()
            a_out.wait(10)
            seen["inside"] = get()

    threads = [threading.Thread(target=first), threading.Thread(target=second)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(20)
    assert not any(t.is_alive() for t in threads)
    assert a_out.is_set() and seen.get("inside") == 1
    assert get() == 2


def test_single_threaded_blas_holds_under_concurrent_blocks(blas_threads):
    """More threads than cores enter and leave blocks with a short switch
    interval: every block runs pinned, and the count ends where it started."""
    get = blas_threads
    interval = sys.getswitchinterval()
    unpinned = []

    def worker():
        for _ in range(2000):
            with single_threaded_blas():
                if get() != 1:
                    unpinned.append(get())

    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert not any(t.is_alive() for t in threads)
        assert not unpinned
        assert get() == 2
    finally:
        sys.setswitchinterval(interval)


def test_single_threaded_blas_pins_once_through_threadpoolctl(monkeypatch):
    """With threadpoolctl in place (a stub here, recording its calls), nested
    blocks and blocks open at once on two threads limit the pools once and
    restore them once, and no block runs unpinned."""
    calls, pinned = [], []

    class Limits:  # threadpoolctl.threadpool_limits as `_pin_blas` uses it
        def __init__(self, limits):
            calls.append(("limits", limits))
            pinned.append(True)

        def restore_original_limits(self):
            calls.append("restore")
            pinned.pop()

    monkeypatch.setattr(_threads, "threadpool_limits", Limits)
    monkeypatch.setattr(_threads, "_openblas_thread_controls", lambda: None)
    with single_threaded_blas():
        with single_threaded_blas():
            assert pinned == [True]
    assert calls == [("limits", 1), "restore"] and not pinned

    calls.clear()
    a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
    seen = []

    def first():
        with single_threaded_blas():
            a_in.set()
            b_in.wait(10)
            seen.append(list(pinned))
        a_out.set()

    def second():
        a_in.wait(10)
        with single_threaded_blas():
            b_in.set()
            a_out.wait(10)
            seen.append(list(pinned))

    threads = [threading.Thread(target=first), threading.Thread(target=second)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(20)
    assert not any(t.is_alive() for t in threads)
    assert seen == [[True], [True]]
    assert calls == [("limits", 1), "restore"] and not pinned


def test_single_threaded_blas_warns_once_when_it_cannot_pin(monkeypatch, capsys):
    monkeypatch.setattr(_threads, "threadpool_limits", None)
    monkeypatch.setattr(_threads, "_openblas_thread_controls", lambda: None)
    _threads._warn_unpinned.cache_clear()
    try:
        for _ in range(2):
            with single_threaded_blas():
                pass
        assert capsys.readouterr().err.count("cannot limit BLAS threads") == 1
    finally:
        _threads._warn_unpinned.cache_clear()


def test_blas_environment_says_when_it_cannot_pin(monkeypatch, capsys):
    monkeypatch.setattr(_threads, "threadpool_limits", None)
    monkeypatch.setattr(_threads, "_openblas_thread_controls", lambda: None)
    _threads._warn_unpinned.cache_clear()
    try:
        assert _threads.blas_environment() == {
            "blas_threads": None, "blas_threads_pinned": None, "blas_pinning": None
        }
        assert "cannot limit BLAS threads" in capsys.readouterr().err
    finally:
        _threads._warn_unpinned.cache_clear()


def test_physical_core_count_counts_only_cpus_the_process_may_use(monkeypatch):
    monkeypatch.setattr(_threads.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _threads.physical_core_count() == 1
