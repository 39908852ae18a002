"""BLAS pool pinning, checked against numpy's bundled OpenBLAS directly."""

import ctypes
from pathlib import Path

import numpy as np
import pytest

from splinereg import _threads
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


def test_single_threaded_blas_pins_and_restores():
    controls = _openblas_threads()
    if controls is None:
        pytest.skip("numpy does not bundle an OpenBLAS with thread controls")
    get, put = controls
    original = get()
    put(2)
    try:
        with single_threaded_blas():
            assert get() == 1
            with single_threaded_blas():
                assert get() == 1
            assert get() == 1
        assert get() == 2
    finally:
        put(original)


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
