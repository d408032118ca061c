"""NumPy's bundled OpenBLAS held at one thread where a second gains little and then spins.

After a threaded call, OpenBLAS keeps its idle workers busy-waiting before
they sleep, on the cores the calls after it need.  NumPy's wheels bundle
OpenBLAS as ``numpy.libs/libscipy_openblas*.so``, whose thread count is read
and set here through ``ctypes``.  Where NumPy links another BLAS (Accelerate,
MKL, a system OpenBLAS) the library or its symbols are not found, and nothing
here acts.  Every name is private: the count is process state that the package
restores, not an option.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from pathlib import Path

import numpy as np


def _load():
    """(get, set) of the thread count of NumPy's bundled OpenBLAS, or None where not found."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob(
            "libscipy_openblas*.so")):
        try:
            lib = ctypes.CDLL(str(path))    # the handle of the copy NumPy loaded
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


_OPENBLAS = _load()


def _blas_threads() -> int | None:
    """The thread count of NumPy's OpenBLAS, or None where it cannot be read."""
    return None if _OPENBLAS is None else _OPENBLAS[0]()


@contextmanager
def _one_blas_thread():
    """Hold NumPy's OpenBLAS at one thread for the body; yields whether it could.

    The count read on entry is restored on exit, also when the body raises, so
    a nested use keeps the outer count.  Two threads holding it at once could
    restore out of order; the package holds it from the calling thread only.
    """
    if _OPENBLAS is None:
        yield False
        return
    get, set_ = _OPENBLAS
    threads = get()
    set_(1)
    try:
        yield True
    finally:
        set_(threads)
