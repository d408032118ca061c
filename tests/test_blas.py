"""NumPy's OpenBLAS held at one thread around the eigensolves, and its count restored."""

import numpy as np
import pytest

from parosc import _blas
from parosc.floquet import LabFrameParams, floquet_vs_rwa
from parosc.fock import FockSpace
from parosc.lindblad import build_liouvillian
from parosc.radiation import sum_rule_check
from parosc.rwa import RwaSystem


def test_the_hold_is_one_thread_restored_after_nesting_and_raising(two_blas_threads):
    with _blas._one_blas_thread() as held:
        assert held and _blas._blas_threads() == 1
        with _blas._one_blas_thread():
            assert _blas._blas_threads() == 1
        assert _blas._blas_threads() == 1      # the inner hold restores the outer count
    assert _blas._blas_threads() == 2
    with pytest.raises(RuntimeError), _blas._one_blas_thread():
        raise RuntimeError
    assert _blas._blas_threads() == 2


def test_without_the_library_nothing_is_held(monkeypatch):
    monkeypatch.setattr(_blas, "_OPENBLAS", None)
    assert _blas._blas_threads() is None
    with _blas._one_blas_thread() as held:
        assert held is False


def recording_blas_threads(monkeypatch, name):
    """The BLAS thread count at each call of np.linalg.<name>."""
    seen, fn = [], getattr(np.linalg, name)

    def recording(*args, **kwargs):
        seen.append(_blas._blas_threads())
        return fn(*args, **kwargs)

    monkeypatch.setattr(np.linalg, name, recording)
    return seen


def test_floquet_blocks_are_solved_on_one_thread(monkeypatch, two_blas_threads):
    seen = recording_blas_threads(monkeypatch, "eigh")
    floquet_vs_rwa(LabFrameParams(omega0=1.0, V=1e-3, delta=1.8, f=1.0, k_cut=4, n_cut=12), 2)
    assert seen == [1, 1]   # one eigh per parity block
    assert _blas._blas_threads() == 2


def test_the_sum_rule_eig_runs_on_one_thread(monkeypatch, two_blas_threads):
    seen = recording_blas_threads(monkeypatch, "eigvals")
    space = FockSpace(8)
    liou = build_liouvillian(space, RwaSystem(delta=1.1, f=0.9), 0.25)
    sum_rule_check(liou, np.outer(space.vacuum(), space.vacuum()))
    assert seen == [1]
    assert _blas._blas_threads() == 2
