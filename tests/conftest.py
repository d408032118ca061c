import pytest

from parosc import _blas


@pytest.fixture
def two_blas_threads():
    """NumPy's OpenBLAS at two threads for the test, and at the count it had after it."""
    if _blas._OPENBLAS is None:
        pytest.skip("NumPy's bundled OpenBLAS not found")
    get, set_ = _blas._OPENBLAS
    threads = get()
    set_(2)
    yield
    set_(threads)
