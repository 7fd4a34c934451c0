"""Library-level tests compute at the OpenBLAS thread count the commands pin."""

import pytest

from lionprompt.cli import _one_blas_thread


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    with _one_blas_thread():
        yield
