"""Session-wide test setup.

Library-level tests compute at the OpenBLAS thread count the commands pin,
and share one pretrained backbone.
"""

import pytest

from lionprompt import harness
from lionprompt.cli import _one_blas_thread
from lionprompt.config import RunConfig


@pytest.fixture(scope="session", autouse=True)
def one_blas_thread():
    with _one_blas_thread():
        yield


@pytest.fixture(scope="session")
def source_backbone(one_blas_thread):
    """(backbone, source train accuracy) of `pretrain --seed 0` on blobs, built once.

    Tests clone it before training (`make_task` does), so it stays as pretrained.
    """
    return harness.pretrain_backbone(RunConfig())
