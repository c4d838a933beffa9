import os
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

sys.path.insert(0, str(Path(__file__).parent))

from modlab import Grid


def pytest_report_header(config):
    # modulus solves round as the BLAS kernel and its thread count go, so a
    # failure report names the setting it ran under
    blas = ", ".join(f"{k}={os.environ.get(k, 'unset')}" for k in ("OPENBLAS_NUM_THREADS", "OPENBLAS_CORETYPE"))
    return f"numpy {np.__version__}, scipy {scipy.__version__}, {blas}"


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def unit_square_16():
    return Grid(box_min=[0.0, 0.0], box_max=[1.0, 1.0], resolution=[16, 16])


@pytest.fixture
def interval_64():
    return Grid(box_min=[0.0], box_max=[1.0], resolution=[64])
