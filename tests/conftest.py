import math

import numpy as np
import pytest

from xplab.experiment import _unitary
from xplab.hermitian import HermitianMatrix

__all__ = ["random_complex", "random_hermitian", "random_unitary"]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_hermitian(rng, n, scale=1.0):
    raw = random_complex(rng, n)
    # raw + raw^H is exactly Hermitian, and real scalings keep it so
    return HermitianMatrix._symmetric(scale * (raw + raw.conj().T) / (2.0 * math.sqrt(n)))


def random_unitary(rng, n):
    return _unitary(random_complex(rng, n))
