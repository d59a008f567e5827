import numpy as np
import pytest

from xplab.experiment import _random_hermitian as random_hermitian
from xplab.experiment import _unitary

__all__ = ["random_complex", "random_hermitian", "random_unitary"]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_unitary(rng, n):
    return _unitary(random_complex(rng, n))
