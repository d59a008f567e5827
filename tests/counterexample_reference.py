"""Reference paths kept from earlier designs of :mod:`xplab.counterexample`:
the lattice interpolant from before ``phi_from_coeffs`` took only sparse meshes,
so the tests can check its bilinear GEMM against one dot product per point,
the Gram-product witness-norm bound from before the triangular witness had its
O(n) one, so the tests can run trace duality with arbitrary witnesses, and the
difference over the dense operators the instance stored before it held spectral
measures, so the tests can check the measures bit for bit."""

import math

import numpy as np

from xplab.counterexample import TWO_PI, CoeffMatrix, _lattice, build_instance, eta
from xplab.hermitian import HermitianMatrix, _gamma, _up
from xplab.perturbation import separated_difference
from xplab.spectral import SpectralMeasure


def phi_elementwise(c: CoeffMatrix, x, y) -> np.ndarray:
    """``sum c_jk eta(x - 2 pi j) eta(y - 2 pi k)`` at each broadcast pair
    ``(x, y)``, for arrays of any broadcastable shapes."""
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    bx = eta(xa[..., None] - _lattice(c.rows))
    by = eta(ya[..., None] - _lattice(c.cols))
    shape = np.broadcast_shapes(xa.shape, ya.shape)
    tb = np.broadcast_to(bx @ c.entries, shape + (c.cols,))
    byb = np.broadcast_to(by, shape + (c.cols,))
    return np.einsum("...k,...k->...", tb, byb)


def gram_norm_bound(x: np.ndarray) -> float:
    """A certified upper bound on ``||X||_op`` for any square ``X``, by one Gram
    GEMM: ``||X||_op^2 <= 1 + ||X^T X - I||_F``, and the GEMM errs by at most
    ``gamma_n ||X||_F^2`` in Frobenius norm."""
    n = len(x)
    gram = x.T @ x
    gram.flat[:: n + 1] -= 1.0  # the + 2 below covers its rounding
    gram_dev = _up(math.sqrt(_up(float(np.vdot(gram, gram)), n * n + 2)))
    gram_slack = _up(_gamma(n) * _up(float(np.vdot(x, x)), n * n))
    return _up(math.sqrt(_up(_up(1.0 + gram_dev) + gram_slack)))


def dense_difference(n: int) -> np.ndarray:
    """``separated_difference`` of the size-``n`` instance's factors over dense operators:
    the diagonal ``A = C``, the rank-one ``B1 = 2 pi v v^T / |v|^2`` (``v`` all ones) with
    its Householder reflector as an explicit dense basis, and a zero ``B2``."""
    inst = build_instance(n)
    a = HermitianMatrix(np.diag(_lattice(n)))
    v = np.ones(n)
    vv = float(v @ v)
    b1 = HermitianMatrix(TWO_PI * (np.outer(v, v) / vv))
    w = v * (np.copysign(1.0, v[-1]) / np.sqrt(vv))
    w[-1] += 1.0
    basis = np.outer(w, w * (-2.0 / float(w @ w)))
    basis.flat[:: n + 1] += 1.0
    b1._measure = SpectralMeasure([0.0, TWO_PI], basis, [0, n - 1, n])
    return separated_difference(inst.phi, inst.psi, a, b1, HermitianMatrix(np.zeros((n, n))), a)
