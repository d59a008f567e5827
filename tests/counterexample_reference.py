"""Reference paths kept from earlier designs of :mod:`xplab.counterexample`:
the lattice interpolant from before ``phi_from_coeffs`` took only sparse meshes,
so the tests can check its bilinear GEMM against one dot product per point, and
the Gram-product witness-norm bound from before the triangular witness had its
O(n) one, so the tests can run trace duality with arbitrary witnesses."""

import math

import numpy as np

from xplab.counterexample import CoeffMatrix, _lattice, eta
from xplab.hermitian import _gamma, _up


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
