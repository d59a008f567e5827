"""Reference evaluation of the lattice interpolant, kept from before
``phi_from_coeffs`` took only sparse meshes, so the tests can check its
bilinear GEMM against one dot product per point."""

import numpy as np

from xplab.counterexample import CoeffMatrix, _lattice, eta


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
