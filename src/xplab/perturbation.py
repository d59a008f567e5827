"""Divided differences and the trace-norm perturbation identities.

The central identity: for Hermitian ``A``, ``B`` with finite spectra and any
scalar function ``f``,

    f(A) - f(B) = doi(Df, E_A, A - B, E_B),

where ``Df`` is the divided difference of ``f``.  Its value on the diagonal
never matters, because ``E_A({v}) (A - B) E_B({v}) = 0`` whenever ``v`` is
an eigenvalue of both operators, so :func:`divided_difference` puts 0 there
and needs no derivative.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .hermitian import HermitianMatrix, _diagonal_matrices, _real_or_complex, schatten_norm
from .opint import doi, grid_eval
from .spectral import _column_values, _measure, apply_scalar

__all__ = [
    "divided_difference",
    "perturbation_identity_residual",
    "psi_difference",
    "separated_difference",
]


def divided_difference(phi: Callable) -> Callable:
    """Two-variable field ``(phi(x) - phi(y)) / (x - y)``, with the value 0
    on the diagonal ``x == y`` (exact float equality).

    Real values of ``phi`` give a float64 field, complex ones a complex128
    field (the dtype rule of :mod:`xplab.hermitian`).  ``phi`` is called on
    ``x`` and on ``y`` as given, so on an ``n x m`` sparse mesh it makes
    ``n + m`` evaluations, not ``2nm``.
    """

    def fn(x, y):
        xa = np.asarray(x, dtype=np.float64)
        ya = np.asarray(y, dtype=np.float64)
        same = xa == ya
        denom = np.where(same, 1.0, xa - ya)
        # a product with the reciprocal rounds as numpy's complex-by-real
        # division does, so real and complex phi values agree bit for bit
        vals = (_real_or_complex(phi(xa)) - _real_or_complex(phi(ya))) * (1.0 / denom)
        return np.where(same, 0.0, vals) if same.any() else vals

    return fn


def perturbation_identity_residual(f, A, B):
    """Trace-norm residual of ``f(A) - f(B) - doi(Df, E_A, A - B, E_B)``.

    Vanishes (to roundoff) for every ``f`` on matrices with finite spectra;
    the contract is residual ``<= 1e-9 * (1 + ||A|| + ||B||)``.  A float;
    for a stacked ``f`` or stacked matrices (see :mod:`xplab.opint`), the
    array of the residuals of its fields and members, from one batched SVD.
    """
    A, B = map(HermitianMatrix.wrap, (A, B))
    lhs = _scalar_difference(f, _measure(A), _measure(B))
    return schatten_norm(lhs - psi_difference(f, A, B), 1)


def psi_difference(psi, B1, B2) -> np.ndarray:
    """The double-integral form of ``psi(B1) - psi(B2)``:

    ``sum over eigenvalues l of B1, m of B2 with l != m of
    (psi(l) - psi(m)) / (l - m) * E_B1({l}) (B1 - B2) E_B2({m})``,

    that is, the double integral of :func:`divided_difference`'s atom grid.
    """
    B1, B2 = map(HermitianMatrix.wrap, (B1, B2))
    e1, e2 = map(_measure, (B1, B2))
    return doi(grid_eval(divided_difference(psi), e1.values, e2.values), e1, B1.mat - B2.mat, e2)


def separated_difference(phi, psi, A, B1, B2, C) -> np.ndarray:
    """``doi(phi's atom grid, E_A, Q, E_C)`` with ``Q = psi(B1) - psi(B2)``.

    Equals ``f(A, B1, C) - f(A, B2, C)`` for ``f(x, y, z) = phi(x, z) psi(y)``.
    """
    ea, ec, e1, e2 = map(_measure, (A, C, B1, B2))
    q = _scalar_difference(psi, e1, e2)
    return doi(grid_eval(phi, ea.values, ec.values), ea, q, ec, _overwrite_t=True)


def _scalar_difference(f, e1, e2) -> np.ndarray:
    """``apply_scalar(e1, f) - apply_scalar(e2, f)``, in the first term's array when ``e2``'s
    basis is the identity (``_kept_columns`` of no column is ``None``: no reflector is formed)
    and the dtype and shape allow: that term is diagonal, so it is subtracted on the diagonal
    only, as ``x - 0.0 == x`` bit for bit."""
    out = apply_scalar(e1, f)
    g = None if e2._kept_columns(np.zeros(e2.dim, bool)) is not None else _column_values(e2, f)
    if (g is None or np.result_type(out, g) != out.dtype
            or np.broadcast_shapes(out.shape, g.shape + g.shape[-1:]) != out.shape):
        return out - (apply_scalar(e2, f) if g is None else _diagonal_matrices(g))
    np.einsum("...ii->...i", out)[...] -= g
    return out
