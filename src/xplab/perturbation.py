"""Divided differences and the trace-norm perturbation identities.

The central identity: for Hermitian ``A``, ``B`` with finite spectra and any
scalar function ``f``,

    f(A) - f(B) = doi(Df, E_A, A - B, E_B),

where ``Df`` is the divided difference of ``f``.  The value of ``Df`` on the
diagonal never matters, because ``E_A({v}) (A - B) E_B({v}) = 0`` whenever
``v`` is an eigenvalue of both operators.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .hermitian import HermitianMatrix, _real_or_complex, schatten_norm
from .opint import doi
from .spectral import apply_scalar, from_hermitian

__all__ = [
    "divided_difference",
    "perturbation_identity_residual",
    "psi_difference",
    "separated_difference",
]


def divided_difference(phi: Callable, phi_prime: Callable) -> Callable:
    """Two-variable field ``(phi(x) - phi(y)) / (x - y)``, with the value
    ``phi_prime(x)`` on the diagonal ``x == y`` (exact float equality).

    ``phi_prime`` is typically the derivative in closed form; any map works,
    since diagonal values never affect the perturbation identities.  Real
    values of ``phi`` and ``phi_prime`` give a float64 field, complex ones
    a complex128 field (the dtype rule of :mod:`xplab.hermitian`).  ``phi``
    is called on ``x`` and on ``y`` as given, so on an ``n x m`` sparse
    mesh it makes ``n + m`` evaluations, not ``2nm``.
    """

    def fn(x, y):
        xa = np.asarray(x, dtype=np.float64)
        ya = np.asarray(y, dtype=np.float64)
        same = xa == ya
        denom = np.where(same, 1.0, xa - ya)
        # a product with the reciprocal rounds as numpy's complex-by-real
        # division does, so real and complex phi values agree bit for bit
        vals = (_real_or_complex(phi(xa)) - _real_or_complex(phi(ya))) * (1.0 / denom)
        if same.any():
            vals = np.where(same, _real_or_complex(phi_prime(xa)), vals)
        return vals

    return fn


def perturbation_identity_residual(f, f_prime, A, B) -> float:
    """Trace-norm residual of ``f(A) - f(B) - doi(Df, E_A, A - B, E_B)``.

    Vanishes (to roundoff) for every ``f`` on matrices with finite spectra;
    the contract is residual ``<= 1e-9 * (1 + ||A|| + ||B||)``.
    """
    A = HermitianMatrix.wrap(A)
    B = HermitianMatrix.wrap(B)
    ea = from_hermitian(A)
    eb = from_hermitian(B)
    lhs = apply_scalar(ea, f) - apply_scalar(eb, f)
    rhs = doi(divided_difference(f, f_prime), ea, A.mat - B.mat, eb)
    return schatten_norm(lhs - rhs, 1)


def psi_difference(psi, B1, B2) -> np.ndarray:
    """The double-integral form of ``psi(B1) - psi(B2)``:

    ``sum over eigenvalues l of B1, m of B2 with l != m of
    (psi(l) - psi(m)) / (l - m) * E_B1({l}) (B1 - B2) E_B2({m})``,

    that is, the divided difference of ``psi`` with zero on the diagonal.
    """
    B1 = HermitianMatrix.wrap(B1)
    B2 = HermitianMatrix.wrap(B2)
    e1 = from_hermitian(B1)
    e2 = from_hermitian(B2)
    dd = divided_difference(psi, np.zeros_like)
    return doi(dd, e1, B1.mat - B2.mat, e2)


def separated_difference(phi, psi, A, B1, B2, C) -> np.ndarray:
    """``doi(phi, E_A, Q, E_C)`` with ``Q = psi(B1) - psi(B2)``.

    Equals ``f(A, B1, C) - f(A, B2, C)`` for ``f(x, y, z) = phi(x, z) psi(y)``.
    """
    ea = from_hermitian(A)
    ec = from_hermitian(C)
    e1 = from_hermitian(B1)
    e2 = from_hermitian(B2)
    q = apply_scalar(e1, psi) - apply_scalar(e2, psi)
    return doi(phi, ea, q, ec)
