"""Double and triple operator integrals over finite atomic spectral
measures, and functional calculus for noncommuting Hermitian tuples.

With measures ``E1, E2, E3`` whose atoms are ``(a_j, P_j)``, ``(b_k, Q_k)``,
``(c_l, R_l)``:

* ``doi(Phi, E1, T, E2)   = sum_{j,k}   Phi(a_j, b_k)      P_j T Q_k``
* ``toi(Phi, E1, T1, E2, T2, E3)
                          = sum_{j,k,l} Phi(a_j, b_k, c_l) P_j T1 Q_k T2 R_l``

Both are evaluated in the concatenated eigenbases of the measures, where
the atom sums become Hadamard products; this is algebraically identical to
the literal sum over atoms and costs O(dim^3) regardless of atom count.

A field (a symbol ``Phi`` or a function ``f`` of one, two or three real
variables) is any callable that takes numpy arrays and broadcasts them.
Every evaluation is one call on whole arrays, never a loop over points;
the caller knows how many variables it passes.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .hermitian import _real_or_complex, as_matrix, schatten_norm
from .spectral import SpectralMeasure, from_hermitian

__all__ = [
    "product_field",
    "grid_eval",
    "doi",
    "toi",
    "func_calc_pair",
    "func_calc_triple",
    "s2_contraction_check",
]


def product_field(phi: Callable, psi: Callable) -> Callable:
    """Three-variable field ``f(x, y, z) = phi(x, z) * psi(y)``."""

    def fn(x, y, z):
        return phi(x, z) * psi(y)

    return fn


def grid_eval(f: Callable, *axes) -> np.ndarray:
    """Evaluate a field on the Cartesian grid of the given 1-D axes.

    Makes one broadcast call on a sparse mesh; any exception raised by the
    field propagates.  Result has shape ``(len(axes[0]), ..., len(axes[-1]))``
    and is complex128 when the field's value is complex, float64 otherwise.
    """
    axes = [np.asarray(a, dtype=np.float64) for a in axes]
    shape = tuple(len(a) for a in axes)
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    out = _real_or_complex(f(*mesh))
    return np.ascontiguousarray(np.broadcast_to(out, shape))


def _check_dim(name: str, got: int, want: int) -> None:
    if got != want:
        raise ValueError(f"dimension mismatch: {name} has dim {got}, expected {want}")


def doi(phi, e1: SpectralMeasure, t, e2: SpectralMeasure) -> np.ndarray:
    """Double operator integral ``sum Phi(a_j, b_k) P_j T Q_k``."""
    tmat = as_matrix(t)
    _check_dim("T", tmat.shape[0], e1.dim)
    _check_dim("E2", e2.dim, e1.dim)
    fgrid = grid_eval(phi, e1.values, e2.values)
    fcols = fgrid[np.ix_(e1.column_atom_index(), e2.column_atom_index())]
    tt = e1.basis.conj().T @ tmat @ e2.basis
    return e1.basis @ (fcols * tt) @ e2.basis.conj().T


def toi(phi, e1: SpectralMeasure, t1, e2: SpectralMeasure, t2, e3: SpectralMeasure) -> np.ndarray:
    """Triple operator integral ``sum Phi(a_j, b_k, c_l) P_j T1 Q_k T2 R_l``."""
    t1m, t2m = as_matrix(t1), as_matrix(t2)
    _check_dim("T1", t1m.shape[0], e1.dim)
    _check_dim("E2", e2.dim, e1.dim)
    _check_dim("T2", t2m.shape[0], e1.dim)
    _check_dim("E3", e3.dim, e1.dim)
    fgrid = grid_eval(phi, e1.values, e2.values, e3.values)
    ci1 = e1.column_atom_index()
    ci3 = e3.column_atom_index()
    a1 = e1.basis.conj().T @ t1m @ e2.basis
    a2 = e2.basis.conj().T @ t2m @ e3.basis
    acc = np.zeros((e1.dim, e3.dim), dtype=np.result_type(fgrid, a1, a2))
    for k in range(e2.atom_count):
        cols = slice(e2.starts[k], e2.starts[k + 1])
        slab = fgrid[:, k, :][np.ix_(ci1, ci3)]
        acc += slab * (a1[:, cols] @ a2[cols, :])
    return e1.basis @ acc @ e3.basis.conj().T


def func_calc_pair(f, A, B) -> np.ndarray:
    """``f(A, B) = sum f(lam_j, mu_k) P_j Q_k`` for a pair of Hermitian
    matrices."""
    ea = from_hermitian(A)
    eb = from_hermitian(B)
    eye = np.eye(ea.dim)
    return doi(f, ea, eye, eb)


def func_calc_triple(f, A, B, C) -> np.ndarray:
    """``f(A, B, C) = sum f(lam, mu, nu) E_A E_B E_C`` for a Hermitian
    triple."""
    ea = from_hermitian(A)
    eb = from_hermitian(B)
    ec = from_hermitian(C)
    eye = np.eye(ea.dim)
    return toi(f, ea, eye, eb, eye, ec)


def s2_contraction_check(phi, e1: SpectralMeasure, e2: SpectralMeasure, t) -> tuple[float, float]:
    """Hilbert-Schmidt contraction of the double integral.

    Returns ``(lhs, rhs)`` with ``lhs = ||doi(Phi, E1, T, E2)||_S2`` and
    ``rhs = max |Phi(a_j, b_k)| * ||T||_S2``.  The contraction says
    ``lhs <= rhs``; the caller judges the pair against its own tolerance.
    """
    tmat = as_matrix(t)
    lhs = schatten_norm(doi(phi, e1, tmat, e2), 2)
    fgrid = grid_eval(phi, e1.values, e2.values)
    rhs = float(np.abs(fgrid).max()) * schatten_norm(tmat, 2)
    return lhs, rhs
