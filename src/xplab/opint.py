"""Double and triple operator integrals over finite atomic spectral
measures, and functional calculus for noncommuting Hermitian tuples.

With measures ``E1, E2, E3`` whose atoms are ``(a_j, P_j)``, ``(b_k, Q_k)``,
``(c_l, R_l)``:

* ``doi(Phi, E1, T, E2)   = sum_{j,k}   Phi(a_j, b_k)      P_j T Q_k``
* ``toi(fgrid, E1, T1, E2, T2, E3)
                          = sum_{j,k,l} fgrid[j,k,l] P_j T1 Q_k T2 R_l``

``doi`` takes the symbol ``Phi`` as a field and evaluates it on the atom
grid itself.  ``toi`` takes the symbol's values on the atom grid,
``fgrid[j, k, l] = Phi(a_j, b_k, c_l)``, as :func:`grid_eval` returns them
for the three measures' ``values``; so callers whose integrals share atoms
evaluate the symbol once and pass views of one grid.

Both are evaluated in the concatenated eigenbases of the measures, where
the atom sums become Hadamard products; this is algebraically identical to
the literal sum over atoms and costs O(dim^3) regardless of atom count.
The change into and out of an eigenbasis is a matrix product for a dense
(``eigh``) basis and a row or column gather for a permutation basis (a
measure whose ``perm`` is set, see :class:`~xplab.spectral.SpectralMeasure`);
the gather gives the same values as the product, which multiplies by ones
and exact zeros.

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


def _take(x: np.ndarray, index, axis: int) -> np.ndarray:
    # a slice index is the identity permutation: no copy
    return x if isinstance(index, slice) else np.take(x, index, axis=axis)


def _into_bases(e1: SpectralMeasure, x: np.ndarray, e2: SpectralMeasure) -> np.ndarray:
    """``e1.basis^H @ x @ e2.basis``, gathering for a permutation basis."""
    x = e1.basis.conj().T @ x if e1.perm is None else _take(x, e1.perm, 0)
    return x @ e2.basis if e2.perm is None else _take(x, e2.perm, 1)


def _out_of_bases(e1: SpectralMeasure, y: np.ndarray, e2: SpectralMeasure) -> np.ndarray:
    """``e1.basis @ y @ e2.basis^H``, gathering for a permutation basis."""
    y = e1.basis @ y if e1.perm is None else _take(y, e1.perm_inv, 0)
    return y @ e2.basis.conj().T if e2.perm is None else _take(y, e2.perm_inv, 1)


def doi(phi, e1: SpectralMeasure, t, e2: SpectralMeasure) -> np.ndarray:
    """Double operator integral ``sum Phi(a_j, b_k) P_j T Q_k``."""
    tmat = as_matrix(t)
    _check_dim("T", tmat.shape[0], e1.dim)
    _check_dim("E2", e2.dim, e1.dim)
    fgrid = grid_eval(phi, e1.values, e2.values)
    fcols = fgrid[np.ix_(e1.column_atom_index(), e2.column_atom_index())]
    return _out_of_bases(e1, fcols * _into_bases(e1, tmat, e2), e2)


def toi(fgrid, e1: SpectralMeasure, t1, e2: SpectralMeasure, t2, e3: SpectralMeasure) -> np.ndarray:
    """Triple operator integral ``sum fgrid[j,k,l] P_j T1 Q_k T2 R_l``.

    ``fgrid`` holds the symbol on the atom grid, ``fgrid[j, k, l] =
    Phi(a_j, b_k, c_l)``, with shape ``(E1.atom_count, E2.atom_count,
    E3.atom_count)``; any array of that shape will do, a strided view
    included, and it is only read.  ``T1`` and ``T2`` go into the
    eigenbases by a product with a dense basis and by a gather with a
    permutation basis, and so does the result on the way back.
    """
    t1m, t2m = as_matrix(t1), as_matrix(t2)
    _check_dim("T1", t1m.shape[0], e1.dim)
    _check_dim("E2", e2.dim, e1.dim)
    _check_dim("T2", t2m.shape[0], e1.dim)
    _check_dim("E3", e3.dim, e1.dim)
    fgrid = np.asarray(fgrid)
    atoms = (e1.atom_count, e2.atom_count, e3.atom_count)
    if fgrid.shape != atoms:
        raise ValueError(f"symbol grid has shape {fgrid.shape}, expected the atom grid {atoms}")
    ci1 = e1.column_atom_index()
    ci3 = e3.column_atom_index()
    a1 = _into_bases(e1, t1m, e2)
    a2 = _into_bases(e2, t2m, e3)
    acc = np.zeros((e1.dim, e3.dim), dtype=np.result_type(fgrid, a1, a2))
    for k in range(e2.atom_count):
        cols = slice(e2.starts[k], e2.starts[k + 1])
        slab = fgrid[:, k, :][np.ix_(ci1, ci3)]
        acc += slab * (a1[:, cols] @ a2[cols, :])
    return _out_of_bases(e1, acc, e3)


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
    return toi(grid_eval(f, ea.values, eb.values, ec.values), ea, eye, eb, eye, ec)


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
