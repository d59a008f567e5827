"""Double and triple operator integrals over finite atomic spectral
measures, and functional calculus for noncommuting Hermitian tuples.

With measures ``E1, E2, E3`` whose atoms are ``(a_j, P_j)``, ``(b_k, Q_k)``,
``(c_l, R_l)``:

* ``doi(fgrid, E1, T, E2) = sum_{j,k}   fgrid[j,k]   P_j T Q_k``
* ``toi(fgrid, E1, T1, E2, T2, E3)
                          = sum_{j,k,l} fgrid[j,k,l] P_j T1 Q_k T2 R_l``

Both take the symbol ``Phi`` as its values on the atom grid, on which alone
an integral depends: ``fgrid[j, k, l] = Phi(a_j, b_k, c_l)``, as
:func:`grid_eval`, the one place here where a field meets a grid, returns
them for the measures' ``values``.

Both are evaluated in the concatenated eigenbases of the measures, where
the atom sums become Hadamard products; this is algebraically identical to
the literal sum over atoms and costs O(dim^3) regardless of atom count.
A measure's basis is a dense matrix or ``None``, the identity (see
:class:`~xplab.spectral.SpectralMeasure`); the change into and out of a
dense basis is a matrix product, and that of ``None`` is skipped.  An
operator argument ``T``, ``T1`` or ``T2`` is always a square matrix; the
identity is ``np.eye(dim)``.

A field (a symbol ``Phi`` or a function ``f`` of one, two or three real
variables) is any callable that takes numpy arrays and broadcasts them.
Every evaluation is one call on whole arrays, never a loop over points;
the caller knows how many variables it passes.  A field may be stacked:
on arrays of broadcast shape ``s`` its value has shape ``(k, ...) + s``.
Matrices and measures may carry leading member axes, which stack matrices of
one size: ``(m, n, n)``, with measure values and grid axes ``(m, atoms)``;
:func:`grid_eval` keeps them after a field's stack axes.  The functions here,
in :mod:`xplab.perturbation`, :func:`~xplab.spectral.apply_scalar`,
``singular_values`` and ``schatten_norm`` then give each field's and each
member's own result, bit for bit when the dtypes agree, from the code that
handles one: one change of basis, ``eigh`` and SVD for the stack.
"""

from __future__ import annotations

import numpy as np

from .hermitian import _real_or_complex, as_matrix
from .spectral import SpectralMeasure, _measure

__all__ = [
    "grid_eval",
    "doi",
    "toi",
    "func_calc_pair",
    "func_calc_triple",
    "s2_contraction_check",
]


def grid_eval(f, *axes) -> np.ndarray:
    """Evaluate a field on the Cartesian grid of the given 1-D axes.

    Makes one broadcast call on a sparse mesh; any exception raised by the
    field propagates.  Result has shape ``(len(axes[0]), ..., len(axes[-1]))``,
    after the stack axes of a stacked field and the member axes of the
    axes, and is complex128 when the field's value is complex, float64
    otherwise.  An axis of shape ``(..., len)`` keeps its leading member axes.
    """
    d = len(axes)
    mesh = [np.asarray(a, dtype=np.float64) for a in axes]
    mesh = [a.reshape(a.shape[:-1] + (1,) * i + (-1,) + (1,) * (d - 1 - i))
            for i, a in enumerate(mesh)]
    out = _real_or_complex(f(*mesh))
    lead = np.broadcast_shapes(out.shape[: max(out.ndim - d, 0)], *(m.shape[:-d] for m in mesh))
    shape = lead + tuple(m.shape[i - d] for i, m in enumerate(mesh))
    if out.shape != shape:
        out = np.broadcast_to(out, shape)
    return np.ascontiguousarray(out)


def _check_dim(name: str, got: int, want: int) -> None:
    if got != want:
        raise ValueError(f"dimension mismatch: {name} has dim {got}, expected {want}")


def _atom_grid(fgrid, *measures) -> np.ndarray:
    fgrid = np.asarray(fgrid)
    atoms = tuple(e.atom_count for e in measures)
    if fgrid.shape[-len(atoms):] != atoms:
        raise ValueError(f"symbol grid has shape {fgrid.shape}, expected the atom grid {atoms}")
    return fgrid


def _into_bases(e1: SpectralMeasure, x: np.ndarray, e2: SpectralMeasure) -> np.ndarray:
    """``e1.basis^H @ x @ e2.basis``, skipping a ``None`` basis; reads each ``basis`` once."""
    b1, b2 = e1.basis, e2.basis
    if b1 is not None:
        x = np.swapaxes(b1, -1, -2).conj() @ x
    return x if b2 is None else x @ b2


def _out_of_bases(e1: SpectralMeasure, y: np.ndarray, e2: SpectralMeasure) -> np.ndarray:
    """``e1.basis @ y @ e2.basis^H``, skipping a ``None`` basis; reads each ``basis`` once."""
    b1, b2 = e1.basis, e2.basis
    if b1 is not None:
        y = b1 @ y
    return y if b2 is None else y @ np.swapaxes(b2, -1, -2).conj()


def _operator(name: str, t, dim: int) -> np.ndarray:
    """``t`` as a square matrix of size ``dim``, or a stack of them."""
    tmat = as_matrix(t)
    _check_dim(name, tmat.shape[-1], dim)
    return tmat


def doi(fgrid, e1: SpectralMeasure, t, e2: SpectralMeasure, _overwrite_t: bool = False) -> np.ndarray:
    """Double operator integral ``sum fgrid[..., j, k] P_j T Q_k`` of the
    symbol's atom grid ``fgrid[..., j, k] = Phi(a_j, b_k)``, stacked or not.  Over
    ``None``-basis measures it is by definition the Schur product of ``T`` and the grid
    spread over the atoms' columns, so a check of that identity must permute atoms.  The
    product overwrites the changed ``T`` when it keeps its shape and dtype and the array is
    new, or is ``T`` handed over by ``_overwrite_t`` (scipy's ``overwrite_a``)."""
    tmat = _operator("T", t, e1.dim)
    _check_dim("E2", e2.dim, e1.dim)
    fgrid = _atom_grid(fgrid, e1, e2)
    fcols = fgrid[..., e1.columns, :][..., e2.columns]
    x = _into_bases(e1, tmat, e2)
    own = (x is not tmat or _overwrite_t) and np.result_type(fcols, x) == x.dtype
    own = own and np.broadcast_shapes(fcols.shape, x.shape) == x.shape
    return _out_of_bases(e1, np.multiply(fcols, x, out=x if own else None), e2)


def toi(fgrid, e1: SpectralMeasure, t1, e2: SpectralMeasure, t2, e3: SpectralMeasure) -> np.ndarray:
    """Triple operator integral ``sum fgrid[..., j, k, l] P_j T1 Q_k T2 R_l``.

    ``fgrid`` is the symbol's atom grid, ``Phi(a_j, b_k, c_l)``, stacked or
    not as in :func:`doi`; any such array will do, a strided view
    included, and it is only read.  Atom ``k`` of ``E2`` contributes the
    product of the columns of ``E1.basis^H T1 E2.basis`` and the rows of
    ``E2.basis^H T2 E3.basis`` that belong to it.
    """
    t1m = _operator("T1", t1, e1.dim)
    _check_dim("E2", e2.dim, e1.dim)
    t2m = _operator("T2", t2, e1.dim)
    _check_dim("E3", e3.dim, e1.dim)
    fgrid = _atom_grid(fgrid, e1, e2, e3)
    a1 = _into_bases(e1, t1m, e2)
    a2 = _into_bases(e2, t2m, e3)
    lead = np.broadcast_shapes(fgrid.shape[:-3], a1.shape[:-2], a2.shape[:-2])
    acc = np.zeros(lead + (e1.dim, e3.dim), dtype=np.result_type(fgrid, a1, a2))
    for k in range(e2.atom_count):
        cols = slice(e2.starts[k], e2.starts[k + 1])
        acc += fgrid[..., k, :][..., e1.columns, :][..., e3.columns] * (a1[..., cols] @ a2[..., cols, :])
    return _out_of_bases(e1, acc, e3)


def func_calc_pair(f, A, B) -> np.ndarray:
    """``f(A, B) = sum f(lam_j, mu_k) P_j Q_k`` for a pair of Hermitian
    matrices."""
    ea, eb = map(_measure, (A, B))
    return doi(grid_eval(f, ea.values, eb.values), ea, np.eye(ea.dim), eb)


def func_calc_triple(f, A, B, C) -> np.ndarray:
    """``f(A, B, C) = sum f(lam, mu, nu) E_A E_B E_C`` for a Hermitian
    triple."""
    ea, eb, ec = map(_measure, (A, B, C))
    eye = np.eye(ea.dim)
    return toi(grid_eval(f, ea.values, eb.values, ec.values), ea, eye, eb, eye, ec)


def s2_contraction_check(fgrid, e1: SpectralMeasure, e2: SpectralMeasure, t) -> tuple[float, float]:
    """Hilbert-Schmidt contraction of the double integral.

    Returns ``(lhs, rhs)`` with ``lhs = ||doi(fgrid, E1, T, E2)||_S2`` and
    ``rhs = max |fgrid| * ||T||_S2``, from the one grid; ``||M||_S2`` is the
    Frobenius norm ``sqrt(sum |m_ij|^2)``, so no SVD runs.  The contraction
    says ``lhs <= rhs``; the caller judges the pair against its own tolerance.
    Two floats, or two arrays for a stack, ``max |fgrid|`` taken per member.
    """
    tmat = as_matrix(t)
    # one contiguous row of |m_ij|^2 per matrix: a member of a stack sums as it would alone
    lhs, t_s2 = (np.sqrt(np.ravel(m.real**2 + m.imag**2).reshape(m.shape[:-2] + (-1,)).sum(-1))
                 for m in (doi(fgrid, e1, tmat, e2), tmat))
    rhs = np.abs(fgrid).max(axis=(-2, -1)) * t_s2
    return (lhs, rhs) if rhs.ndim else (float(lhs), float(rhs))
