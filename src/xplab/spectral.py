"""Finite atomic spectral measures and scalar functional calculus.

A spectral measure here is a finite list of atoms ``(value, projection)``
whose orthogonal projections resolve the identity.  The measure stores one
orthonormal basis of eigenvectors grouped by atom, or ``None`` when that
basis is the identity (a diagonal matrix with a sorted diagonal); the
projections themselves are never materialized, which keeps memory at one
``n x n`` basis at most even when every atom has rank one.
"""

from __future__ import annotations

import numpy as np

from .hermitian import HermitianMatrix, _diagonal_matrices, _eigh_checked, _real_or_complex

CLUSTER_TOL = 1e-8

__all__ = [
    "CLUSTER_TOL",
    "SpectralMeasure",
    "from_hermitian",
    "rank_one",
    "apply_scalar",
]


def _read_only(arr: np.ndarray) -> np.ndarray:
    # a view, so the caller's own array stays writable
    view = arr.view()
    view.setflags(write=False)
    return view


class SpectralMeasure:
    """Atomic spectral measure with finitely many atoms.

    ``basis`` is a dense unitary matrix (real orthogonal for real data),
    C-contiguous, whose columns are grouped by atom, or ``None``, which
    means the identity; atom ``j`` projects onto columns ``starts[j]`` to
    ``starts[j + 1]``, so the atom projections are orthogonal and sum to
    the identity.  A dense basis comes from ``eigh``, is a permutation
    matrix for an unsorted diagonal (see :func:`from_hermitian`), or is a
    Householder reflector (see :func:`rank_one`).  For a stack of members,
    ``values`` has shape ``(..., atoms)`` and ``basis`` ``(..., n, n)``, and
    the members share ``starts`` and ``columns``.  The constructor checks
    that every atom has positive rank and that atom values are finite and
    strictly increasing along the last axis; ``dim`` is ``starts[-1]``.
    ``values``, ``basis`` and ``starts`` are read-only views, so a measure
    can be shared.  ``columns``, computed once here, maps basis column ->
    owning atom: ``slice(None)`` when every atom has rank one, so indexing
    by it gives a view, and otherwise a read-only index array.
    """

    __slots__ = ("values", "basis", "starts", "dim", "columns")

    def __init__(self, values, basis, starts) -> None:
        self.values = _read_only(np.asarray(values, dtype=np.float64))
        self.starts = _read_only(np.asarray(starts, dtype=np.intp))
        if len(self.starts) != self.values.shape[-1] + 1:
            raise ValueError("starts must have one more entry than values")
        if self.starts[0] != 0:
            raise ValueError("starts must run from 0 to dim")
        self.dim = int(self.starts[-1])
        self.basis = None
        if basis is not None:
            self.basis = _read_only(np.ascontiguousarray(basis))
            if self.basis.shape[-2:] != (self.dim, self.dim):
                raise ValueError("basis must be a square matrix of size dim")
        ranks = self.starts[1:] - self.starts[:-1]
        if (ranks <= 0).any():
            raise ValueError("every atom must have positive rank")
        if not np.isfinite(self.values).all():
            raise ValueError("atom values must be finite")
        if (self.values[..., 1:] - self.values[..., :-1] <= 0).any():
            raise ValueError("atom values must be strictly increasing")
        self.columns = (slice(None) if self.atom_count == self.dim
                        else _read_only(np.repeat(np.arange(self.atom_count), ranks)))

    @property
    def atom_count(self) -> int:
        return self.values.shape[-1]

    def __repr__(self) -> str:  # pragma: no cover
        return f"SpectralMeasure(dim={self.dim}, atoms={self.atom_count})"


def from_hermitian(H) -> SpectralMeasure:
    """Spectral measure of a Hermitian matrix.

    Sorted eigenvalues whose gap is at most ``CLUSTER_TOL`` are merged into
    one atom whose value is the cluster mean and whose projection sums the
    corresponding rank-one projectors.  A diagonal ``H`` needs no ``eigh``:
    its eigenvalues are the stably sorted diagonal.  When the diagonal is
    already sorted the basis is the identity and the measure stores
    ``None``; otherwise it stores the exact permutation matrix
    ``np.eye(n)[:, order]`` of the sort order ``order``.  Any other ``H`` is
    diagonalised by ``eigh``.

    A stack gets one batched ``eigh``, or the diagonal path when every member
    is diagonal: ``None`` when every member is sorted, else each member's
    permutation matrix.  Each member gets its own measure bit for bit when all
    take one path and share one basis kind.  Members must share their atoms
    (clusters of sorted eigenvalues), or ``ValueError`` is raised.

    There is one measure per :class:`HermitianMatrix`: the first call
    stores it on the matrix and later calls return that same, read-only
    object.  An array argument is wrapped afresh, so it is diagonalised on
    every call.
    """
    return _stored_measure(HermitianMatrix.wrap(H))


def _measure(H) -> SpectralMeasure:
    """:func:`from_hermitian`; a stack skips the name, whose perfbench trace reads one matrix."""
    h = HermitianMatrix.wrap(H)
    return from_hermitian(h) if h.mat.ndim == 2 else _stored_measure(h)


def _stored_measure(h: HermitianMatrix) -> SpectralMeasure:
    if h._measure is not None:
        return h._measure
    mat = h.mat
    n = mat.shape[-1]
    if n == 0:
        raise ValueError("empty matrix has no spectral measure")
    w = np.diagonal(mat, axis1=-2, axis2=-1)
    if np.count_nonzero(mat) == np.count_nonzero(w):
        w, v = w.real, None
        if np.any(w[..., 1:] < w[..., :-1]):
            order = np.argsort(w, axis=-1, kind="stable")
            w, v = np.take_along_axis(w, order, -1), np.swapaxes(np.eye(n)[order], -1, -2)
    else:
        w, v = _eigh_checked(mat)
    split = (w[..., 1:] - w[..., :-1] > CLUSTER_TOL).reshape(w[..., 0].size, n - 1)
    if (split != split[:1]).any():  # [:1] also fits a stack of no members
        raise ValueError("members of a stack must share their atoms; these cluster differently")
    starts = np.concatenate(([0], np.flatnonzero(split[:1]) + 1, [n]))
    # float ranks: an int divisor runs numpy's int-to-float cast, 0.2 MB more peak RSS in verify
    values = np.add.reduceat(w, starts[:-1], axis=-1) / np.add.reduceat(np.ones(n), starts[:-1])
    h._measure = SpectralMeasure(values, v, starts)
    return h._measure


def rank_one(r: float, v) -> HermitianMatrix:
    """``r * (outer(v, v) / |v|^2)`` with its measure attached, so
    :func:`from_hermitian` runs no ``eigh``: atoms ``0`` (rank ``n - 1``) and
    ``r``, and as basis the O(n^2) Householder reflector ``I - 2 w w^T / |w|^2``,
    ``w = e_{n-1} + s v/|v|``, ``s`` the sign of ``v[-1]``, which maps
    ``e_{n-1}`` to ``-s v/|v|``.  Needs ``n >= 2``, a finite nonzero ``v`` and
    ``r > CLUSTER_TOL``, so the atoms are those :func:`from_hermitian` finds."""
    v = np.asarray(v, dtype=np.float64)
    r = float(r)
    vv = float(v @ v) if v.ndim == 1 and len(v) >= 2 else 0.0
    if not (0.0 < vv < np.inf and CLUSTER_TOL < r < np.inf):
        raise ValueError("need r > CLUSTER_TOL and a finite nonzero v of length >= 2")
    h = HermitianMatrix._symmetric(r * (np.outer(v, v) / vv))
    w = v * (np.copysign(1.0, v[-1]) / np.sqrt(vv))
    w[-1] += 1.0
    basis = np.outer(w, w * (-2.0 / float(w @ w)))
    basis.flat[:: len(v) + 1] += 1.0
    h._measure = SpectralMeasure([0.0, r], basis, [0, len(v) - 1, len(v)])
    return h


def apply_scalar(E: SpectralMeasure, g) -> np.ndarray:
    """Scalar functional calculus ``sum g(value_j) P_j``.

    ``g`` is called once, on the array of atom values, and must broadcast;
    a scalar result (a constant function) applies to every atom, and a
    stacked ``g`` or a stacked measure gives the stack of matrices.  Errors raised by ``g``
    propagate unchanged.  The result is exactly Hermitian whenever ``g`` is
    real on the atom values.  It is float64 when the values of ``g`` and
    the basis are real, complex128 otherwise (the dtype rule of
    :mod:`xplab.hermitian`).  Basis columns whose ``g`` is zero in every
    member are dropped before the product, so an atom where ``g`` vanishes
    costs nothing: on the instance's ``B1`` the product is one outer product.
    """
    gvals = _real_or_complex(g(E.values))
    if gvals.shape[-1:] != (E.atom_count,):
        gvals = np.broadcast_to(gvals, gvals.shape[:-1] + (E.atom_count,))
    gvals = gvals[..., E.columns]
    if E.basis is None:
        return _diagonal_matrices(gvals)
    keep = np.any(gvals != 0, axis=tuple(range(gvals.ndim - 1)))
    V, gvals = (E.basis, gvals) if keep.all() else (E.basis[..., keep], gvals[..., keep])
    out = (V * gvals[..., None, :]) @ np.swapaxes(V, -1, -2).conj()
    sym = (out + np.swapaxes(out, -1, -2).conj()) / 2
    if gvals.dtype.kind != "c":
        return sym
    # each field of a stack is tested for realness on its own
    return np.where(np.all(gvals.imag == 0.0, axis=-1)[..., None, None], sym, out)
