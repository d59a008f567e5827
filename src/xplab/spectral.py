"""Finite atomic spectral measures and scalar functional calculus.

A spectral measure here is a finite list of atoms ``(value, projection)``
whose orthogonal projections resolve the identity.  Internally the measure
stores one orthonormal basis of eigenvectors grouped by atom (from
``eigh``, or a Householder reflector for a rank-one matrix), or for a
diagonal matrix only the permutation that sorts its diagonal; dense
projections are materialized on demand, which keeps memory linear in the
dimension even when every atom has rank one.
"""

from __future__ import annotations

import numpy as np

from .hermitian import HermitianMatrix, _eigh_checked, _real_or_complex

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

    Invariants: ``basis`` is unitary (real orthogonal for real data), so
    the atom projections are orthogonal and sum to the identity; every atom
    has positive rank; atom values are finite and strictly increasing.  The
    constructor checks the last two; ``basis`` comes from ``eigh``, is a
    permutation when ``H`` is diagonal (see :func:`from_hermitian`), or is
    a Householder reflector (see :func:`rank_one`).
    ``values``, ``basis`` (C-contiguous) and ``starts`` are read-only
    views, so a measure can be shared, and the column -> atom map is
    computed once, here.

    A measure is given exactly one of ``basis`` (a dense unitary matrix)
    and ``perm`` (a permutation basis).  ``perm`` is ``None`` for a dense
    basis.  For a permutation basis it is the row of the one in each column,
    ``basis[perm[j], j] == 1``, and ``perm_inv`` is its inverse, so
    ``basis^H @ X == X[perm]``, ``X @ basis == X[:, perm]``,
    ``basis @ Y == Y[perm_inv]`` and ``Y @ basis^H == Y[:, perm_inv]``.
    Both are computed once, here, as read-only index arrays, or as
    ``slice(None)`` when the permutation is the identity, so that gathering
    by it is a view, not a copy.  The constructor checks in O(dim) that
    ``perm`` is a permutation of ``0..dim-1``.  Such a measure stores no
    matrix: ``basis`` is built from ``perm`` the first time it is read
    (by :func:`apply_scalar`, :meth:`projection` or :attr:`atoms`) and kept.
    """

    __slots__ = ("values", "starts", "dim", "perm", "perm_inv", "_basis", "_col_atom")

    def __init__(self, values, basis, starts, perm=None) -> None:
        if (basis is None) == (perm is None):
            raise ValueError("give exactly one of basis and perm")
        self.values = _read_only(np.asarray(values, dtype=np.float64))
        self.starts = _read_only(np.asarray(starts, dtype=np.intp))
        self.perm = self.perm_inv = self._basis = None
        if perm is None:
            self._basis = _read_only(np.ascontiguousarray(basis))
            if self._basis.ndim != 2 or self._basis.shape[0] != self._basis.shape[1]:
                raise ValueError("basis must be a square matrix")
            self.dim = int(self._basis.shape[0])
        else:
            self._set_perm(np.asarray(perm))
        if len(self.starts) != len(self.values) + 1:
            raise ValueError("starts must have one more entry than values")
        if self.starts[0] != 0 or self.starts[-1] != self.dim:
            raise ValueError("starts must run from 0 to dim")
        if np.any(np.diff(self.starts) <= 0):
            raise ValueError("every atom must have positive rank")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("atom values must be finite")
        if np.any(np.diff(self.values) <= 0):
            raise ValueError("atom values must be strictly increasing")
        self._col_atom = _read_only(np.repeat(np.arange(self.atom_count), self.ranks))

    def _set_perm(self, perm: np.ndarray) -> None:
        n = len(perm) if perm.ndim == 1 else -1
        if (n < 1 or perm.dtype.kind not in "iu"
                or perm.min() < 0 or perm.max() >= n):
            raise ValueError("perm must be a permutation of 0..dim-1")
        cols = np.arange(n)
        inv = np.full(n, -1, dtype=np.intp)
        inv[perm] = cols
        if np.any(inv < 0):
            raise ValueError("perm must be a permutation of 0..dim-1")
        self.dim = n
        if np.array_equal(perm, cols):
            self.perm = self.perm_inv = slice(None)
        else:
            self.perm, self.perm_inv = _read_only(perm.astype(np.intp, copy=False)), _read_only(inv)

    @property
    def basis(self) -> np.ndarray:
        """The orthonormal eigenbasis, columns grouped by atom (read-only)."""
        if self._basis is None:
            cols = np.arange(self.dim)
            basis = np.zeros((self.dim, self.dim))
            basis[cols[self.perm], cols] = 1.0
            self._basis = _read_only(basis)
        return self._basis

    @property
    def atom_count(self) -> int:
        return len(self.values)

    @property
    def ranks(self) -> np.ndarray:
        return np.diff(self.starts)

    def column_atom_index(self) -> np.ndarray:
        """Map basis column -> index of the atom owning it (read-only)."""
        return self._col_atom

    def projection(self, j: int) -> np.ndarray:
        """Dense orthogonal projection of atom ``j``."""
        cols = self.basis[:, self.starts[j] : self.starts[j + 1]]
        return cols @ cols.conj().T

    @property
    def atoms(self) -> list[tuple[float, np.ndarray]]:
        """Materialized ``(value, projection)`` pairs."""
        return [(float(self.values[j]), self.projection(j)) for j in range(self.atom_count)]

    def __repr__(self) -> str:  # pragma: no cover
        return f"SpectralMeasure(dim={self.dim}, atoms={self.atom_count})"


def from_hermitian(H) -> SpectralMeasure:
    """Spectral measure of a Hermitian matrix.

    Sorted eigenvalues whose gap is at most ``CLUSTER_TOL`` are merged into
    one atom whose value is the cluster mean and whose projection sums the
    corresponding rank-one projectors.  A diagonal ``H`` needs no ``eigh``:
    its eigenvalues are the stably sorted diagonal and the measure stores
    only that sort order, as its ``perm`` (``slice(None)`` when the diagonal
    is already sorted), so operator integrals gather by it and no ``n x n``
    basis is built unless a caller reads it.  A measure from ``eigh`` has
    ``perm = None``.

    There is one measure per :class:`HermitianMatrix`: the first call
    stores it on the matrix and later calls return that same, read-only
    object.  An array argument is wrapped afresh, so it is diagonalised on
    every call.
    """
    h = HermitianMatrix.wrap(H)
    if h._measure is not None:
        return h._measure
    mat = h.mat
    if len(mat) == 0:
        raise ValueError("empty matrix has no spectral measure")
    if np.count_nonzero(mat) == np.count_nonzero(mat.diagonal()):
        d = mat.diagonal().real
        perm = np.argsort(d, kind="stable")
        w, v = d[perm], None
    else:
        w, v = _eigh_checked(mat)
        perm = None
    starts = np.concatenate(([0], np.flatnonzero(np.diff(w) > CLUSTER_TOL) + 1, [len(w)]))
    values = np.add.reduceat(w, starts[:-1]) / np.diff(starts)
    h._measure = SpectralMeasure(values, v, starts, perm)
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
    a scalar result (a constant function) applies to every atom.  Errors
    raised by ``g`` propagate unchanged.  The result is exactly Hermitian
    whenever ``g`` is real on the atom values.  It is float64 when the
    values of ``g`` and the basis are real, complex128 otherwise (the
    dtype rule of :mod:`xplab.hermitian`).
    """
    gvals = np.broadcast_to(_real_or_complex(g(E.values)), (E.atom_count,))
    out = (E.basis * gvals[E.column_atom_index()]) @ E.basis.conj().T
    if np.all(gvals.imag == 0.0):
        out = (out + out.conj().T) / 2
    return out

