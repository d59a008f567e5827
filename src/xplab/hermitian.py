"""Dense matrix numerics: Hermitian eigendecompositions, singular values
and Schatten norms.  It owns the rounding model of every certified bound,
:func:`_gamma` and :func:`_up` (Higham, *Accuracy and Stability*, ch. 3).

Everything here is a pure function of its inputs.  Matrices are plain
``numpy`` arrays except for :class:`HermitianMatrix`, a thin immutable
wrapper that guarantees exact Hermitian symmetry.

The dtype rule, real in, real out: an array with a complex input dtype is
kept as complex128, any other becomes float64.  Matrices, field values on
grids and coefficient families follow it, so real data gets real linear algebra.
"""

from __future__ import annotations

import math

import numpy as np

HERMITIAN_TOL = 1e-12
_U = 2.0**-53  # unit roundoff of float64
ULP_TRIG = 1  # np.sin errs by at most this many ulps on the certificates' arguments (audited in the tests)
_DOT_BLOCK = 64  # products per block of each row's dot in _s1_lower_bound

__all__ = [
    "HERMITIAN_TOL",
    "HermitianMatrix",
    "as_matrix",
    "singular_values",
    "schatten_norm",
]


class HermitianMatrix:
    """Square Hermitian matrix, float64 or complex128 by the dtype rule, or
    a stack ``(..., n, n)`` whose leading member axes hold matrices of one
    size ``dim = n``.

    The input must be finite and satisfy ``entries[..., j, k] ==
    conj(entries[..., k, j])`` within ``1e-12`` (max-entry deviation); the
    stored matrix is the exactly symmetrized ``H / 2 + H* / 2``, which
    cannot overflow, and is read-only.  It has no arithmetic: ``A.mat - B.mat``
    is already exactly Hermitian, bit for bit what a wrapper would store, and
    a real multiple is ``HermitianMatrix(s * H.mat)``.

    The private ``_measure`` slot holds the spectral measure once
    :func:`xplab.spectral.from_hermitian` has computed it.
    """

    __slots__ = ("_mat", "_measure")

    def __init__(self, entries) -> None:
        mat = _finite(as_matrix(entries))
        mat_h = np.swapaxes(mat, -1, -2).conj()
        deviation = float(np.max(np.abs(mat - mat_h))) if mat.size else 0.0
        if deviation > HERMITIAN_TOL:
            raise ValueError(
                f"matrix is not Hermitian: max |H - H*| = {deviation:.3e} "
                f"exceeds {HERMITIAN_TOL:.0e}"
            )
        self._store(mat / 2 + mat_h / 2)

    @classmethod
    def _symmetric(cls, mat: np.ndarray) -> "HermitianMatrix":
        """Wrap a fresh real or complex array, exactly Hermitian by
        construction.  ``H / 2 + H* / 2`` gives back such an array bit for
        bit (except for subnormal entries, whose halves round), so this
        stores what ``cls(mat)`` stores without the transpose check and that pass."""
        h = cls.__new__(cls)
        h._store(_finite(as_matrix(mat)))
        return h

    def _store(self, mat: np.ndarray) -> None:
        mat.setflags(write=False)
        self._mat = mat
        self._measure = None

    @property
    def mat(self) -> np.ndarray:
        """The underlying (read-only) float64 or complex128 array."""
        return self._mat

    @property
    def dim(self) -> int:
        return self._mat.shape[-1]

    @classmethod
    def wrap(cls, obj) -> "HermitianMatrix":
        """Coerce an array-like (or pass through a HermitianMatrix)."""
        if isinstance(obj, cls):
            return obj
        return cls(obj)

    def __repr__(self) -> str:  # pragma: no cover
        return f"HermitianMatrix(dim={self.dim})"


def _finite(mat: np.ndarray) -> np.ndarray:
    if not np.isfinite(mat).all():
        raise ValueError("matrix has a non-finite entry")
    return mat


def _real_or_complex(obj) -> np.ndarray:
    """``obj`` as an array, float64 or complex128 by the dtype rule."""
    arr = np.asarray(obj)
    return arr.astype(np.result_type(arr.dtype, np.float64), copy=False)


def _diagonal_matrices(d: np.ndarray) -> np.ndarray:
    """``np.diag(d)``, for each leading index of a stack ``d``."""
    out = np.zeros(d.shape + d.shape[-1:], dtype=d.dtype)
    np.einsum("...ii->...i", out)[...] = d
    return out


def as_matrix(obj) -> np.ndarray:
    """Return a float64 or complex128 array view of ``obj`` (HermitianMatrix
    or array), by the dtype rule: a square matrix, or a stack ``(..., n, n)``."""
    if isinstance(obj, HermitianMatrix):
        return obj.mat
    mat = _real_or_complex(obj)
    if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    return mat


def _eigh_checked(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        return np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        n = mat.shape[-1]
        raise RuntimeError(
            f"eigendecomposition did not converge for a {n}x{n} Hermitian matrix"
        ) from exc


def singular_values(M) -> np.ndarray:
    """Singular values of a square real or complex matrix, descending, or
    one row of them per matrix of a stack.

    Equal to the square roots of the eigenvalues of ``M* M``; computed by a
    direct SVD, which keeps the small singular values accurate to machine
    precision instead of ``sqrt(eps)``.
    """
    mat = as_matrix(M)
    if mat.size == 0:
        return np.zeros(mat.shape[:-1])
    try:
        return np.linalg.svd(mat, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        n = mat.shape[-1]
        raise RuntimeError(f"SVD did not converge for a {n}x{n} matrix") from exc


def schatten_norm(M, p):
    """Schatten p-norm ``(sum sigma_k^p)^(1/p)``; ``p = inf`` gives the
    operator norm (largest singular value).  Requires ``p >= 1``.  A float,
    or one norm per matrix of a stack."""
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise ValueError(f"Schatten exponent must satisfy p >= 1, got {p}")
    return _schatten(singular_values(M), p)


def _schatten(s: np.ndarray, p: float):
    """Schatten ``p``-norm from descending singular values ``s`` (last axis)."""
    if s.shape[-1] == 0:
        norm = np.zeros(s.shape[:-1])
    elif math.isinf(p):
        norm = s[..., 0]
    elif p == 1.0:
        norm = s.sum(axis=-1)
    elif p == 2.0:
        # Frobenius; sum of squares is cheaper and exact
        norm = np.sqrt((s * s).sum(axis=-1))
    else:
        # scale out the largest value so large p does not overflow; a zero
        # matrix keeps zeros, not 0 / 0
        smax = s[..., :1]
        scaled = np.divide(s, smax, out=np.zeros_like(s), where=smax != 0.0)
        total = (scaled**p).sum(axis=-1)
        # a scalar power per norm, as one matrix takes it: numpy's array power rounds otherwise
        norm = smax[..., 0] * np.reshape([t ** (1.0 / p) for t in np.ravel(total)], total.shape)
    return float(norm) if norm.ndim == 0 else norm


def _gamma(k: int) -> float:
    """``1.02 k u >= gamma_k = k u / (1 - k u)`` while ``k u < 0.019``: a sum or dot product
    of ``k`` terms, in any order, errs by at most ``gamma_k`` times the terms' magnitudes."""
    return 1.02 * k * _U


def _up(x: float, k: int = 0) -> float:
    """An upper bound on the exact value of ``x >= 0``, the result of one rounded step
    (``k = 0``) or of a sum or dot product of ``k`` terms, relative error ``<= gamma_k``."""
    return math.nextafter(x * (1.0 + 2.0 * _gamma(k)), math.inf)


def _s1_lower_bound(d: np.ndarray, x_blocks, x_norm: float) -> float:
    """A lower bound on ``||D||_S1`` by trace duality with a square witness ``X``,
    given ``x_norm >= ||X||_op``: ``||D||_S1 >= |tr(X^T D)| / ||X||_op``, with ``X``'s
    rows in the consecutive blocks that ``x_blocks`` yields.  The trace takes each row's
    dot in blocks of ``_DOT_BLOCK`` products, sums a row's blocks and adds the rows by
    ``math.fsum``, so it errs by at most ``gamma_k sum |X o D| + u |tr|``, ``k =
    _DOT_BLOCK + n // _DOT_BLOCK``.  Overwrites ``d`` with ``|D|`` and each block with
    its ``|X|``; beside ``d``, one block of ``X`` is live at a time."""
    n = d.shape[1]
    cut = n - n % _DOT_BLOCK
    rows, abs_dot, lo = [], 0.0, 0
    for x in x_blocks:
        db, lo = d[lo : lo + len(x)], lo + len(x)
        dots = np.einsum("ijk,ijk->ij", *(a[:, :cut].reshape(len(a), -1, _DOT_BLOCK) for a in (x, db)))
        rows += (dots.sum(axis=1) + np.einsum("ij,ij->i", x[:, cut:], db[:, cut:])).tolist()
        # the blocks' dots sum n^2 products in all, so gamma_{n^2} still bounds them
        abs_dot += float(np.vdot(np.abs(x, out=x), np.abs(db, out=db)))
        del x  # before the next block is made
    if lo != len(d):
        raise ValueError("the blocks of X must cover the rows of D")
    trace = abs(math.fsum(rows))
    slack = _up(_gamma(_DOT_BLOCK + n // _DOT_BLOCK) * _up(abs_dot, n * n))
    low = math.nextafter(trace - _up(slack + _up(_U * trace, 1)), -math.inf)
    return max(0.0, math.nextafter(low / x_norm, -math.inf))
