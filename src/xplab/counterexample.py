"""The trace-norm counterexample machinery.

Construction, for matrix size ``n``:

* ``A = C = diag(0, 2*pi, ..., 2*pi*(n-1))``;
* ``P`` the rank-one projection onto the uniform unit vector,
  ``B1 = 2*pi*P`` and ``B2 = 0``;
* ``f(x, y, z) = phi(x, z) * psi(y)`` where ``phi`` interpolates the
  upper-triangular 0/1 pattern on the lattice ``2*pi*(j, k)`` and
  ``psi = eta(. - 2*pi)`` satisfies ``psi(B1) = P``, ``psi(B2) = 0``.

Then ``f(A, B1, C) - f(A, B2, C) = U_n / n`` with ``U_n`` the matrix of
ones on and above the diagonal, whose trace norm grows like ``n log n``
while the perturbation ``B1 - B2`` has trace norm ``2*pi`` and
``sup |f| <= 1``.  Scaling ``g = eps f(./eps)`` on ``eps``-scaled operators
shrinks the perturbation while the trace-norm ratio keeps growing.  An
instance stores its inputs ``c_jk``, operators and ``eps``; ``n``, ``phi``,
``psi`` and ``sup |f|`` derive from them; its operators are O(n) spectral measures.

As ``f`` separates, :func:`difference_matrix` is the double integral
``doi(phi's atom grid, E_A, psi(B1) - psi(B2), E_C)``, checked against two triple
integrals in the tests and by ``verify``'s separated triple difference suite.

:func:`growth_ratio` bounds the difference's trace norm from below and
that of ``B1 - B2`` from above, so its ratio is a certified lower bound; it
runs no SVD or eigendecomposition, as the operators are spectral measures.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from numpy.lib.stride_tricks import sliding_window_view

from .hermitian import ULP_TRIG, _U, _gamma, _real_or_complex, _s1_lower_bound, _up
from .opint import grid_eval
from .perturbation import separated_difference
from .spectral import SpectralMeasure, _measure, rank_one

TWO_PI = 2.0 * math.pi
_ETA_SERIES_CUTOFF = 1e-3

__all__ = [
    "TWO_PI",
    "eta",
    "eta_periodized",
    "eta_field",
    "CoeffMatrix",
    "triangular_coeffs",
    "phi_from_coeffs",
    "sup_norm_estimate",
    "CounterexampleInstance",
    "build_instance",
    "difference_matrix",
    "triangular_witness",
    "certified_sup_norm",
    "measured_sup_norm",
    "growth_ratio",
    "check_matrix_budget",
    "closed_form_ratio",
    "scale_instance",
]


def eta(x):
    """The nonnegative bump ``2 (1 - cos x) / x^2``.

    Equals 1 at 0, vanishes to second order at every other multiple of
    ``2*pi``, stays in ``[0, 1]``, and its Fourier transform is the tent
    supported on ``[-1, 1]``.  Near 0 a Taylor series avoids the
    ``1 - cos`` cancellation.  The closed form is evaluated in place and
    the series only on the entries below the cutoff, so a large argument
    costs one extra array, not one per term.
    """
    xa = np.asarray(x, dtype=np.float64)
    small = np.abs(xa) < _ETA_SERIES_CUTOFF
    out = np.where(small, 1.0, xa)
    sq = out * out
    np.cos(out, out=out)
    np.subtract(1.0, out, out=out)
    out *= 2.0
    out /= sq
    del sq
    if small.any():
        x2 = xa[small] * xa[small]
        out[small] = 1.0 - x2 / 12.0 + x2 * x2 / 360.0
    return out[()]


def eta_periodized(x, period: float):
    """Periodization ``sum_m eta(x + period * m)`` in closed form.

    Requires ``period`` to be a positive multiple of ``2*pi``, in which case
    ``cos`` is period-invariant and the lattice sum of ``1/(x + P m)^2``
    collapses to ``(pi/P)^2 / sin^2(pi x / P)``.  Used to sample ``eta`` on
    finite grids without truncating its ``1/x^2`` tails, which keeps the
    sampled spectrum exactly inside the band ``[-1, 1]``.
    """
    p = float(period)
    if p <= 0 or abs(p / TWO_PI - round(p / TWO_PI)) > 1e-9:
        raise ValueError(f"period must be a positive multiple of 2*pi, got {period!r}")
    xa = np.asarray(x, dtype=np.float64)
    # reduce to the fundamental domain [-P/2, P/2)
    u = np.remainder(xa.ravel() + p / 2.0, p)
    u -= p / 2.0
    small = np.abs(u) < _ETA_SERIES_CUTOFF
    # (pi/P)^2 csc^2(pi u / P) - 1/u^2, regular at 0; series only below the cutoff
    safe = np.where(small, 1.0, u)
    bracket = np.sin(np.pi * safe / p)
    bracket = (np.pi / p) ** 2 / (bracket * bracket) - 1.0 / (safe * safe)
    if small.any():
        v2 = (np.pi * u[small] / p) ** 2
        bracket[small] = (np.pi / p) ** 2 * (1.0 / 3.0 + v2 / 15.0 + 2.0 * v2 * v2 / 189.0)
    bracket *= 2.0 * (1.0 - np.cos(u))
    bracket += eta(u)
    return bracket.reshape(xa.shape)[()]


def eta_field(shift: float = 0.0) -> Callable:
    """Shifted bump ``x -> eta(x - shift)``."""
    s = float(shift)
    return lambda x: eta(np.asarray(x, dtype=np.float64) - s)


@dataclass(frozen=True)
class CoeffMatrix:
    """Finite coefficient family ``{c_jk}`` with its sup norm, first attained at ``peak
    = (j, k)``; the entries are float64, or complex128 when the input is complex."""

    entries: np.ndarray
    sup_abs: float = field(init=False)
    peak: tuple = field(init=False)

    def __post_init__(self) -> None:
        self._adopt(np.array(_real_or_complex(self.entries)))

    @classmethod
    def _owning(cls, arr: np.ndarray) -> CoeffMatrix:
        """Wrap a fresh float64 or complex128 array that a builder hands over: no copy."""
        c = cls.__new__(cls)
        c._adopt(arr)
        return c

    def _adopt(self, arr: np.ndarray) -> None:
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("coefficient matrix must be 2-D and nonempty")
        arr.setflags(write=False)
        mags = np.abs(arr)
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "peak", divmod(int(mags.argmax()), arr.shape[1]))
        object.__setattr__(self, "sup_abs", float(mags[self.peak]))

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]


def triangular_coeffs(n: int) -> CoeffMatrix:
    """Coefficients ``c_jk = 1`` for ``j <= k``, else 0 (0-indexed, n x n)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return CoeffMatrix._owning(np.triu(np.ones((n, n))))


def _lattice(count: int) -> np.ndarray:
    return TWO_PI * np.arange(count, dtype=np.float64)


def phi_from_coeffs(c: CoeffMatrix) -> Callable:
    """Interpolant ``phi(x, y) = sum c_jk eta(x - 2 pi j) eta(y - 2 pi k)``.

    Interpolation is exact: ``phi(2 pi j, 2 pi k) = c_jk`` because the
    shifted bumps vanish on all other lattice points.  It takes scalars or
    a sparse mesh (one row axis before one column axis, as :func:`grid_eval`
    passes them), on which the evaluation is one bilinear GEMM, and raises
    ``ValueError`` on other arrays.

    On the lattice mesh itself, both axes bit for bit ``fl(2 pi j)``, it
    gathers: it returns a read-only view of the coefficients and runs no
    ``eta`` and no GEMM.  The GEMM gives the same bits there, for finite
    coefficients up to the sign of a zero: off the diagonal
    ``|fl(2 pi i) - fl(2 pi j) - 2 pi (i - j)| < 1e-8`` (``fl(2 pi j)`` errs by
    at most ``2 pi j u``, so for ``n`` up to several million), so ``1 - cos``
    rounds to 0 and the bump is exactly 0; on the diagonal the argument is
    exactly 0 and the series branch gives exactly 1.  The bump matrices are
    then exact identities.
    """
    lat_x = _lattice(c.rows)
    lat_y = _lattice(c.cols)
    entries = c.entries

    def fn(x, y):
        xa = np.asarray(x, dtype=np.float64)
        ya = np.asarray(y, dtype=np.float64)
        if not _outer_pattern(xa.shape, ya.shape):
            raise ValueError(f"not a sparse mesh: shapes {xa.shape} and {ya.shape}")
        shape = np.broadcast_shapes(xa.shape, ya.shape)
        if _on_lattice(xa, lat_x) and _on_lattice(ya, lat_y):
            return entries.reshape(shape)[()]
        bx = eta(xa[..., None] - lat_x)
        by = eta(ya[..., None] - lat_y)
        # scalars and sparse meshes of any rank reduce to one bilinear product
        out = (bx.reshape(-1, c.rows) @ entries) @ by.reshape(-1, c.cols).T
        return out.reshape(shape)[()]

    return fn


def _on_lattice(axis: np.ndarray, lattice: np.ndarray) -> bool:
    """Whether a float64 mesh axis holds exactly ``lattice``, bit for bit."""
    return axis.size == lattice.size and axis.tobytes() == lattice.tobytes()


def _outer_pattern(xshape: tuple, yshape: tuple) -> bool:
    """Whether ``x`` and ``y`` broadcast as an outer product: each has at
    most one non-singleton axis and ``x``'s comes before ``y``'s, so the
    broadcast result is the row-major ``(x.size, y.size)`` matrix."""
    ndim = max(len(xshape), len(yshape))
    xaxes = [i for i, s in enumerate(xshape, ndim - len(xshape)) if s != 1]
    yaxes = [i for i, s in enumerate(yshape, ndim - len(yshape)) if s != 1]
    return len(xaxes) <= 1 and len(yaxes) <= 1 and max(xaxes, default=-1) < min(yaxes, default=ndim)


def _grid_axis(radius: float, step: float) -> np.ndarray:
    if radius <= 0 or step <= 0:
        raise ValueError("grid radius and step must be positive")
    count = int(math.floor(2.0 * radius / step + 0.5)) + 1
    return -radius + step * np.arange(count)


_SUP_CHUNK = 512


def sup_norm_estimate(phi, grid_radius: float, grid_step: float) -> float:
    """Max of ``|phi|`` over the square grid ``[-R, R]^2`` with given step,
    evaluated in row chunks (a lower bound on ``sup |phi|``)."""
    axis = _grid_axis(grid_radius, grid_step)
    best = 0.0
    for lo in range(0, len(axis), _SUP_CHUNK):
        block = grid_eval(phi, axis[lo : lo + _SUP_CHUNK], axis)
        best = max(best, float(np.abs(block).max()))
    return best


@dataclass(frozen=True)
class CounterexampleInstance:
    """One size of the counterexample family, possibly ``eps``-scaled.

    The fields are the inputs, the operators as spectral measures: ``A = C`` the values
    ``2*pi*epsilon*j`` on the identity basis, ``B1`` the :func:`~xplab.spectral.rank_one`
    measure of ``2*pi*epsilon*P``, ``B2 = 0`` one atom at 0 on the identity basis.
    The properties derive from them, so a ``replace`` cannot leave one stale:
    ``n`` rows of ``coeffs``, ``phi`` their lattice interpolant (built on first
    read), ``psi`` the bump at ``2*pi``, and ``sup_bound = epsilon * sup |c_jk|``,
    exactly ``sup |f|``, certified by :func:`certified_sup_norm`.
    """

    coeffs: CoeffMatrix
    A: SpectralMeasure
    B1: SpectralMeasure
    B2: SpectralMeasure
    C: SpectralMeasure
    epsilon: float = 1.0

    @property
    def n(self) -> int:
        return self.coeffs.rows

    @functools.cached_property
    def phi(self) -> Callable:
        return phi_from_coeffs(self.coeffs)

    @property
    def psi(self) -> Callable:
        return eta_field(TWO_PI)

    @property
    def sup_bound(self) -> float:
        return self.epsilon * self.coeffs.sup_abs


def build_instance(n: int) -> CounterexampleInstance:
    """Assemble the size-``n`` instance (unscaled, ``epsilon = 1``)."""
    if n < 2:
        raise ValueError("instance size must be at least 2")
    lattice = SpectralMeasure(_lattice(n), None, np.arange(n + 1))
    return CounterexampleInstance(coeffs=triangular_coeffs(n), A=lattice, B1=rank_one(TWO_PI, np.ones(n)),
                                  B2=SpectralMeasure([0.0], None, [0, n]), C=lattice)


def difference_matrix(inst: CounterexampleInstance) -> np.ndarray:
    """``f(A, B1, C) - f(A, B2, C)`` by :func:`~xplab.perturbation.separated_difference`,
    on the factors ``eps phi(x/eps, z/eps)`` and ``psi(y/eps)`` of the scaled ``f``.
    The tests check it bit for bit against two :func:`~xplab.opint.func_calc_triple`
    calls, and ``verify``'s separated triple difference suite checks the identity."""
    e = inst.epsilon
    phi, psi = inst.phi, inst.psi
    if e != 1.0:
        phi = lambda x, z: e * inst.phi(np.asarray(x, dtype=np.float64) / e,
                                        np.asarray(z, dtype=np.float64) / e)
        psi = lambda y: inst.psi(np.asarray(y, dtype=np.float64) / e)
    return separated_difference(phi, psi, inst.A, inst.B1, inst.B2, inst.C)


def certified_sup_norm(inst: CounterexampleInstance) -> float:
    """Exact ``sup |f|``, which is ``inst.sup_bound = eps * max |c_jk|``; the one
    owner of that check, which ``growth`` runs once per size, in :func:`growth_ratio`.

    Upper bound: ``0 <= eta <= 1`` and the Fejer identity
    ``sum_j eta(x - 2 pi j) = 1`` give ``|phi| <= max |c_jk|`` and
    ``|psi| <= 1``, so ``|f| <= eps * max |c_jk|``.  Attained: ``phi``
    interpolates ``c_jk`` exactly and ``psi(2 pi) = eta(0) = 1``, so ``|f|``
    reaches the bound at the lattice point of the largest coefficient.  That
    value is checked in O(n^2) work; a mismatch beyond ``1e-12`` relative
    is a bug and raises ``AssertionError``.
    """
    c = inst.coeffs
    j, k = c.peak
    attained = (inst.epsilon * abs(complex(inst.phi(_lattice(c.rows)[j], _lattice(c.cols)[k])))
                * abs(float(inst.psi(TWO_PI))))
    if not abs(attained - inst.sup_bound) <= 1e-12 * inst.sup_bound:
        raise AssertionError(
            f"sup |f| certificate failed: |f| = {attained!r} at lattice point "
            f"({j}, {k}) but sup_bound = {inst.sup_bound!r}"
        )
    return inst.sup_bound


def measured_sup_norm(inst: CounterexampleInstance, step: float = math.pi / 8) -> float:
    """Grid estimate of ``sup |f|``, a lower bound; the tests use it as the
    independent cross-check of :func:`certified_sup_norm`.

    ``f = eps * phi(./eps) psi(./eps)`` splits over the grid
    ``[-2 pi n - pi, 2 pi n + pi]^2 x [0, 4 pi]`` (scaled by ``eps``), so the
    scan factors into the 2-D interpolant scan times the max of ``psi``.
    """
    radius = TWO_PI * inst.n + math.pi
    sup2 = sup_norm_estimate(inst.phi, radius, step)
    yaxis = np.arange(0.0, 4.0 * math.pi + step / 2.0, step)
    sup1 = float(np.abs(np.asarray(inst.psi(yaxis))).max())
    return inst.epsilon * sup2 * sup1


def _witness_g(n: int) -> np.ndarray:
    """``g`` of :func:`triangular_witness` at its ``3n - 1`` arguments ``m = q / 2``,
    odd ``q`` in ``[3 - 2n, 4n)``."""
    big = 2 * n + 1
    q = np.arange(3 - 2 * n, 4 * n, 2)
    r = np.remainder(np.stack((q, n * q)) + 2 * big, 4 * big) - 2 * big  # in [-2N, 2N)
    r = np.where(r > big, 2 * big - r, np.where(r < -big, -2 * big - r, r))
    den, num = np.sin(r * (math.pi / (2 * big)))
    return 2.0 * num * num / (big * den)


def triangular_witness(n: int) -> np.ndarray:
    """The polar factor ``X`` of ``U_n`` (ones on and above the diagonal) in
    closed form, Hankel plus Toeplitz: ``X[j, l] = g(j + l + 3/2) +
    g(l - j + 1/2)``, ``g(m) = 2 sin^2(n m pi / N) / (N sin(m pi / N))``,
    ``N = 2n + 1``.  ``X`` sums two strided views of ``g`` at its ``3n - 1``
    arguments.  Each ``sin(q pi / (2N))`` has its integer ``q`` reduced into
    ``[-N, N]``, so a small sine keeps full relative accuracy."""
    if n < 1:
        raise ValueError("need n >= 1")
    g = _witness_g(n)
    return sliding_window_view(g[n:], n) + sliding_window_view(g[: 2 * n - 1], n)[::-1]


def _witness_norm_bound(n: int) -> float:
    """A certified upper bound on ``||fl(X)||_op`` for ``fl(X) = triangular_witness(n)``,
    in O(n): the exact ``X`` is orthogonal, so ``||fl(X)||_op <= 1 + ||fl(X) - X||_F``.

    Each sine's integer argument reduction is exact, and ``fl(r fl(pi / (2N)))`` is
    ``x = r pi / (2N)`` times ``1 + theta``, ``|theta| <= gamma_3``.  As ``|r| <= N``,
    ``|x| <= pi / 2``, where ``|x| <= (pi / 2) |sin x|``, so the sine of the rounded
    argument is within ``(pi / 2) gamma_3`` of ``sin x`` relative, and ``np.sin`` adds
    ``ULP_TRIG`` ulps, at most ``2 ULP_TRIG u`` relative.  The square, ``N den`` and the
    quotient add ``gamma_3`` to ``g``, and each entry one rounding of its Hankel plus
    Toeplitz sum; so ``|fl(X) - X| <= kappa (|fl(g_H)| + |fl(g_T)|)`` entrywise, and
    ``||fl(X) - X||_F`` is at most ``kappa`` times the sum of the two Frobenius norms,
    each over ``2n - 1`` diagonals of length ``n - |i - (n - 1)|``.
    """
    g = _witness_g(n)
    gamma3 = _gamma(3)
    sine = 2.0 * ULP_TRIG * _U * (1.0 + 1.6 * gamma3) + 1.6 * gamma3  # pi / 2 < 1.6
    # |fl(g) / g - 1| <= (1 + sine)^2 (1 + gamma3) / (1 - sine) - 1; the factors 1.01 cover
    # the second-order terms, the division by 1 - that bound and the rounding of these lines
    rel = 1.01 * (3.0 * sine + gamma3)
    kappa = 1.01 * rel + _U
    lengths = n - np.abs(np.arange(2 * n - 1) - (n - 1))
    sq = g * g
    norms = [_up(math.sqrt(_up(float(np.dot(lengths, sq[lo : lo + 2 * n - 1])), 2 * n)))
             for lo in (n, 0)]
    return _up(1.0 + _up(kappa * _up(norms[0] + norms[1])))


def growth_ratio(inst: CounterexampleInstance) -> tuple[float, float, float]:
    """Certified ``(s1_diff, pert, ratio)`` for the ``D = f(A, B1, C) - f(A, B2, C)``
    of :func:`difference_matrix`, the separated double operator integral, with no
    SVD, eigendecomposition or Gram product: ``s1_diff <= ||D||_S1`` by trace duality
    with :func:`triangular_witness`, whose norm :func:`_witness_norm_bound` bounds in O(n);
    ``pert >= ||B1 - B2||_S1`` for the operators the measures define, which ``D`` is computed
    from: by the triangle inequality over rank-one terms, ``sum |value| ||V_col||^2`` over both
    measures' basis columns, ``2 pi ||v||^2`` on the instance (``v`` the last column of ``B1``'s
    reflector), each ``||V_col||^2`` a ``math.fsum`` of ``re^2 + im^2`` within ``gamma_3``;
    so ``ratio = s1_diff / (sup |f| * pert)`` is a lower bound, about ``30 sqrt(n) u``
    (``u = 2^-53``) relative below exact: 7.7e-14 at n = 512."""
    n = inst.n
    s1_diff = _s1_lower_bound(difference_matrix(inst), triangular_witness(n), _witness_norm_bound(n))
    terms = []
    for e in map(_measure, (inst.B1, inst.B2)):
        mags = np.abs(e.values)[e.columns]
        keep = np.flatnonzero(mags)
        cols = e.basis  # a reflector measure forms its basis on each read
        cols = np.ones((len(keep), 1)) if cols is None else cols[:, keep].T
        terms += [_up(m * _up(math.fsum((c.real**2 + c.imag**2).tolist()), 3))
                  for m, c in zip(mags[keep].tolist(), cols)]
    pert = _up(math.fsum(terms))
    den = _up(certified_sup_norm(inst) * pert)
    return s1_diff, pert, math.nextafter(s1_diff / den, -math.inf)


def check_matrix_budget(n: int) -> None:
    """Raise ``ValueError`` when :func:`growth_ratio` at size ``n`` cannot fit in physical memory:
    its numpy buffers peak at about ``3 n^2`` float64 (a test pins ``3.5 n^2``); it asks ``4 n^2``."""
    need = 4 * n * n * 8
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ValueError(f"the matrix path at size {n} needs {need / 1e9:.1f} GB "
                         f"(4 n^2 float64), over this machine's {have / 1e9:.1f} GB of memory")


def closed_form_ratio(inst: CounterexampleInstance) -> float:
    """Independent ratio path: ``||eps U_n / n||_S1`` over ``sup|f| * 2 pi eps``.

    The singular values of ``U_n`` are ``1 / (2 sin((2k+1) pi / (2(2n+1))))``
    for ``k = 0..n-1``, so the numerator costs O(n).  It reads ``inst.sup_bound``,
    so it is independent of the certificate that :func:`growth_ratio` runs.
    Raises ``ValueError`` unless ``inst.coeffs`` is the pattern ``c_jk = 1`` for
    ``j <= k``, else 0, the one difference ``U_n / n`` it knows.
    """
    n = inst.n
    k = np.arange(n)
    s1 = math.fsum(1.0 / (2.0 * np.sin((2 * k + 1) * math.pi / (2.0 * (2 * n + 1)))))
    if not np.array_equal(inst.coeffs.entries, ~np.tri(n, k=-1, dtype=bool)):
        raise ValueError("closed_form_ratio needs the triangular coefficients c_jk = [j <= k]")
    num = inst.epsilon / n * s1
    den = inst.sup_bound * (TWO_PI * inst.epsilon)
    return num / den


def scale_instance(inst: CounterexampleInstance, eps: float) -> CounterexampleInstance:
    """Rescale: ``g = eps f(./eps)`` on ``eps``-scaled operators (their measures' values).

    The trace norm of the difference and of ``B1 - B2`` both scale by
    exactly ``eps``, and so does ``sup_bound``, through ``epsilon``.
    """
    e = float(eps)
    if not (e > 0.0) or not math.isfinite(e):
        raise ValueError(f"scale must be a positive finite number, got {eps!r}")
    a = inst.A.scaled(e)
    return replace(inst, A=a, B1=inst.B1.scaled(e), B2=inst.B2.scaled(e),
                   C=a if inst.C is inst.A else inst.C.scaled(e), epsilon=inst.epsilon * e)
