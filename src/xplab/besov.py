"""Numerical homogeneous Besov machinery: dyadic windows, Littlewood-Paley
pieces of sampled functions, and the weighted-sup-norm estimate

    sum over n of  2^n * sup |f * W_n|,

where ``F W_n = w(||xi|| / 2^n)`` and ``w`` is a smooth bump on ``[1/2, 2]``
satisfying ``w(s) = 1 - w(s/2)`` on ``[1, 2]``, so the dilates form a
partition of unity on the punctured frequency space.  The window is the
fixed function :func:`window`.  The estimate sums the pieces
``-20 <= n <= min(5, floor(log2(nyquist)) - 1)``, that is every piece up to
``n = 5`` whose band ``[2^(n-1), 2^(n+1)]`` the grid resolves, and adds the
low-frequency tail term ``2^-20 * sup |f|``.

Sampled functions live on uniform power-of-two grids; pieces are computed
with FFTs.  Three-variable product functions ``f(x, y, z) = phi(x, z) psi(y)``
are handled without ever materializing a 3-D sample tensor: the middle
frequencies are grouped into shells of equal ``|xi_2|``, which share one
radial multiplier, so each piece takes one 2-D inverse transform per shell
plus a small dense transform along the middle axis.  The first pass of
that transform runs only on the columns the window reaches, and the
product along the middle axis runs only on the plane rows that a certified
bound, from each shell's row maxima, cannot rule out.  The factors are
real, so the plane takes
``rfft2``/``irfft2`` and the products along the middle axis are real;
dense samples may be real or complex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hermitian import _gamma, _up

__all__ = [
    "window",
    "SampledField",
    "SeparableField3",
    "BesovBreakdown",
    "besov_breakdown",
    "check_slice_budget",
    "check_dense_budget",
    "bandlimit_check",
]


def _glue(t: np.ndarray) -> np.ndarray:
    # smooth step: 0 for t <= 0, 1 for t >= 1, flat at both ends
    t = np.asarray(t, dtype=np.float64)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        a = np.where(t > 0.0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        b = np.where(t < 1.0, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return a / (a + b)


def window(s):
    """Dyadic frequency window ``w``: ``h(s)`` on ``[1/2, 1]``,
    ``1 - h(s/2)`` on ``(1, 2]`` and zero elsewhere, for the smooth
    increasing ``exp(-1/t)`` glue profile ``h(s) = _glue(2s - 1)``.  This
    makes ``w(s) + w(s/2) = 1`` on ``[1, 2]`` exact by construction.
    """
    sa = np.asarray(s, dtype=np.float64)
    scalar = sa.ndim == 0
    sa = np.atleast_1d(sa)
    out = np.zeros_like(sa)
    rising = (sa >= 0.5) & (sa <= 1.0)
    falling = (sa > 1.0) & (sa <= 2.0)
    out[rising] = _glue(2.0 * (sa[rising] - 0.5))
    out[falling] = 1.0 - _glue(2.0 * (sa[falling] / 2.0 - 0.5))
    return out[0] if scalar else out


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


class _Grid:
    """Uniform Cartesian grid: axis ``i`` holds ``shape[i]`` points
    ``starts[i] + k * steps[i]``."""

    @property
    def d(self) -> int:
        return len(self.shape)

    def freq_axis(self, i: int) -> np.ndarray:
        """Angular frequencies of the DFT along axis ``i``."""
        return 2.0 * np.pi * np.fft.fftfreq(self.shape[i], d=self.steps[i])

    def nyquist(self) -> float:
        return min(np.pi / s for s in self.steps)

    def require_transformable(self) -> None:
        if not all(_is_pow2(n) for n in self.shape):
            raise ValueError(
                f"grid admits a discrete transform only for power-of-two "
                f"sample counts, got shape {self.shape}"
            )


@dataclass(frozen=True)
class SampledField(_Grid):
    """Finite samples of a function on a uniform Cartesian grid of shape
    ``samples.shape``; a NaN or infinite sample raises ``ValueError``."""

    starts: tuple
    steps: tuple
    samples: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.samples)
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "starts", tuple(float(s) for s in self.starts))
        object.__setattr__(self, "steps", tuple(float(s) for s in self.steps))
        if arr.ndim != len(self.starts) or arr.ndim != len(self.steps):
            raise ValueError("starts/steps must match the sample array rank")
        if arr.ndim not in (1, 2, 3):
            raise ValueError("only 1-, 2- or 3-dimensional grids are supported")
        if any(s <= 0 for s in self.steps):
            raise ValueError("grid steps must be positive")
        if not np.isfinite(arr).all():
            raise ValueError("samples must be finite")

    @property
    def shape(self) -> tuple:
        return self.samples.shape

    def sup_abs(self) -> float:
        return float(np.abs(self.samples).max())


@dataclass(frozen=True)
class SeparableField3(_Grid):
    """Implicit 3-D product ``f[ix, iy, iz] = plane[ix, iz] * line[iy]``.

    ``plane`` is a 2-D sampled field on the (x, z) axes and ``line`` a 1-D
    field on the middle (y) axis, both real; ``starts``, ``steps`` and
    ``shape`` are those of the (x, y, z) grid.
    """

    plane: SampledField
    line: SampledField

    def __post_init__(self) -> None:
        if self.plane.d != 2 or self.line.d != 1:
            raise ValueError("need a 2-D plane factor and a 1-D line factor")
        if np.iscomplexobj(self.plane.samples) or np.iscomplexobj(self.line.samples):
            raise ValueError("separable factors must be real")
        for name in ("starts", "steps", "shape"):
            p, l = getattr(self.plane, name), getattr(self.line, name)
            object.__setattr__(self, name, (p[0], l[0], p[1]))

    def sup_abs(self) -> float:
        return float(np.abs(self.plane.samples).max() * np.abs(self.line.samples).max())


def _radius2(f: SampledField) -> np.ndarray:
    """Squared norm ``||xi||^2`` of the grid frequencies, as a sparse mesh sum."""
    mesh = np.meshgrid(*(f.freq_axis(i) for i in range(f.d)), indexing="ij", sparse=True)
    return sum(m * m for m in mesh)


# the piece range of every estimate; the tail term is 2^_N_MIN * sup |f|
_N_MIN = -20
_N_MAX = 5


@dataclass(frozen=True)
class BesovBreakdown:
    """Suprema of the pieces ``-20 <= n <= min(5, floor(log2(nyquist)) - 1)``,
    the tail bound ``2^-20 * sup |f|``, and their ``2^n``-weighted total."""

    piece_sup: dict
    tail_bound: float
    sup_abs: float

    @property
    def total(self) -> float:
        return float(sum(2.0**n * s for n, s in self.piece_sup.items()) + self.tail_bound)


def _dense_breakdown(f: SampledField, pieces: range) -> dict:
    fhat = np.fft.fftn(f.samples)
    radius = np.sqrt(_radius2(f))
    sups = {}
    for n in pieces:
        mult = window(radius / 2.0**n)
        sups[n] = float(np.abs(np.fft.ifftn(fhat * mult)).max()) if mult.any() else 0.0
    return sups


_SLICE_FLOOR = 1e-13
_SLICE_BYTES_BUDGET = 1_400_000_000


def _separable_piece_sup(
    phat: np.ndarray,
    rr: np.ndarray,
    xi2: np.ndarray,
    g: np.ndarray,
    shape: tuple,
    n: int,
) -> float:
    """Sup of one 3-D piece of a product field, one ``|xi_2|`` shell at a time.

    Shell ``j`` gathers the active middle frequencies with ``|xi_2| =
    |xi2[j]|``; they share the radial multiplier ``window(sqrt(rr + xi2[j]^2)
    / 2^n)``, where ``rr`` holds ``xi_1^2 + xi_3^2`` on the plane's spectrum.
    The piece is ``sum_j S_j(x, z) g[y, j]``, where ``S_j`` is the 2-D
    inverse transform of ``phat`` times that multiplier and column ``j`` of
    ``g`` is the inverse DFT of the line spectrum restricted to the shell.
    ``rr`` runs from 0 (the origin) to ``rr.max()``, so the shell's radii
    run from ``|xi2[j]|`` to ``sqrt(rr.max() + xi2[j]^2)``; a shell whose
    range misses the window's support ``[2^(n-1), 2^(n+1)]`` is skipped
    unevaluated.  The factors are real: ``phat`` is the ``rfft2`` half
    spectrum, ``S_j`` is its ``irfft2`` and ``g`` is real, so the final
    product along the middle axis is real.

    ``irfft2`` is an ``ifft`` down the columns followed by an ``irfft``
    along the rows.  Row 0 of ``rr`` is ``xi_3^2``, ascending, and no row
    lies below it, so every half-spectrum column past the last one whose
    row-0 radius is within ``2^(n+1)`` is zero; the window and the first
    pass run on the leading columns only, into one zeroed half-spectrum
    buffer whose rest stays zero, and the row pass runs on that buffer.
    ``fftfreq`` is odd, so rows ``i`` and ``nx - i`` of ``rr`` are bitwise
    equal: the window runs on rows ``0 .. nx/2`` and is mirrored.
    The product along the middle axis runs one plane row ``x`` at a time,
    only on rows that may hold the sup: the row maxima
    ``M_j(x) = max_z |S_j(x, z)|`` give ``bound(x) = sum_j max_y |g[y, j]|
    M_j(x)``; the row of largest bound gives ``best``, and every row with
    ``bound * margin >= best`` runs, ties included, for ``margin`` at least
    ``(1 + gamma_k) / (1 - gamma_k)`` over ``k`` shells: a computed ``k``-term
    product is at most ``(1 + gamma_k)`` times the true ``sum |g||S|`` and the
    computed bound at least ``(1 - gamma_k)`` times the true one.  The sup is
    bitwise that of a full ``irfft2`` and every row.
    """
    scale = 2.0**n
    rr_max = rr.max()
    stack = np.empty((len(xi2),) + shape, dtype=g.dtype)
    rowmax = np.empty((len(xi2), shape[0]))
    half = np.zeros(phat.shape, dtype=phat.dtype)
    width = 0  # leading columns of half written by the last shell
    top = shape[0] // 2 + 1  # rows i and nx - i of rr are equal
    cols = []
    for j, x2 in enumerate(xi2):
        if np.sqrt(rr_max + x2 * x2) < scale / 2.0 or abs(x2) > 2.0 * scale:
            continue
        reach = int(np.count_nonzero(np.sqrt(rr[0] + x2 * x2) / scale <= 2.0))
        upper = window(np.sqrt(rr[:top, :reach] + x2 * x2) / scale)
        if not upper.any():
            continue
        mult = np.concatenate((upper, upper[-2:0:-1]))
        half[:, reach:width] = 0.0
        half[:, :reach] = np.fft.ifft(phat[:, :reach] * mult, axis=0)
        width = reach
        stack[len(cols)] = np.fft.irfft(half, n=shape[1], axis=1)
        rowmax[len(cols)] = np.abs(stack[len(cols)]).max(axis=1)
        cols.append(j)
    k = len(cols)
    if k == 0:
        return 0.0
    gs = g[:, cols]
    bound = np.abs(gs).max(axis=0) @ rowmax[:k]
    first = int(np.argmax(bound))
    best = _row_sup(gs, stack[:k], first)
    keep = np.flatnonzero(bound * _up((1.0 + _gamma(k)) / (1.0 - _gamma(k)), 3) >= best)
    return max([best] + [_row_sup(gs, stack[:k], x) for x in keep if x != first])


def _row_sup(gs: np.ndarray, planes: np.ndarray, x: int) -> float:
    """Sup over plane row ``x`` of the piece ``sum_j gs[y, j] planes[j, x, z]``."""
    return float(np.abs(gs @ planes[:, x, :]).max())


def _active_bins(lhat: np.ndarray, plane_shape: tuple) -> np.ndarray:
    """Middle-frequency bins of the line spectrum ``lhat`` with nonnegligible
    weight; raises ``ValueError`` when their slices of a plane of
    ``plane_shape`` exceed the slice budget.  Building ``g`` holds up to two ``len(lhat) x
    len(active)`` complex matrices, so each active bin also counts three line lengths."""
    active = np.flatnonzero(np.abs(lhat) > _SLICE_FLOOR * max(np.abs(lhat).max(), 1e-300))
    need = len(active) * (math.prod(plane_shape) + 3 * len(lhat)) * 16
    if need > _SLICE_BYTES_BUDGET:
        nx, nz = plane_shape
        raise ValueError(
            f"separable Besov pieces need {need / 1e9:.1f} GB for {len(active)} "
            f"middle-frequency slices of the {nx} x {nz} plane and a {len(lhat)}-sample "
            f"middle axis, over the {_SLICE_BYTES_BUDGET / 1e9:.1f} GB budget"
        )
    return active


def check_slice_budget(line: SampledField, plane_shape: tuple) -> None:
    """Raise ``ValueError`` when the Besov pieces of a :class:`SeparableField3`
    with this middle line and a plane of ``plane_shape`` exceed the slice
    budget, the check :func:`besov_breakdown` makes first.  It reads the line
    only, so a caller can make it before sampling the plane."""
    _active_bins(np.fft.fft(line.samples), plane_shape)


# peak bytes per grid point of a dense field's sampling, Besov pieces and
# band-limit mass: `besov --fn phi_tri:300`, a 4096 x 4096 plane, peaks at
# 1.39e9 bytes of RSS (x86-64, numpy with pocketfft), 83 bytes per point
_DENSE_BYTES_PER_POINT = 83


def check_dense_budget(shape: tuple) -> None:
    """Raise ``ValueError`` when a dense :class:`SampledField` of ``shape``
    would need more than the slice budget; it reads the shape only, so a
    caller can make it before sampling."""
    need = math.prod(shape) * _DENSE_BYTES_PER_POINT
    if need > _SLICE_BYTES_BUDGET:
        raise ValueError(
            f"dense Besov pieces of the {' x '.join(map(str, shape))} grid need about "
            f"{need / 1e9:.1f} GB, over the {_SLICE_BYTES_BUDGET / 1e9:.1f} GB budget"
        )


def _separable_breakdown(f: SeparableField3, pieces: range) -> dict:
    lhat = np.fft.fft(f.line.samples)
    shape = f.plane.samples.shape
    # middle frequencies with nonneglible weight; each piece transforms a subset
    active = _active_bins(lhat, shape)
    phat = np.fft.rfft2(f.plane.samples)
    xi1 = f.plane.freq_axis(0)
    xi3 = 2.0 * np.pi * np.fft.rfftfreq(shape[1], d=f.plane.steps[1])
    rr = xi1[:, None] ** 2 + xi3[None, :] ** 2
    # +xi_2 and -xi_2 (bins k and ny - k) share a radial multiplier
    ny = len(lhat)
    shells, which = np.unique(np.minimum(active, ny - active), return_inverse=True)
    xi2 = f.line.freq_axis(0)[shells]
    # column j of g: inverse DFT of lhat restricted to the bins of shell j
    terms = np.exp(2j * np.pi * np.outer(np.arange(ny), active) / ny) / ny * lhat[active]
    g = (terms @ (which[:, None] == np.arange(len(shells)))).real
    return {n: _separable_piece_sup(phat, rr, xi2, g, shape, n) for n in pieces}


def besov_breakdown(f) -> BesovBreakdown:
    """Besov estimate of a :class:`SampledField` or :class:`SeparableField3`.

    Takes the grid maxima of the Littlewood-Paley pieces
    ``-20 <= n <= min(5, floor(log2(nyquist)) - 1)``, every piece up to
    ``n = 5`` whose band ``[2^(n-1), 2^(n+1)]`` the grid resolves, and the
    low-frequency tail bound ``2^-20 * sup |f|``; ``.total`` is the estimate.
    For ``f`` band-limited inside ``||xi|| <= sigma`` every piece with
    ``2^(n-1) > sigma`` vanishes identically, so the cap ``n = 5`` loses
    nothing for ``sigma < 16``."""
    f.require_transformable()
    pieces = range(_N_MIN, min(_N_MAX, math.floor(math.log2(f.nyquist())) - 1) + 1)
    if isinstance(f, SeparableField3):
        sups = _separable_breakdown(f, pieces)
    else:
        sups = _dense_breakdown(f, pieces)
    sup_abs = f.sup_abs()
    return BesovBreakdown(piece_sup=sups, tail_bound=2.0**_N_MIN * sup_abs, sup_abs=sup_abs)


def _threshold(f, sigma: float) -> float:
    return sigma * (1.0 + 2.0 * max(2.0 * np.pi / (n * s) for n, s in zip(f.shape, f.steps)))


def bandlimit_check(f, sigma: float) -> float:
    """Relative spectral energy outside the ball of radius
    ``sigma * (1 + delta)``, ``delta`` twice the frequency resolution.

    Near zero for genuinely band-limited samples; near one for samples whose
    content lives entirely outside the ball.
    """
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    f.require_transformable()
    radius2 = _threshold(f, sigma) ** 2
    if isinstance(f, SeparableField3):
        phat2 = np.abs(np.fft.fft2(f.plane.samples)) ** 2
        lhat2 = np.abs(np.fft.fft(f.line.samples)) ** 2
        rr = _radius2(f.plane)
        xi2 = f.freq_axis(1)
        plane_total = float(phat2.sum())
        total = plane_total * float(lhat2.sum())
        if total == 0.0:
            return 0.0
        # bins k and ny - k have bitwise-equal xi2^2: one plane sum per shell
        ny = len(xi2)
        plane_out = {}
        outside = 0.0
        for i2 in range(ny):
            if lhat2[i2] == 0.0:
                continue
            shell = min(i2, ny - i2)
            if shell not in plane_out:
                room = radius2 - xi2[i2] ** 2
                plane_out[shell] = plane_total if room < 0 else float(phat2[rr > room].sum())
            outside += lhat2[i2] * plane_out[shell]
        return outside / total
    fhat2 = np.abs(np.fft.fftn(f.samples)) ** 2
    rr = _radius2(f)
    total = float(fhat2.sum())
    if total == 0.0:
        return 0.0
    outside = float(fhat2[rr > radius2].sum())
    return outside / total
