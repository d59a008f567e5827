"""Reference implementations of Besov internals, kept verbatim from before
their faster rewrites, so the tests can check the rewrites bit for bit, and
the test-only dense pieces and product tensors that the library never needs."""

import numpy as np

from xplab import besov
from xplab.besov import SampledField, SeparableField3, window


class NyquistError(ValueError):
    """The grid cannot represent the requested frequency band."""


def lp_piece(f: SampledField, n: int) -> SampledField:
    """Littlewood-Paley piece: inverse transform of ``F f`` times
    ``window(||xi|| / 2^n)`` on the grid frequencies."""
    f.require_transformable()
    lo, hi = 2.0 ** (n - 1), 2.0 ** (n + 1)
    if hi > f.nyquist() * (1.0 + 1e-12):
        raise NyquistError(
            f"grid too coarse for the band [{lo:g}, {hi:g}] of piece n={n}: "
            f"Nyquist frequency is {f.nyquist():g}"
        )
    mult = window(np.sqrt(besov._radius2(f)) / 2.0**n)
    fhat = np.fft.fftn(f.samples)
    piece = np.fft.ifftn(fhat * mult)
    return SampledField(f.starts, f.steps, piece)


def dense(sep: SeparableField3) -> SampledField:
    """Materialize the product tensor of ``sep`` (small grids only)."""
    samples = sep.plane.samples[:, None, :] * sep.line.samples[None, :, None]
    return SampledField(sep.starts, sep.steps, samples)


def separable_piece_sup(
    phat: np.ndarray,
    rr: np.ndarray,
    xi2: np.ndarray,
    g: np.ndarray,
    shape: tuple,
    n: int,
    *,
    work: tuple,
) -> float:
    """Sup of one 3-D piece of a product field, one ``|xi_2|`` shell at a
    time: a full ``irfft2`` per active shell and a row loop of GEMMs.  It
    takes the library's ``work`` keyword and allocates its own arrays."""
    scale = 2.0**n
    rr_max = rr.max()
    stack = np.empty((len(xi2),) + shape, dtype=g.dtype)
    cols = []
    for j, x2 in enumerate(xi2):
        if np.sqrt(rr_max + x2 * x2) < scale / 2.0 or abs(x2) > 2.0 * scale:
            continue
        mult = window(np.sqrt(rr + x2 * x2) / scale)
        if not mult.any():
            continue
        spec = phat * mult
        stack[len(cols)] = np.fft.irfft2(spec, s=shape)
        cols.append(j)
    if not cols:
        return 0.0
    gs = g[:, cols]
    return max(float(np.abs(gs @ stack[: len(cols), x, :]).max()) for x in range(shape[0]))


def separable_bandlimit_check(f, sigma: float) -> float:
    """``bandlimit_check`` of a ``SeparableField3``, one full-plane mask sum
    per middle-frequency bin."""
    radius2 = besov._threshold(f, sigma) ** 2
    phat2 = np.abs(np.fft.fft2(f.plane.samples)) ** 2
    lhat2 = np.abs(np.fft.fft(f.line.samples)) ** 2
    rr = besov._radius2(f.plane)
    xi2 = f.freq_axis(1)
    plane_total = float(phat2.sum())
    total = plane_total * float(lhat2.sum())
    if total == 0.0:
        return 0.0
    outside = 0.0
    for i2 in range(len(xi2)):
        if lhat2[i2] == 0.0:
            continue
        room = radius2 - xi2[i2] ** 2
        plane_out = plane_total if room < 0 else float(phat2[rr > room].sum())
        outside += lhat2[i2] * plane_out
    return outside / total
