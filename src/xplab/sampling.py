"""Grid sampling of the built-in function families for spectral analysis.

The bump ``eta`` decays like ``1/x^2``, so truncating it on a finite grid
leaks spectral mass outside its band.  All samplers here use the exact
periodization (:func:`xplab.counterexample.eta_periodized`), which makes
the sampled spectra band-limited to machine precision; grid spans must
therefore be multiples of ``2*pi``, which ``eta_periodized`` enforces.
"""

from __future__ import annotations

import math

import numpy as np

from .besov import SampledField, SeparableField3, _is_pow2
from .counterexample import (
    TWO_PI,
    CoeffMatrix,
    CounterexampleInstance,
    eta_periodized,
)

__all__ = [
    "sample_eta_1d",
    "sample_phi_2d",
    "sample_instance",
]


def sample_eta_1d(shift: float = 0.0, extent: float = 64 * math.pi, points: int = 2**14) -> SampledField:
    """Periodized samples of ``eta(. - shift)`` on ``[-extent, extent)``."""
    if not _is_pow2(points):
        raise ValueError(f"points must be a power of two, got {points}")
    span = 2.0 * extent
    step = span / points
    x = -extent + step * np.arange(points)
    return SampledField((-extent,), (step,), eta_periodized(x - shift, span))


def _lattice_axis(count: int, step: float, margin: float) -> tuple[float, int]:
    """Power-of-two axis covering the lattice ``2*pi*(0..count-1)`` plus margin."""
    needed = TWO_PI * (count - 1) + 2.0 * margin
    n = 1 << max(3, int(math.ceil(math.log2(needed / step))))
    span = n * step
    start = (TWO_PI * (count - 1) - span) / 2.0
    return start, n


def sample_phi_2d(c: CoeffMatrix, step: float = math.pi / 4, margin: float = 8 * math.pi) -> SampledField:
    """Periodized samples of the lattice interpolant of ``c`` on a square
    grid centered on its coefficient lattice."""
    x0, nx = _lattice_axis(c.rows, step, margin)
    z0, nz = _lattice_axis(c.cols, step, margin)
    x = x0 + step * np.arange(nx)
    z = z0 + step * np.arange(nz)
    bx = eta_periodized(x - TWO_PI * np.arange(c.rows)[:, None], nx * step)
    bz = eta_periodized(z - TWO_PI * np.arange(c.cols)[:, None], nz * step)
    samples = bx.T @ c.entries @ bz
    return SampledField((x0, z0), (step, step), samples)


def sample_instance(
    inst: CounterexampleInstance,
    step: float = math.pi / 4,
    margin: float = 8 * math.pi,
    yspan: float = 16 * math.pi,
) -> SeparableField3:
    """Separable samples of the instance function ``f = eps phi(./eps) psi(./eps)``.

    The plane factor carries ``eps * phi`` on the scaled (x, z) grid and the
    line factor ``psi`` on a scaled y grid centered at ``2*pi*eps``; their
    product reproduces ``f`` exactly on the product grid.
    """
    plane = sample_phi_2d(inst.coeffs, step=step, margin=margin)
    ny = int(round(yspan / step))
    if not _is_pow2(ny) or abs(ny * step - yspan) > 1e-9 * yspan:
        raise ValueError(
            f"y span {yspan:g} over step {step:g} must give a power-of-two count, got {yspan / step:g}"
        )
    y0 = TWO_PI - yspan / 2.0
    y = y0 + step * np.arange(ny)
    line = eta_periodized(y - TWO_PI, yspan)
    e = inst.epsilon
    return SeparableField3(
        plane=SampledField(
            (e * plane.starts[0], e * plane.starts[1]),
            (e * step, e * step),
            e * plane.samples,
        ),
        line=SampledField((e * y0,), (e * step,), line),
    )
