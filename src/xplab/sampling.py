"""Grid sampling of the built-in function families for spectral analysis.

The bump ``eta`` decays like ``1/x^2``, so truncating it on a finite grid
leaks spectral mass outside its band.  All samplers here use the exact
periodization (:func:`xplab.counterexample.eta_periodized`), which makes
the sampled spectra band-limited to machine precision.  Each family has one
fixed grid, with spans that are multiples of ``2*pi``: ``eta`` takes ``2^14``
points on ``[-64 pi, 64 pi)``; a coefficient plane takes step ``pi/4`` over
its lattice plus an ``8 pi`` margin; an instance's middle (y) line takes 64
points of step ``pi/4`` centred at ``2 pi``.
"""

from __future__ import annotations

import math

import numpy as np

from .besov import SampledField, SeparableField3
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

_ETA_EXTENT = 64 * math.pi
_ETA_POINTS = 2**14
_STEP = math.pi / 4
_MARGIN = 8 * math.pi
_LINE_POINTS = 64


def sample_eta_1d(shift: float) -> SampledField:
    """Periodized samples of ``eta(. - shift)`` on the fixed 1-D grid."""
    span = 2.0 * _ETA_EXTENT
    step = span / _ETA_POINTS
    x = -_ETA_EXTENT + step * np.arange(_ETA_POINTS)
    return SampledField((-_ETA_EXTENT,), (step,), eta_periodized(x - shift, span))


def _lattice_axis(count: int) -> tuple[float, int]:
    """Power-of-two axis covering the lattice ``2*pi*(0..count-1)`` plus margin."""
    needed = TWO_PI * (count - 1) + 2.0 * _MARGIN
    n = 1 << int(math.ceil(math.log2(needed / _STEP)))
    span = n * _STEP
    start = (TWO_PI * (count - 1) - span) / 2.0
    return start, n


def sample_phi_2d(c: CoeffMatrix) -> SampledField:
    """Periodized samples of the lattice interpolant of ``c`` on the fixed
    square-step grid centered on its coefficient lattice."""
    x0, nx = _lattice_axis(c.rows)
    z0, nz = _lattice_axis(c.cols)
    x = x0 + _STEP * np.arange(nx)
    z = z0 + _STEP * np.arange(nz)
    bx = eta_periodized(x - TWO_PI * np.arange(c.rows)[:, None], nx * _STEP)
    bz = eta_periodized(z - TWO_PI * np.arange(c.cols)[:, None], nz * _STEP)
    samples = bx.T @ c.entries @ bz
    return SampledField((x0, z0), (_STEP, _STEP), samples)


def sample_instance(inst: CounterexampleInstance) -> SeparableField3:
    """Separable samples of the unscaled instance function ``f = phi psi``:
    ``phi`` on the plane of :func:`sample_phi_2d`, ``psi`` on the fixed y
    line.  A scaled instance (``epsilon != 1``) raises ``ValueError``."""
    if inst.epsilon != 1.0:
        raise ValueError(f"only unscaled instances are sampled, got epsilon {inst.epsilon!r}")
    plane = sample_phi_2d(inst.coeffs)
    yspan = _LINE_POINTS * _STEP
    y0 = TWO_PI - yspan / 2.0
    y = y0 + _STEP * np.arange(_LINE_POINTS)
    line = eta_periodized(y - TWO_PI, yspan)
    return SeparableField3(plane=plane, line=SampledField((y0,), (_STEP,), line))
