"""Experiment driver: the trace-norm growth experiment, the randomized
identity suites, and scalar Besov reports.

Everything is deterministic for a fixed configuration; randomized suites
draw from one seeded generator.  The commands compute and return reports;
:mod:`xplab.cli` prints their ``lines()`` and writes their files.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .besov import BesovBreakdown, bandlimit_check, besov_breakdown, window
from .counterexample import (
    TWO_PI,
    build_instance,
    check_matrix_budget,
    closed_form_ratio,
    eta,
    eta_field,
    growth_ratio,
    triangular_coeffs,
)
from .hermitian import HermitianMatrix, _schatten, schatten_norm, singular_values
from .opint import func_calc_triple, grid_eval, s2_contraction_check
from .perturbation import perturbation_identity_residual, separated_difference
from .sampling import (
    check_instance_budget,
    check_plane_budget,
    sample_eta_1d,
    sample_instance,
    sample_phi_2d,
)
from .spectral import _measure

__all__ = [
    "ExperimentConfig",
    "SizeRow",
    "ExperimentReport",
    "log_fit",
    "cmd_growth",
    "SuiteResult",
    "VerifySummary",
    "cmd_verify",
    "BesovScalarReport",
    "cmd_besov",
]

@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration for the growth experiment.

    ``sizes`` must be ascending; Besov estimates are computed for sizes up
    to ``besov_max_size`` (larger grids would not fit the run budget) and
    reported as missing beyond it; they use the fixed grid of
    :mod:`xplab.sampling` and :func:`~xplab.besov.besov_breakdown`.
    :meth:`validate` rejects, before any size runs, a size whose matrix
    path cannot fit in physical memory and a ``besov_max_size`` that lets a
    size's grid exceed the Besov slice budget.
    """

    sizes: tuple
    besov_max_size: int = 64

    def validate(self) -> ExperimentConfig:
        """Raise ``ValueError`` unless the config can run; return it with plain ``int`` sizes."""
        if not self.sizes:
            raise ValueError("config needs at least one size")
        # bool is an int subclass, but True is not a size
        if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                   for v in (*self.sizes, self.besov_max_size)):
            raise ValueError(f"sizes and besov max size must be integers, got "
                             f"{self.sizes!r} and {self.besov_max_size!r}")
        sizes = tuple(int(n) for n in self.sizes)
        if any(n < 2 for n in sizes):
            raise ValueError("instance sizes must be at least 2")
        if list(sizes) != sorted(set(sizes)):
            raise ValueError("sizes must be strictly ascending")
        if self.besov_max_size < 0:
            raise ValueError(f"besov max size must be an integer >= 0, got {self.besov_max_size!r}")
        check_matrix_budget(sizes[-1])
        besov_sizes = [n for n in sizes if n <= self.besov_max_size]
        if besov_sizes:
            # the largest sampled plane decides, so no size runs before a late failure
            try:
                check_instance_budget(besov_sizes[-1])
            except ValueError as exc:
                raise ValueError(f"besov estimate at size {besov_sizes[-1]} "
                                 f"(besov max size {self.besov_max_size}): {exc}") from exc
        return ExperimentConfig(sizes, int(self.besov_max_size))


@dataclass(frozen=True)
class SizeRow:
    """``s1_diff_norm`` is a certified lower bound on the trace norm of the
    difference matrix as computed, rounded down, ``perturbation_s1`` a
    certified upper bound on ``||B1 - B2||_S1``, rounded up, and ``sup_norm``
    the exact ``sup |f|``.  ``ratio`` is then a lower bound, about ``30 sqrt(n) u``
    (``u = 2^-53``) relative below ``closed_form_ratio``.

    ``besov_estimate`` (``None`` above ``besov_max_size``) estimates the
    ``B^1_{inf,1}`` norm of ``f`` on a periodized grid; each piece is a grid
    maximum of a periodized sample, so it is neither an upper nor a lower bound."""

    n: int
    s1_diff_norm: float
    perturbation_s1: float
    sup_norm: float
    besov_estimate: float | None
    ratio: float
    closed_form_ratio: float
    wall_time_ms: float


@dataclass(frozen=True)
class ExperimentReport:
    """Growth rows plus ``fit``, the ``(a, b, r_squared)`` of :func:`log_fit`,
    three ``None`` below two sizes.  ``lines()`` is the console report, one
    line per size and one for the fit, and ``to_dict()`` the JSON report:
    rows, fit and configuration."""

    rows: tuple
    fit: tuple
    config: ExperimentConfig

    def to_dict(self) -> dict:
        return {
            "config": asdict(self.config),
            "rows": [asdict(r) for r in self.rows],
            "fit": dict(zip(("a", "b", "r_squared"), self.fit)),
        }

    def lines(self) -> list[str]:
        out = []
        for r in self.rows:
            besov = "-" if r.besov_estimate is None else f"{r.besov_estimate:.6f}"
            out.append(f"n={r.n:<5d} s1_diff={r.s1_diff_norm:.6f} pert={r.perturbation_s1:.6f} "
                       f"sup={r.sup_norm:.6f} besov={besov} ratio={r.ratio:.6f}")
        a, b, r2 = self.fit
        if a is None:
            out.append("fit: needs at least two sizes")
        else:
            out.append(f"fit: ratio ~ {a:.4f} + {b:.4f} ln n  (r^2 = {r2:.6f})")
        return out


def log_fit(ns, ys) -> tuple[float | None, float | None, float | None]:
    """Least squares ``y ~ a + b ln n``; returns ``(a, b, r_squared)``, or
    three ``None`` when fewer than two points leave the fit undefined."""
    ns = np.asarray(ns, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if len(ns) < 2:
        return None, None, None
    b, a = np.polyfit(np.log(ns), ys, 1)
    pred = a + b * np.log(ns)
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(a), float(b), r2


def _grow_one(n: int, config: ExperimentConfig) -> SizeRow:
    t0 = time.perf_counter()
    inst = build_instance(n)
    s1_diff, pert, ratio = growth_ratio(inst)
    closed = closed_form_ratio(inst)

    if n <= config.besov_max_size:
        besov = besov_breakdown(sample_instance(inst)).total
    else:
        besov = None

    wall = (time.perf_counter() - t0) * 1000.0
    return SizeRow(
        n=n,
        s1_diff_norm=float(s1_diff),
        perturbation_s1=float(pert),
        sup_norm=float(inst.sup_bound),
        besov_estimate=None if besov is None else float(besov),
        ratio=float(ratio),
        closed_form_ratio=float(closed),
        wall_time_ms=float(wall),
    )


def cmd_growth(config: ExperimentConfig) -> ExperimentReport:
    """Run the growth experiment over the configured sizes and return its report.

    Sizes run one after another in ascending order, so each row's
    ``wall_time_ms`` is that size's own time and the report is
    deterministic for a fixed configuration (apart from those timings).
    The configuration is checked before any size runs.
    """
    config = config.validate()
    rows = [_grow_one(n, config) for n in config.sizes]
    return ExperimentReport(tuple(rows), log_fit([r.n for r in rows], [r.ratio for r in rows]), config)


# ---------------------------------------------------------------------------
# verify suites


@dataclass(frozen=True)
class SuiteResult:
    name: str
    max_residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance


@dataclass(frozen=True)
class VerifySummary:
    seed: int
    trials: int
    suites: tuple

    @property
    def all_passed(self) -> bool:
        return all(s.passed for s in self.suites)

    def lines(self) -> list[str]:
        out = []
        for s in self.suites:
            status = "PASS" if s.passed else "FAIL"
            out.append(f"[{status}] {s.name}: max residual {s.max_residual:.3e} (tol {s.tolerance:.1e})")
        return out


def _random_complex(rng, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _unitary(raw: np.ndarray) -> np.ndarray:
    q, r = np.linalg.qr(raw)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def _test_fields(rng) -> Callable:
    """The stacked field of five random polynomials of degree <= 5, eta and
    eta shifted by ``2 pi``.  The polynomials are one Horner pass over
    zero-padded coefficient columns, the pass of
    ``numpy.polynomial.Polynomial``, so each value is its own, bit for bit,
    at finite arguments."""
    coeffs = np.zeros((6, 5))  # row i: the x^i coefficients
    for column in coeffs.T:
        deg = int(rng.integers(1, 6))
        column[: deg + 1] = rng.standard_normal(deg + 1)
    shifts = np.array([0.0, TWO_PI])

    def fn(x):
        x = np.asarray(x, dtype=np.float64)
        c_x = coeffs.reshape(coeffs.shape + (1,) * x.ndim)
        acc = c_x[-1] + x * 0
        for ci in c_x[-2::-1]:
            acc = ci + acc * x
        return np.concatenate((acc, eta(x - shifts.reshape((2,) + (1,) * x.ndim))))

    return fn


def _bivariate(coeffs: np.ndarray) -> Callable:
    """``sum c[..., i, j] x^i y^j``, ``i, j < 3``; member ``m`` of a grid takes ``c[m]``."""

    def fn(x, y):
        c = coeffs.reshape(coeffs.shape[:-2] + (1,) * (np.ndim(x) + 2 - coeffs.ndim) + (3, 3))
        acc = 0.0
        for i in range(3):
            for j in range(3):
                acc = acc + c[..., i, j] * x**i * y**j
        return acc

    return fn


def _worst(*residuals) -> float:
    """Largest residual, or NaN if any is NaN (``max(0.0, nan)`` is ``0.0``,
    which would let a NaN pass); each argument is a residual or an array-like."""
    return float(np.max(np.concatenate([np.ravel(r) for r in residuals])))


# Queues run once their largest stacked array would pass this, so memory does not grow with
# trials: on `verify --trials 250` (2 CPUs, OpenBLAS) the peak RSS rose 0.4-0.7 MB over one
# trial at a time, and 3.1 MB with no cap, which was 0.05 s faster.
_STACK_BYTES = 64 * 1024


def _in_stacks(rng, trials: int, sizes: int, draw: Callable, residuals: Callable,
               fields: int = 1) -> float:
    """Worst residual of ``trials`` trials of sizes ``n`` in ``[2, sizes)``, inputs
    ``draw(n)``, drawn as a per-trial loop draws them.  ``residuals`` takes a queue of
    one ``n`` stacked on a member axis (a lone trial as it is) once its largest stacked
    array, the largest input times ``fields``, would pass ``_STACK_BYTES``, and at the end."""
    queues, worst = {}, 0.0
    run = lambda queue: residuals(*(queue[0] if len(queue) == 1 else map(np.stack, zip(*queue))))
    for _ in range(trials):
        n = int(rng.integers(2, sizes))
        queue = queues.setdefault(n, [])
        queue.append(draw(n))
        if (len(queue) + 1) * fields * max(a.nbytes for a in queue[-1]) > _STACK_BYTES:
            worst = _worst(worst, run(queue))
            queue.clear()
    return _worst(worst, *(run(q) for q in queues.values() if q))


def _hermitians(rng, n: int, count: int) -> tuple:
    # raw + raw^H is exactly Hermitian, and real scalings keep it so
    raws = (_random_complex(rng, n) for _ in range(count))
    return tuple(2.0 * (raw + raw.conj().T) / (2.0 * math.sqrt(n)) for raw in raws)


def _suite_perturbation(rng, trials: int) -> SuiteResult:
    f = _test_fields(rng)

    def residuals(a, b):
        a, b = HermitianMatrix._symmetric(a), HermitianMatrix._symmetric(b)
        # ||A|| = max |eigenvalue|, from the measures the residual diagonalises
        norm_a, norm_b = (np.abs(_measure(h).values).max(axis=-1) for h in (a, b))
        return perturbation_identity_residual(f, a, b) / (1.0 + norm_a + norm_b)

    worst = _in_stacks(rng, trials, 17, lambda n: _hermitians(rng, n, 2), residuals, len(f(0.0)))
    return SuiteResult("perturbation identity (trace norm)", worst, 1e-9)


def _suite_separated(rng, trials: int) -> SuiteResult:
    psi = eta_field(TWO_PI)

    def residuals(a, b1, b2, c, coeffs):
        a, b1, b2, c = (HermitianMatrix._symmetric(m) for m in (a, b1, b2, c))
        phi = _bivariate(coeffs)
        lhs = separated_difference(phi, psi, a, b1, b2, c)
        f3 = lambda x, y, z: phi(x, z) * psi(y)
        rhs = func_calc_triple(f3, a, b1, c) - func_calc_triple(f3, a, b2, c)
        return schatten_norm(lhs - rhs, 1)

    draw = lambda n: _hermitians(rng, n, 4) + (rng.standard_normal((3, 3)),)
    return SuiteResult("separated triple difference", _in_stacks(rng, trials, 9, draw, residuals), 1e-9)


def _suite_hs_contraction(rng, trials: int) -> SuiteResult:
    def residuals(h1, h2, t, coeffs):
        e1, e2 = (_measure(HermitianMatrix._symmetric(h)) for h in (h1, h2))
        phi = _bivariate(coeffs)
        lhs, rhs = s2_contraction_check(grid_eval(phi, e1.values, e2.values), e1, e2, t)
        # the contraction says lhs <= rhs: the worst ratio against 1 shows the slack
        return lhs / rhs

    draw = lambda n: _hermitians(rng, n, 2) + (_random_complex(rng, n), rng.standard_normal((3, 3)))
    return SuiteResult("Hilbert-Schmidt contraction", _in_stacks(rng, trials, 9, draw, residuals), 1.0)


def _suite_window(rng, trials: int) -> SuiteResult:
    s = np.logspace(-3, 3, 1001)
    acc = np.zeros_like(s)
    for n in range(-20, 21):
        acc += window(s / 2.0**n)
    return SuiteResult("window partition of unity", float(np.abs(acc - 1.0).max()), 1e-9)


def _suite_eta(rng, trials: int) -> SuiteResult:
    ks = np.arange(-20, 21)
    vals = eta(TWO_PI * ks.astype(np.float64))
    worst = float(np.abs(np.where(ks == 0, vals - 1.0, vals)).max())
    xs = np.linspace(-300.0, 300.0, 20001)
    worst = _worst(worst, float(np.max(np.abs(eta(xs)) - 1.0)))
    return SuiteResult("eta lattice certificate", worst, 1e-12)


def _suite_schatten(rng, trials: int) -> SuiteResult:
    def residuals(m, raw_u, raw_v):
        s_m, s_umv = singular_values(m), singular_values(_unitary(raw_u) @ m @ _unitary(raw_v))
        out = [np.abs(_schatten(s_umv, p) - _schatten(s_m, p)) for p in (1.0, 1.5, 2.0, 3.0, math.inf)]
        norms = [_schatten(s_m, p) for p in (1.0, 1.3, 2.0, 4.0, math.inf)]
        # p-monotone: larger p, smaller norm
        return out + [hi - lo for lo, hi in zip(norms[:-1], norms[1:])]

    draw = lambda n: tuple(_random_complex(rng, n) for _ in range(3))
    return SuiteResult("Schatten norm invariances", _in_stacks(rng, trials, 9, draw, residuals), 1e-10)


_SUITES = (
    _suite_perturbation,
    _suite_separated,
    _suite_hs_contraction,
    _suite_window,
    _suite_eta,
    _suite_schatten,
)


def cmd_verify(seed: int = 42, trials: int = 100) -> VerifySummary:
    """Run the six identity suites, each from its own generator seeded with ``seed``: the
    perturbation, separated-difference, Hilbert-Schmidt and Schatten suites on random trials,
    in stacks that report as a per-trial loop (:func:`_in_stacks`), and the window and eta
    suites on fixed grids, which can fail too: they rest on the platform's ``exp`` and ``cos``."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    results = []
    for suite in _SUITES:
        rng = np.random.default_rng(seed)
        results.append(suite(rng, trials))
    return VerifySummary(seed=seed, trials=trials, suites=tuple(results))


# ---------------------------------------------------------------------------
# scalar Besov reports


@dataclass(frozen=True)
class BesovScalarReport:
    """Besov report of a named function: its :class:`~xplab.besov.BesovBreakdown`
    and the spectral mass outside radius ``bandlimit_sigma``.  ``breakdown.total``
    (``besov_estimate`` in the JSON) is an estimate on a periodized grid, the sum
    of the ``2^n``-weighted grid maxima of the Littlewood-Paley pieces plus the
    tail bound; it is neither an upper nor a lower bound on the norm."""

    function: str
    breakdown: BesovBreakdown
    bandlimit_sigma: float
    bandlimit_mass: float

    def to_dict(self) -> dict:
        b = self.breakdown
        return {
            "function": self.function,
            "besov_estimate": b.total,
            "tail_bound": b.tail_bound,
            "sup_abs": b.sup_abs,
            "bandlimit_sigma": self.bandlimit_sigma,
            "bandlimit_mass": self.bandlimit_mass,
            "piece_sup": {str(k): v for k, v in b.piece_sup.items()},
        }

    def lines(self) -> list[str]:
        b = self.breakdown
        return [
            f"function        {self.function}",
            f"besov_estimate  {b.total!r}",
            f"tail_bound      {b.tail_bound!r}",
            f"sup_abs         {b.sup_abs!r}",
            f"bandlimit_mass  {self.bandlimit_mass!r} (outside radius {self.bandlimit_sigma:g})",
        ]


def _plain_int(token: str, low: int, error: Exception) -> int:
    """``token`` as an int, or raise ``error`` unless it is plain ASCII digits, at least ``low``,
    with no leading zero: one spelling per number, where int() also reads "1_6", "+8" and "08"."""
    if not (token.isascii() and token.isdigit() and str(int(token)) == token and int(token) >= low):
        raise error
    return int(token)


def _parse_size(token: str, name: str) -> int:
    n = _plain_int(token, 0, ValueError(f"bad size in function name {name!r}"))
    if n < 2:
        raise ValueError(f"size in {name!r} must be at least 2")
    return n


def cmd_besov(function_name: str) -> BesovScalarReport:
    """Besov estimate, tail bound and band-limit mass for a named function.

    The estimate is :func:`~xplab.besov.besov_breakdown` with its fixed
    window and pieces ``-20 <= n <= min(5, floor(log2(nyquist)) - 1)``; the
    tail bound is ``2^-20 * sup |f|``.  Known names: ``eta``, ``psi``,
    ``phi_tri:<n>`` (2-D interpolant of the triangular pattern), ``f3:<n>``
    (the 3-D instance function), each on its fixed grid in
    :mod:`xplab.sampling`.  Each has its spectrum in the cube
    ``[-1, 1]^d``, so the band-limit mass is the energy outside the ball of
    radius ``sqrt(d)``.  For ``phi_tri:<n>`` and ``f3:<n>`` the budget of
    :mod:`xplab.besov` is checked before the plane is sampled.
    """
    name = function_name.strip()
    if name in ("eta", "psi"):
        f = sample_eta_1d(0.0 if name == "eta" else TWO_PI)
    elif name.startswith("phi_tri:"):
        n = _parse_size(name.split(":", 1)[1], name)
        check_plane_budget(n)
        f = sample_phi_2d(triangular_coeffs(n))
    elif name.startswith("f3:"):
        n = _parse_size(name.split(":", 1)[1], name)
        check_instance_budget(n)
        f = sample_instance(build_instance(n))
    else:
        raise ValueError(
            f"unknown function name {function_name!r}; "
            "expected eta, psi, phi_tri:<n> or f3:<n>"
        )
    sigma = math.sqrt(f.d)
    return BesovScalarReport(function=name, breakdown=besov_breakdown(f), bandlimit_sigma=sigma,
                             bandlimit_mass=float(bandlimit_check(f, sigma)))
