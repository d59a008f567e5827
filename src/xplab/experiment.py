"""Experiment driver: the trace-norm growth experiment, the randomized
identity suites, and scalar Besov reports.

Everything is deterministic for a fixed configuration; randomized suites
draw from one seeded generator.  Reports are written as CSV (one row per
size) and JSON (rows plus the log fit and the configuration); both carry
the same shortest-round-trip float strings.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import asdict, dataclass, fields
from typing import Callable

import numpy as np

from .besov import bandlimit_check, besov_breakdown, window
from .counterexample import (
    TWO_PI,
    build_instance,
    closed_form_ratio,
    eta,
    eta_deriv,
    eta_field,
    growth_ratio,
    triangular_coeffs,
)
from .hermitian import HermitianMatrix, schatten_norm
from .opint import doi, func_calc_triple, grid_eval, product_field, s2_contraction_check
from .perturbation import (
    perturbation_identity_residual,
    psi_difference,
    separated_difference,
)
from .sampling import sample_eta_1d, sample_instance, sample_phi_2d
from .spectral import apply_scalar, from_hermitian

__all__ = [
    "EPSILON_SCHEDULES",
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

# epsilon of each schedule as a function of the size n
EPSILON_SCHEDULES = {
    "constant": lambda n: 1.0,
    "one_over_size": lambda n: 1.0 / n,
    "one_over_loglog": lambda n: 1.0 / math.log(math.log(n)),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration for the growth experiment.

    ``sizes`` must be ascending; ``epsilon_schedule`` is one of
    ``constant | one_over_size | one_over_loglog``; Besov estimates are
    computed for sizes up to ``besov_max_size`` (larger grids would not fit
    the run budget) and reported as missing beyond it; they use the fixed
    grid of :mod:`xplab.sampling` and :func:`~xplab.besov.besov_breakdown`.
    """

    sizes: tuple
    epsilon_schedule: str = "constant"
    besov_max_size: int = 64

    def validate(self) -> None:
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
        if self.epsilon_schedule not in EPSILON_SCHEDULES:
            raise ValueError(
                f"unknown epsilon schedule {self.epsilon_schedule!r}; "
                f"choose one of {', '.join(EPSILON_SCHEDULES)}"
            )
        if self.epsilon_schedule == "one_over_loglog" and min(sizes) < 3:
            raise ValueError("the 1/loglog schedule needs sizes >= 3")
        if self.besov_max_size < 0:
            raise ValueError(f"besov max size must be an integer >= 0, got {self.besov_max_size!r}")


def _check_outputs(*paths) -> None:
    """Raise ``ValueError`` unless an output file can be created at each
    path (``None`` means no output) and no two paths name the same file.
    Called before any computation, so a bad path fails fast instead of
    after the whole run."""
    for path in paths:
        if path is None:
            continue
        if not path:
            raise ValueError("output path is empty")
        parent = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(parent):
            raise ValueError(f"output directory {parent!r} does not exist")
        if os.path.isdir(path):
            raise ValueError(f"output path {path!r} is a directory")
        if not os.access(parent, os.W_OK):
            raise ValueError(f"output directory {parent!r} is not writable")
    real = [os.path.realpath(p) for p in paths if p is not None]
    if len(set(real)) < len(real):
        raise ValueError(f"output paths {paths!r} name the same file; each report needs its own")


@dataclass(frozen=True)
class SizeRow:
    """``s1_diff_norm``, ``perturbation_s1`` and ``sup_norm`` are those of
    ``g = eps f(./eps)`` on the ``eps``-scaled operators; the ratios are the
    unscaled ``eps * s1_diff_norm / (sup_norm * perturbation_s1)``.

    ``besov_estimate`` (``None`` above ``besov_max_size``) estimates the
    ``B^1_{inf,1}`` norm of the unscaled ``f`` on a periodized grid, so it is
    the same under every ``eps`` schedule; each piece is a grid maximum of a
    periodized sample, so it is neither an upper nor a lower bound."""

    n: int
    s1_diff_norm: float
    perturbation_s1: float
    sup_norm: float
    besov_estimate: float | None
    ratio: float
    closed_form_ratio: float
    wall_time_ms: float


CSV_COLUMNS = tuple(f.name for f in fields(SizeRow))


@dataclass(frozen=True)
class ExperimentReport:
    """Growth rows plus the log fit; the fit is ``None`` below two sizes."""

    rows: tuple
    fit_a: float | None
    fit_b: float | None
    fit_r2: float | None
    config: ExperimentConfig

    def to_dict(self) -> dict:
        return {
            "config": asdict(self.config),
            "rows": [asdict(r) for r in self.rows],
            "fit": {"a": self.fit_a, "b": self.fit_b, "r_squared": self.fit_r2},
        }

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for r in self.rows:
                writer.writerow([_cell(getattr(r, c)) for c in CSV_COLUMNS])

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, allow_nan=False)
            fh.write("\n")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return repr(int(value))
    return repr(float(value))


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
    # exact homogeneity in eps; scale_instance is the reference in the tests
    eps = EPSILON_SCHEDULES[config.epsilon_schedule](n)
    s1_diff, pert, sup = eps * s1_diff, eps * pert, eps * inst.sup_bound

    if n <= config.besov_max_size:
        besov = besov_breakdown(sample_instance(inst)).total
    else:
        besov = None

    wall = (time.perf_counter() - t0) * 1000.0
    return SizeRow(
        n=n,
        s1_diff_norm=float(s1_diff),
        perturbation_s1=float(pert),
        sup_norm=float(sup),
        besov_estimate=None if besov is None else float(besov),
        ratio=float(ratio),
        closed_form_ratio=float(closed),
        wall_time_ms=float(wall),
    )


def cmd_growth(config: ExperimentConfig, csv_path=None, json_path=None) -> ExperimentReport:
    """Run the growth experiment over the configured sizes.

    Sizes run one after another in ascending order, so each row's
    ``wall_time_ms`` is that size's own time and the report is
    deterministic for a fixed configuration (apart from those timings).
    The configuration and the output paths are checked before any size
    runs.
    """
    config.validate()
    _check_outputs(csv_path, json_path)
    rows = [_grow_one(int(n), config) for n in config.sizes]
    a, b, r2 = log_fit([r.n for r in rows], [r.ratio for r in rows])
    report = ExperimentReport(rows=tuple(rows), fit_a=a, fit_b=b, fit_r2=r2, config=config)
    if csv_path is not None:
        report.write_csv(csv_path)
    if json_path is not None:
        report.write_json(json_path)
    return report


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


def _random_hermitian(rng, n: int, scale: float = 1.0) -> HermitianMatrix:
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return HermitianMatrix(scale * (raw + raw.conj().T) / (2.0 * math.sqrt(n)))


def _random_unitary(rng, n: int) -> np.ndarray:
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _test_fields(rng) -> list[tuple[Callable, Callable]]:
    """Five random polynomials of degree <= 5 plus eta and its shift, each
    with its derivative."""
    fields = []
    for _ in range(5):
        deg = int(rng.integers(1, 6))
        poly = np.polynomial.Polynomial(rng.standard_normal(deg + 1))
        fields.append((poly, poly.deriv()))
    for shift in (0.0, TWO_PI):
        fields.append((eta_field(shift), lambda x, s=shift: eta_deriv(x - s)))
    return fields


def _worst(*residuals) -> float:
    """Largest residual, or NaN if any residual is NaN (``max(0.0, nan)``
    is ``0.0``, which would let a NaN residual pass)."""
    return float(np.max(residuals))


def _suite_perturbation(rng, trials: int) -> SuiteResult:
    fields = _test_fields(rng)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 17))
        a = _random_hermitian(rng, n, 2.0)
        b = _random_hermitian(rng, n, 2.0)
        bound = 1.0 + schatten_norm(a.mat, math.inf) + schatten_norm(b.mat, math.inf)
        for f, df in fields:
            worst = _worst(worst, perturbation_identity_residual(f, df, a, b) / bound)
    return SuiteResult("perturbation identity (trace norm)", worst, 1e-9)


def _suite_psi_difference(rng, trials: int) -> SuiteResult:
    psi = eta_field(TWO_PI)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 13))
        b1 = _random_hermitian(rng, n, 2.0)
        b2 = _random_hermitian(rng, n, 2.0)
        q = psi_difference(psi, b1, b2)
        ref = apply_scalar(from_hermitian(b1), psi) - apply_scalar(from_hermitian(b2), psi)
        worst = _worst(worst, schatten_norm(q - ref, 1))
    return SuiteResult("rank-difference identity", worst, 1e-9)


def _random_bivariate(rng) -> Callable:
    coeffs = rng.standard_normal((3, 3))

    def fn(x, y):
        xa = np.asarray(x, dtype=np.float64)
        ya = np.asarray(y, dtype=np.float64)
        acc = 0.0
        for i in range(3):
            for j in range(3):
                acc = acc + coeffs[i, j] * xa**i * ya**j
        return acc

    return fn


def _suite_separated(rng, trials: int) -> SuiteResult:
    psi = eta_field(TWO_PI)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 9))
        a = _random_hermitian(rng, n, 2.0)
        b1 = _random_hermitian(rng, n, 2.0)
        b2 = _random_hermitian(rng, n, 2.0)
        c = _random_hermitian(rng, n, 2.0)
        phi = _random_bivariate(rng)
        lhs = separated_difference(phi, psi, a, b1, b2, c)
        f3 = product_field(phi, psi)
        rhs = func_calc_triple(f3, a, b1, c) - func_calc_triple(f3, a, b2, c)
        worst = _worst(worst, schatten_norm(lhs - rhs, 1))
    return SuiteResult("separated triple difference", worst, 1e-9)


def _suite_hs_contraction(rng, trials: int) -> SuiteResult:
    coords = {n: from_hermitian(HermitianMatrix.diag(np.arange(n))) for n in range(2, 9)}
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 9))
        e1 = from_hermitian(_random_hermitian(rng, n, 2.0))
        e2 = from_hermitian(_random_hermitian(rng, n, 2.0))
        t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        phi = _random_bivariate(rng)
        lhs, rhs = s2_contraction_check(phi, e1, e2, t)
        worst = _worst(worst, lhs - rhs)
        # equality at the maximizing matrix unit over coordinate measures
        ec = coords[n]
        grid = np.abs(grid_eval(phi, ec.values, ec.values))
        jstar, kstar = np.unravel_index(int(grid.argmax()), grid.shape)
        unit = np.zeros((n, n), dtype=np.complex128)
        unit[jstar, kstar] = 1.0
        lhs_u, rhs_u = s2_contraction_check(phi, ec, ec, unit)
        worst = _worst(worst, abs(lhs_u - rhs_u))
    return SuiteResult("Hilbert-Schmidt contraction", worst, 1e-10)


def _suite_hadamard(rng, trials: int) -> SuiteResult:
    worst = 0.0
    for n in range(1, 9):
        e = from_hermitian(HermitianMatrix.diag(np.arange(n)))
        for _ in range(max(1, trials // 8)):
            t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            symbol = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            phi = lambda x, y, s=symbol: s[np.asarray(x, dtype=int), np.asarray(y, dtype=int)]
            got = doi(phi, e, t, e)
            worst = _worst(worst, float(np.abs(got - symbol * t).max()))
    return SuiteResult("coordinate-atom Hadamard product", worst, 1e-12)


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
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 9))
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        u = _random_unitary(rng, n)
        v = _random_unitary(rng, n)
        for p in (1.0, 1.5, 2.0, 3.0, math.inf):
            worst = _worst(worst, abs(schatten_norm(u @ m @ v, p) - schatten_norm(m, p)))
        ps = [1.0, 1.3, 2.0, 4.0, math.inf]
        norms = [schatten_norm(m, p) for p in ps]
        for lo, hi in zip(norms[:-1], norms[1:]):
            worst = _worst(worst, hi - lo)  # p-monotone: larger p, smaller norm
    return SuiteResult("Schatten norm invariances", worst, 1e-10)


_SUITES = (
    _suite_perturbation,
    _suite_psi_difference,
    _suite_separated,
    _suite_hs_contraction,
    _suite_hadamard,
    _suite_window,
    _suite_eta,
    _suite_schatten,
)


def cmd_verify(seed: int = 42, trials: int = 100) -> VerifySummary:
    """Run every identity suite on seeded random data."""
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
    """Besov report of a named function.  ``estimate`` (``besov_estimate``
    in the JSON) is an estimate on a periodized grid, the sum of the
    ``2^n``-weighted grid maxima of the Littlewood-Paley pieces plus
    ``tail_bound``; it is neither an upper nor a lower bound on the norm."""

    function: str
    estimate: float
    tail_bound: float
    sup_abs: float
    bandlimit_sigma: float
    bandlimit_mass: float
    piece_sup: dict

    def to_dict(self) -> dict:
        return {
            "function": self.function,
            "besov_estimate": self.estimate,
            "tail_bound": self.tail_bound,
            "sup_abs": self.sup_abs,
            "bandlimit_sigma": self.bandlimit_sigma,
            "bandlimit_mass": self.bandlimit_mass,
            "piece_sup": {str(k): v for k, v in self.piece_sup.items()},
        }

    def lines(self) -> list[str]:
        return [
            f"function        {self.function}",
            f"besov_estimate  {self.estimate!r}",
            f"tail_bound      {self.tail_bound!r}",
            f"sup_abs         {self.sup_abs!r}",
            f"bandlimit_mass  {self.bandlimit_mass!r} (outside radius {self.bandlimit_sigma:g})",
        ]


def _parse_size(token: str, name: str) -> int:
    try:
        n = int(token)
    except ValueError:
        raise ValueError(f"bad size in function name {name!r}") from None
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
    radius ``sqrt(d)``.
    """
    name = function_name.strip()
    if name in ("eta", "psi"):
        f = sample_eta_1d(0.0 if name == "eta" else TWO_PI)
    elif name.startswith("phi_tri:"):
        f = sample_phi_2d(triangular_coeffs(_parse_size(name.split(":", 1)[1], name)))
    elif name.startswith("f3:"):
        f = sample_instance(build_instance(_parse_size(name.split(":", 1)[1], name)))
    else:
        raise ValueError(
            f"unknown function name {function_name!r}; "
            "expected eta, psi, phi_tri:<n> or f3:<n>"
        )
    sigma = math.sqrt(f.d)
    breakdown = besov_breakdown(f)
    mass = bandlimit_check(f, sigma)
    return BesovScalarReport(
        function=name,
        estimate=breakdown.total,
        tail_bound=breakdown.tail_bound,
        sup_abs=breakdown.sup_abs,
        bandlimit_sigma=sigma,
        bandlimit_mass=float(mass),
        piece_sup=dict(breakdown.piece_sup),
    )
