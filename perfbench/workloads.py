"""The benchmark's workloads: the xplab command each one runs and the oracle
that checks its output.

The oracles are computed by the harness, not read from the program:

* ``growth``: every row's ``ratio`` equals the closed form
  ``sum_k 1/(2 sin((2k+1) pi / (2(2n+1)))) / (2 pi n)``, the trace norm of
  ``U_n / n`` over ``2 pi`` (``sup|f| = 1`` on the scan grid);
* ``besov``: the estimate equals the value the first benchmarked commit
  produced, and the band-limit mass is below ``1e-12``;
* ``verify``: the command exits 0 and every suite reads ``PASS``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

TWO_PI = 2.0 * math.pi
REL_TOL = 1e-9
BANDLIMIT_TOL = 1e-12

# besov_estimate of f3:<n> as printed by the first benchmarked commit
# (e64d547), full repr precision.
BESOV_F3_REFERENCE = {
    8: 0.6892781146586121,
    32: 0.6922923982526068,
    64: 0.6925522425234854,
}


@dataclass(frozen=True)
class Workload:
    """One xplab command and the check of its output.

    ``argv(seed, json_path)`` gives the xplab arguments; ``check(returncode,
    stdout, json_path)`` returns the list of problems, empty when correct.
    ``seeded`` says whether the inputs depend on the benchmark's seed.
    """

    name: str
    argv: Callable[[int, str], list]
    check: Callable[[int, str, str], list]
    seeded: bool


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def u_n_ratio(n: int) -> float:
    """Closed-form growth ratio ``||U_n / n||_S1 / (2 pi)``."""
    s1 = math.fsum(1.0 / (2.0 * math.sin((2 * k + 1) * math.pi / (2 * (2 * n + 1))))
                   for k in range(n))
    return s1 / (TWO_PI * n)


def _load_json(path: str) -> dict | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def check_growth(sizes, returncode: int, stdout: str, json_path: str) -> list:
    if returncode != 0:
        return [f"exit code {returncode}"]
    report = _load_json(json_path)
    if report is None:
        return [f"no readable JSON report at {json_path}"]
    rows = report.get("rows", [])
    problems = []
    if [r.get("n") for r in rows] != list(sizes):
        problems.append(f"rows cover sizes {[r.get('n') for r in rows]}, expected {list(sizes)}")
    for r in rows:
        want = u_n_ratio(int(r["n"]))
        if not rel_err(float(r["ratio"]), want) <= REL_TOL:
            problems.append(f"n={r['n']}: ratio {r['ratio']!r} vs closed form {want!r}")
        if r.get("besov_estimate") is not None:
            problems.append(f"n={r['n']}: Besov estimate computed although disabled")
    return problems


def check_besov(n: int, returncode: int, stdout: str, json_path: str) -> list:
    if returncode != 0:
        return [f"exit code {returncode}"]
    report = _load_json(json_path)
    if report is None:
        return [f"no readable JSON report at {json_path}"]
    problems = []
    got, want = float(report["besov_estimate"]), BESOV_F3_REFERENCE[n]
    if not rel_err(got, want) <= REL_TOL:
        problems.append(f"besov_estimate {got!r} vs reference {want!r}")
    mass = float(report["bandlimit_mass"])
    if not mass < BANDLIMIT_TOL:
        problems.append(f"bandlimit_mass {mass!r} is not below {BANDLIMIT_TOL:g}")
    return problems


def check_verify(returncode: int, stdout: str, json_path: str) -> list:
    problems = [] if returncode == 0 else [f"exit code {returncode}"]
    suites = [line for line in stdout.splitlines() if line.startswith("[")]
    if not suites:
        problems.append("no suite lines in the output")
    problems += [f"suite not passed: {line}" for line in suites if not line.startswith("[PASS]")]
    return problems


def growth_matrix(sizes=(64, 128, 256, 512)) -> Workload:
    text = ",".join(str(n) for n in sizes)
    return Workload(
        name="growth-matrix",
        argv=lambda seed, out: ["growth", "--sizes", text, "--besov-max-size", "0", "--json", out],
        check=lambda code, stdout, out: check_growth(sizes, code, stdout, out),
        seeded=False,
    )


def besov_f3(n: int = 32) -> Workload:
    return Workload(
        name="besov-f3",
        argv=lambda seed, out: ["besov", "--fn", f"f3:{n}", "--json", out],
        check=lambda code, stdout, out: check_besov(n, code, stdout, out),
        seeded=False,
    )


def verify_small(trials: int = 250) -> Workload:
    return Workload(
        name="verify-small",
        # xplab takes seeds >= 0; any benchmark seed maps onto one
        argv=lambda seed, out: ["verify", "--trials", str(trials), "--seed", str(seed % 2**32)],
        check=check_verify,
        seeded=True,
    )


WORKLOADS = {w.name: w for w in (growth_matrix(), besov_f3(), verify_small())}

# Tiny versions of the same commands, for the harness's own smoke test.
SMOKE = (growth_matrix((8, 16)), besov_f3(8), verify_small(5))
