"""Command-line driver.

    xplab growth --sizes 4,8,16,32 --eps constant --out report.csv [--json report.json]
    xplab verify --seed 42 --trials 100
    xplab besov --fn f3:32 [--json out.json]

Exit codes: 0 success, 1 suite failure, 2 configuration error (including
an output path whose directory is missing or not writable, or two outputs
that name the same file).
"""

from __future__ import annotations

import argparse
import json
import sys

from .experiment import (
    ExperimentConfig,
    _check_outputs,
    cmd_besov,
    cmd_growth,
    cmd_verify,
)

_EPS_ALIASES = {
    "constant": "constant",
    "1/n": "one_over_size",
    "one_over_size": "one_over_size",
    "1/loglog": "one_over_loglog",
    "one_over_loglog": "one_over_loglog",
}


def _parse_sizes(text: str) -> tuple:
    try:
        sizes = tuple(int(tok) for tok in text.replace(" ", "").split(",") if tok)
    except ValueError:
        raise argparse.ArgumentTypeError(f"sizes must be comma-separated integers, got {text!r}")
    if not sizes:
        raise argparse.ArgumentTypeError("need at least one size")
    return sizes


def _int_at_least(name: str, low: int):
    def parse(text: str) -> int:
        if not text.strip().isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(f"{name} must be an integer >= {low}, got {text!r}")
        return int(text)

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="xplab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    growth = sub.add_parser("growth", help="run the trace-norm growth experiment")
    growth.add_argument("--sizes", type=_parse_sizes, required=True,
                        help="comma-separated instance sizes, ascending")
    growth.add_argument("--eps", default="constant", choices=sorted(_EPS_ALIASES),
                        help="epsilon schedule")
    growth.add_argument("--out", default=None, help="CSV output path")
    growth.add_argument("--json", dest="json_path", default=None, help="JSON output path")
    growth.add_argument("--besov-max-size", type=int, default=64,
                        help="largest size for which besov_estimate is computed: an estimate "
                             "of the unscaled f on a periodized grid, the same under every "
                             "--eps, neither an upper nor a lower bound")

    verify = sub.add_parser("verify", help="run the randomized identity suites")
    verify.add_argument("--seed", type=_int_at_least("seed", 0), default=42)
    verify.add_argument("--trials", type=_int_at_least("trials", 1), default=100)

    besov_help = ("Besov estimate of a named function on its fixed periodized grid: "
                  "neither an upper nor a lower bound")
    besov = sub.add_parser("besov", help=besov_help, description=besov_help)
    besov.add_argument("--fn", required=True,
                       help="eta | psi | phi_tri:<n> | f3:<n>")
    besov.add_argument("--json", dest="json_path", default=None, help="JSON output path")
    return parser


def _run_growth(args) -> int:
    config = ExperimentConfig(
        sizes=args.sizes,
        epsilon_schedule=_EPS_ALIASES[args.eps],
        besov_max_size=args.besov_max_size,
    )
    try:
        config.validate()
        _check_outputs(args.out, args.json_path)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    report = cmd_growth(config, csv_path=args.out, json_path=args.json_path)
    for row in report.rows:
        besov = "-" if row.besov_estimate is None else f"{row.besov_estimate:.6f}"
        print(
            f"n={row.n:<5d} s1_diff={row.s1_diff_norm:.6f} pert={row.perturbation_s1:.6f} "
            f"sup={row.sup_norm:.6f} besov={besov} ratio={row.ratio:.6f}"
        )
    if report.fit_a is None:
        print("fit: needs at least two sizes")
    else:
        print(f"fit: ratio ~ {report.fit_a:.4f} + {report.fit_b:.4f} ln n  (r^2 = {report.fit_r2:.6f})")
    return 0


def _run_verify(args) -> int:
    summary = cmd_verify(seed=args.seed, trials=args.trials)
    for line in summary.lines():
        print(line)
    if summary.all_passed:
        print("all suites passed")
        return 0
    print("suite failure", file=sys.stderr)
    return 1


def _run_besov(args) -> int:
    try:
        _check_outputs(args.json_path)
        report = cmd_besov(args.fn)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    for line in report.lines():
        print(line)
    if args.json_path is not None:
        with open(args.json_path, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=2, allow_nan=False)
            fh.write("\n")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "growth":
        return _run_growth(args)
    if args.command == "verify":
        return _run_verify(args)
    return _run_besov(args)


if __name__ == "__main__":
    sys.exit(main())
