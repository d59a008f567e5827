"""Command-line driver.

    xplab growth --sizes 4,8,16,32 --out report.csv [--json report.json]
    xplab verify --seed 42 --trials 100
    xplab besov --fn f3:32 [--json out.json]

The commands compute and return reports; this module prints them and
writes every file.  Exit codes: 0 success, 1 suite failure, 2 configuration
error: a bad argument, any ``ValueError`` that ``growth`` or ``besov``
raises, an output directory that is missing or not writable, an existing
output file that is not writable, or two outputs naming one file.  Output
paths are checked before the command runs, so a bad path fails fast.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .experiment import ExperimentConfig, _plain_int, cmd_besov, cmd_growth, cmd_verify

def _parse_sizes(text: str) -> tuple:
    error = argparse.ArgumentTypeError(f"sizes must be comma-separated integers, got {text!r}")
    sizes = tuple(_plain_int(tok.strip(), 0, error) for tok in text.split(",") if tok.strip())
    if not sizes:
        raise argparse.ArgumentTypeError("need at least one size")
    return sizes


def _int_at_least(name: str, low: int):
    return lambda text: _plain_int(text.strip(), low, argparse.ArgumentTypeError(
        f"{name} must be an integer >= {low}, got {text!r}"))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="xplab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    growth_help = ("run the trace-norm growth experiment; s1_diff and ratio are certified lower "
                   "bounds, about 30 sqrt(n) 2^-53 relative below exact, and pert an upper bound")
    growth = sub.add_parser("growth", help=growth_help, description=growth_help)
    growth.add_argument("--sizes", type=_parse_sizes, required=True,
                        help="comma-separated instance sizes, ascending")
    growth.add_argument("--out", default=None, help="CSV output path")
    growth.add_argument("--json", dest="json_path", default=None, help="JSON output path")
    growth.add_argument("--besov-max-size", type=_int_at_least("besov max size", 0), default=64,
                        help="largest size for which besov_estimate is computed: an estimate "
                             "of f on a periodized grid, neither an upper nor a lower bound")

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


def _check_outputs(*paths) -> None:
    """Raise ``ValueError`` unless an output file can be written at each
    path (``None`` means no output) and no two paths name the same file."""
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
        if os.path.exists(path) and not os.access(path, os.W_OK):
            raise ValueError(f"output file {path!r} exists and is not writable")
    real = [os.path.realpath(p) for p in paths if p is not None]
    if len(set(real)) < len(real):
        raise ValueError(f"output paths {paths!r} name the same file; each report needs its own")


def _write_json(path, data) -> None:
    """Write ``data`` as indented JSON.  It is serialized before the file is
    opened, so a value JSON cannot hold leaves no truncated file behind."""
    text = json.dumps(data, indent=2, allow_nan=False) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_csv(path, rows) -> None:
    """Write the JSON report's growth rows as CSV, one column per key.  A
    cell is the ``repr`` of its value, the string JSON holds, and empty for
    ``None``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(rows[0].keys())
        writer.writerows(["" if v is None else repr(v) for v in r.values()] for r in rows)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "verify":
        summary = cmd_verify(seed=args.seed, trials=args.trials)
        for line in summary.lines():
            print(line)
        if summary.all_passed:
            print("all suites passed")
            return 0
        print("suite failure", file=sys.stderr)
        return 1

    csv_path = getattr(args, "out", None)
    try:
        _check_outputs(csv_path, args.json_path)
        if args.command == "growth":
            report = cmd_growth(ExperimentConfig(sizes=args.sizes, besov_max_size=args.besov_max_size))
        else:
            report = cmd_besov(args.fn)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    for line in report.lines():
        print(line)
    data = report.to_dict()
    if csv_path is not None:
        _write_csv(csv_path, data["rows"])
    if args.json_path is not None:
        _write_json(args.json_path, data)
    return 0


if __name__ == "__main__":
    sys.exit(main())
