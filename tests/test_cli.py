import ast
import csv
import importlib.util
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

import xplab
from xplab import besov, cli, counterexample, experiment, opint, perturbation
from xplab.cli import main
from xplab.experiment import SuiteResult


def u_n_ratio(n):
    """Closed-form growth ratio from the singular values of ``U_n``."""
    s1 = math.fsum(1.0 / (2.0 * math.sin((2 * k + 1) * math.pi / (2 * (2 * n + 1))))
                   for k in range(n))
    return s1 / (2.0 * math.pi * n)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def load_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=_reject_constant)


def run_growth(tmp_path, tag, *extra, sizes="4,8"):
    csv_path = tmp_path / f"{tag}.csv"
    json_path = tmp_path / f"{tag}.json"
    code = main(["growth", "--sizes", sizes, "--besov-max-size", "0",
                 "--out", str(csv_path), "--json", str(json_path), *extra])
    assert code == 0
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return rows, load_json(json_path)


class TestGrowth:
    def test_csv_and_json_agree_with_oracle(self, tmp_path):
        csv_rows, report = run_growth(tmp_path, "a")
        json_rows = report["rows"]
        assert [r["n"] for r in json_rows] == [4, 8]
        assert len(csv_rows) == len(json_rows)
        for c, j in zip(csv_rows, json_rows):
            assert set(c) == set(j)
            for key, value in j.items():
                if value is None:
                    assert c[key] == ""
                else:
                    assert float(c[key]) == value
            assert abs(j["ratio"] - u_n_ratio(j["n"])) <= 1e-9
        assert set(report["config"]) == {"sizes", "besov_max_size"}

    def test_runs_identical_apart_from_timings(self, tmp_path):
        runs = [run_growth(tmp_path, tag) for tag in ("a", "b")]
        for csv_rows, report in runs:
            for r in csv_rows + report["rows"]:
                r.pop("wall_time_ms")
        assert runs[0] == runs[1]

    def test_rows_against_oracle(self, tmp_path, monkeypatch):
        calls = []
        original = counterexample.difference_matrix

        def counted(inst):
            calls.append(inst.n)
            return original(inst)

        for module in (counterexample, experiment):
            monkeypatch.setattr(module, "difference_matrix", counted, raising=False)
        _, report = run_growth(tmp_path, "oracle", sizes="4,8,16")
        assert calls == [4, 8, 16]  # one operator integral per size
        for row in report["rows"]:
            n = row["n"]
            # ||U_n||_S1 / n = 2 pi times the closed-form ratio
            assert row["s1_diff_norm"] == pytest.approx(2.0 * math.pi * u_n_ratio(n), rel=1e-12)
            assert row["perturbation_s1"] == pytest.approx(2.0 * math.pi, rel=1e-12)
            assert row["sup_norm"] == 1.0
            assert row["ratio"] == pytest.approx(
                row["s1_diff_norm"] / (row["sup_norm"] * row["perturbation_s1"]), rel=1e-12)
            assert abs(row["ratio"] - u_n_ratio(n)) <= 1e-9

    def test_certifies_sup_norm_once_per_size(self, monkeypatch):
        calls = []
        original = counterexample.certified_sup_norm

        def counted(inst):
            calls.append(inst.n)
            return original(inst)

        for module in (counterexample, experiment):
            monkeypatch.setattr(module, "certified_sup_norm", counted, raising=False)
        experiment.cmd_growth(experiment.ExperimentConfig(sizes=(4, 8, 16), besov_max_size=0))
        assert calls == [4, 8, 16]

    def test_besov_column(self, tmp_path, capsys):
        # the column is the f3 Besov report of each size up to --besov-max-size
        csv_rows, report = run_growth(tmp_path, "besov", "--besov-max-size", "8", sizes="4,8,16")
        rows = report["rows"]
        for row in rows[:2]:
            assert row["besov_estimate"] == experiment.cmd_besov(f"f3:{row['n']}").breakdown.total
        assert rows[2]["n"] == 16 and rows[2]["besov_estimate"] is None
        assert csv_rows[2]["besov_estimate"] == ""
        out = capsys.readouterr().out.splitlines()
        assert [line.startswith("n=16") and "besov=-" in line for line in out[:3]] == [False, False, True]

    def test_stdout_is_the_report_lines(self, capsys):
        config = experiment.ExperimentConfig(sizes=(4, 8, 16), besov_max_size=8)
        assert main(["growth", "--sizes", "4,8,16", "--besov-max-size", "8"]) == 0
        assert capsys.readouterr().out == "\n".join(experiment.cmd_growth(config).lines()) + "\n"

    def test_headline_fit_grows_like_log_n(self):
        # the ROADMAP's headline sizes: a slope below the asymptotic 1 / (2 pi^2) and a
        # straight line in ln n (b = 0.04758 and r^2 = 0.99944 here)
        a, b, r_squared = experiment.cmd_growth(
            experiment.ExperimentConfig(sizes=(8, 16, 32, 64, 128, 256), besov_max_size=0)).fit
        assert 0.045 <= b <= 1.0 / (2.0 * math.pi**2)
        assert r_squared >= 0.999

    def test_single_size_writes_null_fit(self, tmp_path, capsys):
        json_path = tmp_path / "one.json"
        code = main(["growth", "--sizes", "8", "--besov-max-size", "0", "--json", str(json_path)])
        assert code == 0
        assert load_json(json_path)["fit"] == {"a": None, "b": None, "r_squared": None}
        assert "fit: needs at least two sizes" in capsys.readouterr().out


def test_docstring_usage_lines_parse():
    # every usage line of the module docstring, optional [groups] included
    usage = [line.replace("[", "").replace("]", "").split()[1:]
             for line in cli.__doc__.splitlines() if line.strip().startswith("xplab ")]
    assert [argv[0] for argv in usage] == ["growth", "verify", "besov"]
    for argv in usage:
        cli._build_parser().parse_args(argv)


class TestVerify:
    def test_passes(self, capsys):
        assert main(["verify", "--trials", "3"]) == 0
        out = capsys.readouterr().out
        assert "[FAIL]" not in out
        assert "all suites passed" in out

    def test_lines_pinned(self):
        assert experiment.cmd_verify(seed=1, trials=25).lines() == [
            "[PASS] perturbation identity (trace norm): max residual 4.826e-14 (tol 1.0e-09)",
            "[PASS] separated triple difference: max residual 3.519e-14 (tol 1.0e-09)",
            "[PASS] Hilbert-Schmidt contraction: max residual 8.820e-01 (tol 1.0e+00)",
            "[PASS] window partition of unity: max residual 0.000e+00 (tol 1.0e-09)",
            "[PASS] eta lattice certificate: max residual 0.000e+00 (tol 1.0e-12)",
            "[PASS] Schatten norm invariances: max residual 7.105e-15 (tol 1.0e-10)",
        ]

    def test_lines_pinned_seed_42(self):
        assert experiment.cmd_verify(seed=42, trials=60).lines() == [
            "[PASS] perturbation identity (trace norm): max residual 1.257e-13 (tol 1.0e-09)",
            "[PASS] separated triple difference: max residual 3.458e-14 (tol 1.0e-09)",
            "[PASS] Hilbert-Schmidt contraction: max residual 6.776e-01 (tol 1.0e+00)",
            "[PASS] window partition of unity: max residual 0.000e+00 (tol 1.0e-09)",
            "[PASS] eta lattice certificate: max residual 0.000e+00 (tol 1.0e-12)",
            "[PASS] Schatten norm invariances: max residual 1.066e-14 (tol 1.0e-10)",
        ]

    def test_lines_pinned_at_benchmark_size(self):
        # the benchmark's trial count, where every size is computed in stacks
        assert experiment.cmd_verify(seed=1, trials=250).lines() == [
            "[PASS] perturbation identity (trace norm): max residual 8.654e-14 (tol 1.0e-09)",
            "[PASS] separated triple difference: max residual 5.333e-14 (tol 1.0e-09)",
            "[PASS] Hilbert-Schmidt contraction: max residual 9.554e-01 (tol 1.0e+00)",
            "[PASS] window partition of unity: max residual 0.000e+00 (tol 1.0e-09)",
            "[PASS] eta lattice certificate: max residual 0.000e+00 (tol 1.0e-12)",
            "[PASS] Schatten norm invariances: max residual 1.421e-14 (tol 1.0e-10)",
        ]

    def test_contraction_suite_evaluates_each_field_once(self, monkeypatch):
        # each stack's field once, on the atoms of its random measures; every
        # trial's coefficients are in one stack
        fields = []
        make = experiment._bivariate

        def counted(coeffs):
            field, k = make(coeffs), len(fields)
            fields.append([coeffs[..., 0, 0].size, 0])

            def fn(x, y):
                fields[k][1] += 1
                return field(x, y)

            return fn

        monkeypatch.setattr(experiment, "_bivariate", counted)
        assert experiment._suite_hs_contraction(np.random.default_rng(3), 40).passed
        assert sum(members for members, _ in fields) == 40 and len(fields) < 40
        assert all(calls == 1 for _, calls in fields)

    def test_failing_suite_exits_one(self, monkeypatch, capsys):
        def failing(rng, trials):
            return SuiteResult("forced failure", 1.0, 0.0)

        monkeypatch.setattr(experiment, "_SUITES", (experiment._suite_eta, failing))
        assert main(["verify", "--trials", "3"]) == 1
        out = capsys.readouterr().out
        assert "[PASS] eta lattice certificate" in out
        assert "[FAIL] forced failure" in out

    def test_nan_residual_fails(self, monkeypatch, capsys):
        # max(0.0, nan) is 0.0: a NaN residual must not be dropped on the way;
        # the perturbation residual is taken in the perturbation module
        monkeypatch.setattr(experiment, "schatten_norm", lambda *args: math.nan)
        monkeypatch.setattr(perturbation, "schatten_norm",
                            lambda m, p: np.full(np.shape(m)[:-2], math.nan))
        assert main(["verify", "--trials", "2"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] perturbation identity (trace norm): max residual nan" in out
        assert "all suites passed" not in out

    def test_contraction_violation_fails(self, monkeypatch, capsys):
        # a violated contraction is a failed suite line, not a traceback
        doi = opint.doi
        monkeypatch.setattr(opint, "doi", lambda *args: 2.0 * doi(*args))
        assert main(["verify", "--trials", "4"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] Hilbert-Schmidt contraction" in out
        assert "all suites passed" not in out

    @pytest.mark.parametrize("module, kernel, wrong, name", [
        (perturbation, "psi_difference", lambda f: lambda *a: f(*a) * (1 + 1e-6),
         "perturbation identity (trace norm)"),
        (experiment, "separated_difference", lambda f: lambda *a: f(*a) * (1 + 1e-6),
         "separated triple difference"),
        # an inequality fails only past its slack: the worst lhs / rhs here is 0.88
        (opint, "doi", lambda f: lambda *a: f(*a) * 1.25, "Hilbert-Schmidt contraction"),
        (experiment, "window", lambda f: lambda s: f(s) * (1 + 1e-6), "window partition of unity"),
        (experiment, "eta", lambda f: lambda x: f(x) * (1 + 1e-6), "eta lattice certificate"),
        (experiment, "singular_values", lambda f: lambda m: f(m.real + 1j * (1 + 1e-6) * m.imag),
         "Schatten norm invariances"),
    ], ids=["perturbation", "separated", "contraction", "window", "eta", "schatten"])
    def test_each_suite_can_fail(self, monkeypatch, module, kernel, wrong, name):
        # verify prints only checks that can fail: a slightly wrong kernel fails its suite
        monkeypatch.setattr(module, kernel, wrong(getattr(module, kernel)))
        lines = experiment.cmd_verify(seed=1, trials=25).lines()
        assert [line for line in lines if f"] {name}:" in line][0].startswith("[FAIL]")

    def test_internal_error_propagates(self, monkeypatch):
        # a ValueError raised inside a suite is a bug, not a configuration error
        def broken(rng, trials):
            raise ValueError("matrix is not Hermitian")

        monkeypatch.setattr(experiment, "_SUITES", (experiment._suite_eta, broken))
        with pytest.raises(ValueError, match="not Hermitian"):
            main(["verify", "--trials", "3"])


class TestBesov:
    def test_json_round_trip(self, tmp_path, capsys):
        json_path = tmp_path / "eta.json"
        assert main(["besov", "--fn", "eta", "--json", str(json_path)]) == 0
        written = load_json(json_path)
        assert written == experiment.cmd_besov("eta").to_dict()
        assert f"besov_estimate  {written['besov_estimate']!r}" in capsys.readouterr().out

    @pytest.mark.parametrize("n, code", [(249, 0), (250, 2)])
    def test_slice_budget_checked_before_pieces(self, monkeypatch, capsys, n, code):
        # from n = 250 the plane is 4096^2 and 15 middle-frequency slices
        # need 4.0 GB; at n = 249 it is 2048^2 and they fit in 1.0 GB
        reached = []
        monkeypatch.setattr(besov, "_separable_piece_sup", lambda *args: reached.append(args[-1]) or 0.0)
        assert main(["besov", "--fn", f"f3:{n}"]) == code
        if code == 2:
            assert not reached
            assert "over the 1.4 GB budget" in capsys.readouterr().err
        else:
            assert reached

    @pytest.mark.parametrize("name", ["f3:x", "f3:1_6", "f3:+8", "f3:08", "phi_tri: 8", "gauss"])
    def test_bad_function_name_exits_two(self, monkeypatch, capsys, name):
        # int() reads "1_6", "+8", "08" and " 8", but each would be a second name for one function
        for fn in ("build_instance", "sample_eta_1d", "sample_phi_2d", "sample_instance"):
            monkeypatch.setattr(experiment, fn, _no_computation)
        assert main(["besov", "--fn", name]) == 2
        assert "config error" in capsys.readouterr().err

    def test_slice_budget_checked_before_sampling(self, monkeypatch, capsys):
        # the 4096^2 plane of f3:250 is never sampled
        monkeypatch.setattr(experiment, "sample_instance", _no_computation)
        assert main(["besov", "--fn", "f3:250"]) == 2
        assert "over the 1.4 GB budget" in capsys.readouterr().err

    def test_plane_budget_checked_before_sampling(self, monkeypatch, capsys):
        # the 8192^2 plane of phi_tri:506 is never sampled; the 4096^2 plane
        # of phi_tri:505 passes the check and reaches the sampler
        monkeypatch.setattr(experiment, "sample_phi_2d", _no_computation)
        assert main(["besov", "--fn", "phi_tri:506"]) == 2
        assert "over the 1.4 GB budget" in capsys.readouterr().err
        with pytest.raises(AssertionError, match="computation started"):
            experiment.cmd_besov("phi_tri:505")


def _no_computation(*args, **kwargs):
    raise AssertionError("computation started before the arguments were checked")


class TestConfigErrors:
    @pytest.fixture(autouse=True)
    def forbid_computation(self, monkeypatch):
        # growth still validates its configuration; no size runs
        monkeypatch.setattr(experiment, "_grow_one", _no_computation)
        monkeypatch.setattr(cli, "cmd_besov", _no_computation)
        monkeypatch.setattr(experiment, "_SUITES", (_no_computation,))

    @pytest.mark.parametrize("trials", ["0", "-3", "2.5"])
    def test_bad_trials(self, capsys, trials):
        with pytest.raises(SystemExit) as exc:
            main(["verify", f"--trials={trials}"])
        assert exc.value.code == 2
        assert f"argument --trials: trials must be an integer >= 1, got {trials!r}" in capsys.readouterr().err

    def test_negative_seed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--seed=-1"])
        assert exc.value.code == 2
        assert "argument --seed: seed must be an integer >= 0, got '-1'" in capsys.readouterr().err

    @pytest.mark.parametrize("sizes, message", [
        ("4,x", "comma-separated integers"),
        ("4.5", "comma-separated integers"),
        (",", "need at least one size"),
        ("", "need at least one size"),
    ])
    def test_bad_sizes(self, capsys, sizes, message):
        with pytest.raises(SystemExit) as exc:
            main(["growth", "--sizes", sizes])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_negative_besov_max_size(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["growth", "--sizes", "4,8", "--besov-max-size=-1"])
        assert exc.value.code == 2
        assert ("argument --besov-max-size: besov max size must be an integer >= 0, got '-1'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("token", ["1 6", "1_6", "+32", "٣", " +0_0", "08"])
    @pytest.mark.parametrize("argv, message", [
        (["growth", "--sizes"], "sizes must be comma-separated integers"),
        (["growth", "--sizes", "4,8", "--besov-max-size"],
         "besov max size must be an integer >= 0"),
        (["verify", "--trials"], "trials must be an integer >= 1"),
        (["verify", "--seed"], "seed must be an integer >= 0"),
    ], ids=["sizes", "besov-max-size", "trials", "seed"])
    def test_integers_are_plain_digits(self, capsys, argv, message, token):
        # int(), or int() after deleting spaces, reads each token as a second spelling of a number
        with pytest.raises(SystemExit) as exc:
            main([*argv[:-1], f"{argv[-1]}={token}"])
        assert exc.value.code == 2
        assert f"{message}, got {token!r}" in capsys.readouterr().err

    def test_plain_integers_parse(self):
        parse = cli._build_parser().parse_args
        args = parse(["growth", "--sizes", " 4, 8 ,,", "--besov-max-size", " 0"])
        assert (args.sizes, args.besov_max_size) == ((4, 8), 0)
        args = parse(["verify", "--seed", "0", "--trials", "10 "])
        assert (args.seed, args.trials) == (0, 10)

    @pytest.mark.parametrize("json_name", ["same.out", "sub/../same.out", "link.out"])
    def test_growth_outputs_name_one_file(self, tmp_path, capsys, json_name):
        (tmp_path / "sub").mkdir()
        (tmp_path / "link.out").symlink_to(tmp_path / "same.out")
        assert main(["growth", "--sizes", "4,8", "--out", str(tmp_path / "same.out"),
                     "--json", str(tmp_path / json_name)]) == 2
        assert "name the same file" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["growth", "--sizes", "4,8", "--out"],
        ["growth", "--sizes", "4,8", "--json"],
        ["besov", "--fn", "eta", "--json"],
    ])
    @pytest.mark.parametrize("where", ["missing_dir", "file_as_dir", "directory", "read_only",
                                       "read_only_file"])
    def test_unwritable_output(self, tmp_path, monkeypatch, capsys, command, where):
        (tmp_path / "plain.txt").write_text("x")
        path = {
            "missing_dir": tmp_path / "missing" / "out",
            "file_as_dir": tmp_path / "plain.txt" / "out",
            "directory": tmp_path,
            "read_only": tmp_path / "out",
            "read_only_file": tmp_path / "plain.txt",
        }[where]
        # permission bits do not bind a superuser, so stand in for them
        if where == "read_only":
            monkeypatch.setattr(os, "access", lambda p, mode: False)
        if where == "read_only_file":
            # the directory stays writable: open(path, "w") alone would fail after the run
            access = os.access
            monkeypatch.setattr(os, "access", lambda p, mode: access(p, mode) and os.path.isdir(p))
        assert main([*command, str(path)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert (tmp_path / "plain.txt").read_text() == "x"


def test_growth_besov_budget_checked_before_any_size(monkeypatch, capsys):
    # the 4096^2 plane of size 250 fails the slice budget of the besov cross-check
    monkeypatch.setattr(experiment, "_grow_one", _no_computation)
    assert main(["growth", "--sizes", "8,250", "--besov-max-size", "250"]) == 2
    err = capsys.readouterr().err
    assert "config error: besov estimate at size 250" in err
    assert "over the 1.4 GB budget" in err
    with pytest.raises(ValueError, match="over the 1.4 GB budget"):
        experiment.cmd_growth(experiment.ExperimentConfig(sizes=(8, 250), besov_max_size=250))
    experiment.ExperimentConfig(sizes=(8, 250), besov_max_size=249).validate()


def test_growth_matrix_memory_checked_before_any_size(monkeypatch, capsys):
    # 4 n^2 float64 at n = 100000 is 320 GB; numpy would fail only after the smaller sizes ran
    monkeypatch.setattr(experiment, "_grow_one", _no_computation)
    assert main(["growth", "--sizes", "8,100000", "--besov-max-size", "0"]) == 2
    assert "config error: the matrix path at size 100000 needs 320.0 GB (4 n^2 float64)" in capsys.readouterr().err


def test_matrix_budget_follows_the_measured_peak(monkeypatch, capsys):
    # a machine of 4 * 100^2 float64: size 100 fits, although 8 n^2 would not; 101 exits 2
    # before any size runs
    pages = {"SC_PAGE_SIZE": 8, "SC_PHYS_PAGES": 4 * 100 * 100}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    assert 8 * 100 * 100 * 8 > pages["SC_PAGE_SIZE"] * pages["SC_PHYS_PAGES"]
    assert main(["growth", "--sizes", "4,100", "--besov-max-size", "0"]) == 0
    monkeypatch.setattr(experiment, "_grow_one", _no_computation)
    assert main(["growth", "--sizes", "4,101", "--besov-max-size", "0"]) == 2
    assert "config error: the matrix path at size 101 needs" in capsys.readouterr().err


@pytest.mark.parametrize("n, fits", [(100, True), (101, False)])
def test_matrix_budget_is_physical_memory(monkeypatch, n, fits):
    # a machine of exactly 4 * 100^2 float64
    pages = {"SC_PAGE_SIZE": 8, "SC_PHYS_PAGES": 4 * 100 * 100}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    config = experiment.ExperimentConfig(sizes=(4, n), besov_max_size=0)
    if fits:
        config.validate()
    else:
        with pytest.raises(ValueError, match="size 101 needs"):
            config.validate()


@pytest.mark.parametrize("field, value", [
    ("sizes", (4.5, 8)),
    ("sizes", ("8",)),
    ("sizes", (True, 8)),
    ("besov_max_size", True),
])
def test_library_growth_rejects_non_integer_sizes(monkeypatch, field, value):
    monkeypatch.setattr(experiment, "_grow_one", _no_computation)
    config = experiment.ExperimentConfig(**{"sizes": (4, 8), "besov_max_size": 0, field: value})
    with pytest.raises(ValueError, match="integer"):
        experiment.cmd_growth(config)


def test_numpy_integer_sizes_reach_the_json():
    # validate accepts numpy integers, so the report must hold plain ints
    config = experiment.ExperimentConfig(sizes=(np.int64(4), np.int64(8)),
                                         besov_max_size=np.int64(0))
    report = experiment.cmd_growth(config)
    assert json.loads(json.dumps(report.to_dict()))["config"] == {"sizes": [4, 8], "besov_max_size": 0}
    assert all(type(n) is int for n in (*report.config.sizes, report.config.besov_max_size))


def test_json_writer_serializes_before_opening(tmp_path):
    path = tmp_path / "out.json"
    path.write_text("kept\n")
    with pytest.raises(TypeError, match="not JSON serializable"):
        cli._write_json(str(path), {"n": np.int64(4)})
    assert path.read_text() == "kept\n"


def _validate(**kwargs):
    experiment.ExperimentConfig(**kwargs).validate()


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda: _validate(sizes=()), "at least one size", id="no-sizes"),
    pytest.param(lambda: _validate(sizes=(1, 4)), "at least 2", id="size-below-2"),
    pytest.param(lambda: _validate(sizes=(8, 4)), "strictly ascending", id="descending"),
    pytest.param(lambda: _validate(sizes=(4, 4)), "strictly ascending", id="repeated"),
    pytest.param(lambda: cli._check_outputs(""), "output path is empty", id="empty-path"),
    pytest.param(lambda: experiment.cmd_verify(trials=0), "trials must be at least 1",
                 id="zero-trials"),
    pytest.param(lambda: experiment.cmd_besov("f3:x"), "bad size", id="besov-bad-size"),
    pytest.param(lambda: experiment.cmd_besov("f3:1_6"), "bad size", id="besov-underscore"),
    pytest.param(lambda: experiment.cmd_besov("f3:+8"), "bad size", id="besov-plus-sign"),
    pytest.param(lambda: experiment.cmd_besov("f3:08"), "bad size", id="besov-leading-zero"),
    pytest.param(lambda: experiment.cmd_besov("phi_tri: 8"), "bad size", id="besov-inner-space"),
    pytest.param(lambda: experiment.cmd_besov("phi_tri:1"), "at least 2", id="besov-size-1"),
    pytest.param(lambda: experiment.cmd_besov("gauss"), "unknown function name",
                 id="besov-unknown"),
])
def test_experiment_rejects_bad_input(monkeypatch, call, match):
    for name in ("_grow_one", "sample_eta_1d", "sample_phi_2d", "sample_instance"):
        monkeypatch.setattr(experiment, name, _no_computation)
    monkeypatch.setattr(experiment, "_SUITES", (_no_computation,))
    with pytest.raises(ValueError, match=match):
        call()


def test_no_environment_knobs():
    src = Path(xplab.__file__).parent
    for module in sorted(src.glob("*.py")):
        text = module.read_text(encoding="utf-8")
        assert "os.environ" not in text, module.name
        assert "os.getenv" not in text, module.name


def test_traced_layers_resolve(monkeypatch):
    # every function the benchmark's tracer wraps must exist in xplab
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    if not path.is_file():
        pytest.skip("no perfbench/tracing.py")
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{layer}.{fn}" for layer, names in tracing.LAYERS.items() for fn in names
               if not callable(getattr(importlib.import_module(f"xplab.{layer}"), fn, None))]
    assert missing == []


def test_no_unused_imports():
    """Every name a module imports is referenced in its code or annotations;
    listing it in ``__all__`` (a re-export) does not count."""
    src = Path(xplab.__file__).parent
    for module in sorted(src.glob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, f"{module.name} never uses {sorted(imported - used)}"


def test_all_entries_defined():
    """Every ``__all__`` entry is defined in its module, so a star import works."""
    src = Path(xplab.__file__).parent
    for module in sorted(src.glob("*.py")):
        name = "xplab" if module.stem == "__init__" else f"xplab.{module.stem}"
        mod = importlib.import_module(name)
        missing = [entry for entry in getattr(mod, "__all__", ()) if not hasattr(mod, entry)]
        assert not missing, f"{module.name} lists undefined {missing}"


def test_no_catch_all_handlers():
    """No bare ``except:`` and no ``except Exception`` / ``BaseException``:
    a catch-all that re-raises under another type hides bugs as bad input."""
    src = Path(xplab.__file__).parent
    broad = {"Exception", "BaseException"}
    for module in sorted(src.glob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            names = {c.id for c in caught if isinstance(c, ast.Name)}
            assert node.type is not None and not names & broad, f"{module.name}:{node.lineno}"
