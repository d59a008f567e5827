import ast
import csv
import importlib.util
import json
import math
import os
import sys
from pathlib import Path

import pytest

import xplab
from xplab import besov, cli, counterexample, experiment, opint
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
        assert set(report["config"]) == {"sizes", "epsilon_schedule", "besov_max_size"}

    def test_runs_identical_apart_from_timings(self, tmp_path):
        runs = [run_growth(tmp_path, tag) for tag in ("a", "b")]
        for csv_rows, report in runs:
            for r in csv_rows + report["rows"]:
                r.pop("wall_time_ms")
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("schedule, eps", [
        ("constant", lambda n: 1.0),
        ("1/n", lambda n: 1.0 / n),
        ("1/loglog", lambda n: 1.0 / math.log(math.log(n))),
    ])
    def test_eps_schedules_against_oracle(self, tmp_path, monkeypatch, schedule, eps):
        calls = []
        original = counterexample.difference_matrix

        def counted(inst):
            calls.append(inst.n)
            return original(inst)

        for module in (counterexample, experiment):
            monkeypatch.setattr(module, "difference_matrix", counted, raising=False)
        _, report = run_growth(tmp_path, "eps", "--eps", schedule, sizes="4,8,16")
        assert calls == [4, 8, 16]  # one triple operator integral per size
        for row in report["rows"]:
            n, e = row["n"], eps(row["n"])
            # ||U_n||_S1 / n = 2 pi times the closed-form ratio
            assert row["s1_diff_norm"] == pytest.approx(e * 2.0 * math.pi * u_n_ratio(n), rel=1e-12)
            assert row["perturbation_s1"] == pytest.approx(2.0 * math.pi * e, rel=1e-12)
            assert row["sup_norm"] == pytest.approx(e, rel=1e-12)  # sup |g| = eps sup |f|
            # all three columns scale by eps; the ratio is the unscaled one
            assert row["ratio"] == pytest.approx(
                e * row["s1_diff_norm"] / (row["sup_norm"] * row["perturbation_s1"]), rel=1e-12)
            assert abs(row["ratio"] - u_n_ratio(n)) <= 1e-9

    def test_besov_column(self, tmp_path, capsys):
        # the column is the f3 Besov report of each size up to --besov-max-size
        csv_rows, report = run_growth(tmp_path, "besov", "--besov-max-size", "8", sizes="4,8,16")
        rows = report["rows"]
        for row in rows[:2]:
            assert row["besov_estimate"] == experiment.cmd_besov(f"f3:{row['n']}").estimate
        assert rows[2]["n"] == 16 and rows[2]["besov_estimate"] is None
        assert csv_rows[2]["besov_estimate"] == ""
        out = capsys.readouterr().out.splitlines()
        assert [line.startswith("n=16") and "besov=-" in line for line in out[:3]] == [False, False, True]

    def test_besov_column_independent_of_schedule(self, tmp_path):
        # the column estimates the unscaled f, so eps does not reach it
        columns = []
        for schedule in ("constant", "1/n", "1/loglog"):
            _, report = run_growth(tmp_path, "sched", "--eps", schedule,
                                   "--besov-max-size", "8", sizes="4,8")
            columns.append([row["besov_estimate"] for row in report["rows"]])
        assert columns == [[0.687561787328343, 0.689278114658612]] * 3

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
            "[PASS] rank-difference identity: max residual 3.142e-15 (tol 1.0e-09)",
            "[PASS] separated triple difference: max residual 3.519e-14 (tol 1.0e-09)",
            "[PASS] Hilbert-Schmidt contraction: max residual 0.000e+00 (tol 1.0e-10)",
            "[PASS] coordinate-atom Hadamard product: max residual 0.000e+00 (tol 1.0e-12)",
            "[PASS] window partition of unity: max residual 0.000e+00 (tol 1.0e-09)",
            "[PASS] eta lattice certificate: max residual 0.000e+00 (tol 1.0e-12)",
            "[PASS] Schatten norm invariances: max residual 7.105e-15 (tol 1.0e-10)",
        ]

    def test_failing_suite_exits_one(self, monkeypatch, capsys):
        def failing(rng, trials):
            return SuiteResult("forced failure", 1.0, 0.0)

        monkeypatch.setattr(experiment, "_SUITES", (experiment._suite_eta, failing))
        assert main(["verify", "--trials", "3"]) == 1
        out = capsys.readouterr().out
        assert "[PASS] eta lattice certificate" in out
        assert "[FAIL] forced failure" in out

    def test_nan_residual_fails(self, monkeypatch, capsys):
        # max(0.0, nan) is 0.0: a NaN residual must not be dropped on the way
        monkeypatch.setattr(experiment, "schatten_norm", lambda *args: math.nan)
        assert main(["verify", "--trials", "2"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] rank-difference identity: max residual nan" in out
        assert "all suites passed" not in out

    def test_contraction_violation_fails(self, monkeypatch, capsys):
        # a violated contraction is a failed suite line, not a traceback
        doi = opint.doi
        monkeypatch.setattr(opint, "doi", lambda *args: 2.0 * doi(*args))
        assert main(["verify", "--trials", "4"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] Hilbert-Schmidt contraction" in out
        assert "[PASS] coordinate-atom Hadamard product" in out
        assert "all suites passed" not in out

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


def _no_computation(*args, **kwargs):
    raise AssertionError("computation started before the arguments were checked")


class TestConfigErrors:
    @pytest.fixture(autouse=True)
    def forbid_computation(self, monkeypatch):
        monkeypatch.setattr(cli, "cmd_growth", _no_computation)
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

    def test_negative_besov_max_size(self, capsys):
        assert main(["growth", "--sizes", "4,8", "--besov-max-size", "-1"]) == 2
        assert "besov max size" in capsys.readouterr().err

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
    @pytest.mark.parametrize("where", ["missing_dir", "file_as_dir", "directory", "read_only"])
    def test_unwritable_output(self, tmp_path, monkeypatch, capsys, command, where):
        (tmp_path / "plain.txt").write_text("x")
        path = {
            "missing_dir": tmp_path / "missing" / "out",
            "file_as_dir": tmp_path / "plain.txt" / "out",
            "directory": tmp_path,
            "read_only": tmp_path / "out",
        }[where]
        if where == "read_only":
            # permission bits do not bind a superuser, so stand in for them
            monkeypatch.setattr(os, "access", lambda p, mode: False)
        assert main([*command, str(path)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("target", ["csv_path", "json_path"])
def test_library_growth_checks_paths_first(tmp_path, monkeypatch, target):
    monkeypatch.setattr(experiment, "_grow_one", _no_computation)
    config = experiment.ExperimentConfig(sizes=(4, 8), besov_max_size=0)
    with pytest.raises(ValueError, match="does not exist"):
        experiment.cmd_growth(config, **{target: str(tmp_path / "missing" / "out")})


def test_library_growth_rejects_one_path_for_both(tmp_path, monkeypatch):
    monkeypatch.setattr(experiment, "_grow_one", _no_computation)
    config = experiment.ExperimentConfig(sizes=(4, 8), besov_max_size=0)
    path = str(tmp_path / "report")
    with pytest.raises(ValueError, match="name the same file"):
        experiment.cmd_growth(config, csv_path=path, json_path=path)


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
