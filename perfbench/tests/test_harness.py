"""Tests of the benchmark harness itself: self time, tracing across threads,
the oracles, and the smoke and no-program runs of the driver.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent.parent
RUN = ROOT / "perfbench" / "run.py"


def span(sid, start, end, parent=None, name="opint.toi", tid=1, size=None):
    return (sid, name, tid, size, start, end, parent)


# ---------------------------------------------------------------------------
# self time


def test_self_time_nested_spans():
    spans = [
        span(0, 0.0, 10.0),
        span(1, 1.0, 4.0, parent=0),
        span(2, 2.0, 3.0, parent=1),
        span(3, 5.0, 6.0, parent=0),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})


def test_self_time_counts_children_overlapping_across_threads_once():
    spans = [
        span(0, 0.0, 10.0, tid=1),
        span(1, 1.0, 6.0, parent=0, tid=2),
        span(2, 4.0, 9.0, parent=0, tid=3),
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(2.0)
    assert own[1] == pytest.approx(5.0)


def test_covered_length_clips_to_the_parent():
    assert tracing.covered_length([(-1.0, 2.0), (8.0, 12.0)], 0.0, 10.0) == pytest.approx(4.0)
    assert tracing.covered_length([], 0.0, 10.0) == 0.0


def test_summarize_splits_by_size_and_counts_threads():
    doc = {
        "spans": [
            span(0, 0.0, 4.0, name="experiment.cmd_growth", tid=1),
            span(1, 0.5, 2.0, parent=0, name="counterexample.difference_matrix", tid=2, size=64),
            span(2, 1.0, 3.5, parent=0, name="counterexample.difference_matrix", tid=3, size=512),
        ],
        "counters": {"besov.pieces": 4.0, "besov.pieces_nonzero": 1.0},
    }
    m = tracing.summarize(doc)
    assert m["counterexample.difference_matrix.calls"] == 2
    assert m["counterexample.difference_matrix.total_s.n64"] == pytest.approx(1.5)
    assert m["counterexample.difference_matrix.self_s.n512"] == pytest.approx(2.5)
    assert m["experiment.cmd_growth.self_s"] == pytest.approx(1.0)
    assert m["experiment.threads_seen"] == 3
    assert m["besov.pieces_nonzero_frac"] == pytest.approx(0.25)
    assert m["opint.doi.calls"] == 0


# ---------------------------------------------------------------------------
# the tracer on real threads


def test_tracer_parents_pool_workers_to_the_submitting_span():
    tracer = tracing.Tracer()

    def inner(x):
        time.sleep(0.01)
        return x

    inner = tracer.wrap("opint.doi", inner)

    def outer():
        with ThreadPoolExecutor(max_workers=3) as pool:
            return list(pool.map(inner, range(6)))

    outer = tracer.wrap("experiment.cmd_growth", outer)
    assert outer() == list(range(6))
    (root,) = [s for s in tracer.spans if s[1] == "experiment.cmd_growth"]
    workers = [s for s in tracer.spans if s[1] == "opint.doi"]
    assert len(workers) == 6
    assert all(s[6] == root[0] for s in workers)
    assert len({s[2] for s in workers}) > 1
    own = tracing.self_times(tracer.spans)
    assert 0.0 <= own[root[0]] < root[5] - root[4]


def test_tracer_keeps_parents_per_thread():
    tracer = tracing.Tracer()
    barrier = threading.Barrier(2, timeout=5)

    def leaf():
        barrier.wait()

    leaf = tracer.wrap("hermitian.singular_values", leaf)

    def branch():
        leaf()

    branch = tracer.wrap("hermitian.schatten_norm", branch)
    threads = [threading.Thread(target=branch) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=5)
    assert not any(t.is_alive() for t in threads)
    by_id = {s[0]: s for s in tracer.spans}
    leaves = [s for s in tracer.spans if s[1] == "hermitian.singular_values"]
    assert len(leaves) == 2
    for s in leaves:
        assert by_id[s[6]][2] == s[2]  # the parent ran on the same thread


# ---------------------------------------------------------------------------
# oracles


def test_u_n_ratio_matches_known_singular_values():
    # U_1 = [1]; U_2 has singular values golden ratio and its inverse
    assert workloads.u_n_ratio(1) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-15)
    assert workloads.u_n_ratio(2) == pytest.approx(math.sqrt(5.0) / (4.0 * math.pi), rel=1e-14)
    # the ratio xplab printed for n = 512
    assert round(workloads.u_n_ratio(512), 6) == 0.428137


def _write(tmp_path, doc) -> str:
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_growth_oracle(tmp_path):
    rows = [{"n": n, "ratio": workloads.u_n_ratio(n), "besov_estimate": None} for n in (8, 16)]
    good = _write(tmp_path, {"rows": rows})
    assert workloads.check_growth((8, 16), 0, "", good) == []
    assert workloads.check_growth((8, 16, 32), 0, "", good)
    assert workloads.check_growth((8, 16), 1, "", good)
    rows[1]["ratio"] *= 1.0 + 1e-8
    assert workloads.check_growth((8, 16), 0, "", _write(tmp_path, {"rows": rows}))
    assert workloads.check_growth((8, 16), 0, "", str(tmp_path / "missing.json"))


@pytest.mark.parametrize("n", [32, 64])
def test_besov_oracle(tmp_path, n):
    want = workloads.BESOV_F3_REFERENCE[n]
    good = _write(tmp_path, {"besov_estimate": want * (1 + 1e-12), "bandlimit_mass": 2e-16})
    assert workloads.check_besov(n, 0, "", good) == []
    off = _write(tmp_path, {"besov_estimate": want * (1 + 1e-8), "bandlimit_mass": 0.0})
    assert workloads.check_besov(n, 0, "", off)
    leaky = _write(tmp_path, {"besov_estimate": want, "bandlimit_mass": 1e-11})
    assert workloads.check_besov(n, 0, "", leaky)


def test_verify_oracle():
    ok = "[PASS] a: max residual 0\n[PASS] b: max residual 0\nall suites passed\n"
    assert workloads.check_verify(0, ok, "") == []
    assert workloads.check_verify(1, ok, "")
    assert workloads.check_verify(0, "[PASS] a\n[FAIL] b\n", "")
    assert workloads.check_verify(0, "", "")


# ---------------------------------------------------------------------------
# the driver


def test_declared_per_layer_metrics_are_produced():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced = set(tracing.summarize({"spans": [], "counters": {}}))
    produced |= {"proc.cpu_s", "trace.overhead_frac"}
    for m in spec["per_layer"]:
        base = m["name"].rsplit(".n", 1)[0] if m["name"][-1].isdigit() else m["name"]
        assert base in produced, m["name"]
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}


def test_traced_child_wraps_every_binding(tmp_path):
    out = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracing.py"), "--spans", str(out),
         "--", "verify", "--trials", "3"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["missing"] == []
    by_id = {s[0]: s for s in doc["spans"]}
    parents = {by_id[s[6]][1] for s in doc["spans"]
               if s[1] == "spectral.from_hermitian" and s[6] is not None}
    # called through xplab.experiment's binding and through xplab.perturbation's
    assert {"experiment.cmd_verify", "perturbation.perturbation_identity_residual"} <= parents


def test_smoke_runs_all_workloads():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert [line.split(":")[0] for line in lines] == [w.name for w in workloads.SMOKE]
    assert all(line.endswith(": ok") for line in lines)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode not in (0, None)
    assert proc.stdout.strip() == ""
