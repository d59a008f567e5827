"""Benchmark driver for xplab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run it from the root of a source tree; the program under test is the
``src/xplab`` of that tree, run as one fresh ``python -m xplab.cli`` process
at a time with the environment (thread settings included) left as found.

``--trace 0`` runs the workload's command once to warm up, then times it and
prints the end-to-end metrics of ``BENCHMARK.json``: the median wall time,
the median set-up time (spawn until ``xplab.cli`` is imported, from probe
processes started before each timed run) and the median peak RSS of the
child, read from its own rusage.  ``--trace 1``
alternates an untraced run and a run under ``perfbench/tracing.py`` and
prints the per-layer metrics.  Every run's output is checked against the
workload's oracle (``perfbench/workloads.py``).  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the full result, with provenance and every sample, goes to
``perfbench/out/``.  ``--smoke`` runs tiny versions of all workloads, traced
and untraced, and exits 1 if any output is wrong.

Exit codes: 0 result printed, 1 smoke failure, 2 no program to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from tracing import LAYERS, median_metrics
from workloads import SMOKE, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
CLI = SRC / "xplab" / "cli.py"
TRACED_CHILD = ROOT / "perfbench" / "tracing.py"
SETUP_PROBES_PER_RUN = 2
THREAD_ENV = ("XPLAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
PROBE = "import sys, xplab.cli; sys.stdout.write(xplab.cli.__file__ + '\\n'); sys.stdout.flush()"


class SetupError(RuntimeError):
    """The tree has no program to measure, or the wrong one gets imported."""


@dataclass
class Sample:
    """One run of a workload's command."""

    traced: bool
    wall_s: float
    peak_rss_mb: float
    cpu_s: float
    returncode: int
    problems: list = field(default_factory=list)
    warmup: bool = False


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _reap(proc: subprocess.Popen, start: float):
    """Wait for ``proc`` and return its wall time and its own rusage."""
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage


def probe_setup() -> float:
    """Seconds from spawn until a fresh interpreter has imported ``xplab.cli``."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", PROBE], stdout=subprocess.PIPE,
                            env=child_env(), cwd=ROOT, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    proc.stdout.read()
    proc.stdout.close()
    _reap(proc, start)
    if proc.returncode != 0 or not line.strip():
        raise SetupError("xplab.cli could not be imported")
    if Path(line.strip()).resolve() != CLI.resolve():
        raise SetupError(f"xplab.cli was imported from {line.strip()}, not from {CLI}")
    return ready


def run_once(workload: Workload, seed: int, traced: bool = False):
    """Run the workload's command once; return the sample and, when traced,
    the per-layer metrics and missing functions of the traced child."""
    tag = f"{workload.name}.{os.getpid()}"
    report = OUT / f"{tag}.report.json"
    spans = OUT / f"{tag}.spans.json"
    for path in (report, spans):
        path.unlink(missing_ok=True)
    xargs = workload.argv(seed, str(report))
    if traced:
        argv = [sys.executable, str(TRACED_CHILD), "--spans", str(spans), "--", *xargs]
    else:
        argv = [sys.executable, "-m", "xplab.cli", *xargs]
    with tempfile.TemporaryFile("w+", dir=OUT, encoding="utf-8") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, env=child_env(), cwd=ROOT)
        wall, usage = _reap(proc, start)
        out.seek(0)
        stdout = out.read()
    sample = Sample(
        traced=traced,
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        cpu_s=usage.ru_utime + usage.ru_stime,
        returncode=proc.returncode,
        problems=workload.check(proc.returncode, stdout, str(report)),
    )
    layers = None
    if traced:
        layers = summarize_spans(spans)
        if layers is None:
            sample.problems.append("traced child wrote no spans")
    for path in (report, spans):
        path.unlink(missing_ok=True)
    return sample, layers


def summarize_spans(spans: Path) -> dict | None:
    """Per-layer metrics of a spans file, computed in a child process so that
    the driver stays small: on Linux a child's ``ru_maxrss`` starts from the
    RSS of the process that spawned it."""
    if not spans.is_file():
        return None
    proc = subprocess.run([sys.executable, str(TRACED_CHILD), "--spans", str(spans), "--summarize"],
                          capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        return None
    return json.loads(proc.stdout)


def measure(workload: Workload, seed: int, seconds: float):
    """End-to-end metrics: one warm-up run, then the command started again
    until ``seconds`` have passed, with set-up probes before each run so that
    they see the same host as the runs.  The warm-up run is checked but not
    timed."""
    samples = [run_once(workload, seed)[0]]
    samples[0].warmup = True
    setups = []
    start = time.perf_counter()
    while len(samples) < 2 or time.perf_counter() - start < seconds:
        setups += [probe_setup() for _ in range(SETUP_PROBES_PER_RUN)]
        samples.append(run_once(workload, seed)[0])
    timed = samples[1:]
    metrics = {
        "wall_s": statistics.median(s.wall_s for s in timed),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in timed),
    }
    return metrics, samples, {"setup_s": setups}


def traced_pair(workload: Workload, seed: int):
    """One untraced and one traced run; per-layer metrics of the pair."""
    plain, _ = run_once(workload, seed)
    traced, layers = run_once(workload, seed, traced=True)
    layers = layers or {"metrics": {}, "missing": []}
    metrics = layers["metrics"]
    metrics["proc.cpu_s"] = plain.cpu_s
    metrics["trace.overhead_frac"] = traced.wall_s / plain.wall_s - 1.0
    return [plain, traced], metrics, layers["missing"]


def measure_traced(workload: Workload, seed: int, seconds: float):
    """Per-layer metrics: medians over traced pairs, started again until
    ``seconds`` have passed."""
    start = time.perf_counter()
    samples, runs, missing = [], [], set()
    while not runs or time.perf_counter() - start < seconds:
        pair, metrics, gone = traced_pair(workload, seed)
        samples += pair
        runs.append(metrics)
        missing.update(gone)
    return median_metrics(runs), samples, {"missing_functions": sorted(missing)}


def _git_rev() -> str | None:
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, check=True).stdout.strip()

    try:
        if Path(git("rev-parse", "--show-toplevel")).resolve() != ROOT:
            return None
        return git("rev-parse", "HEAD")
    except (OSError, subprocess.CalledProcessError):
        return None


def _tree_sha256(top: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(top.rglob("*.py")):
        digest.update(str(path.relative_to(top)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(workload: Workload, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_rev": _git_rev(),
        "src_sha256": _tree_sha256(SRC),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "seed": seed,
        "seed_used": workload.seeded,
    }


def declared_metrics(trace: bool) -> list:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def bench(workload: Workload, seed: int, seconds: float, trace: bool) -> int:
    declared = declared_metrics(trace)
    if trace:
        values, samples, extra = measure_traced(workload, seed, seconds)
    else:
        values, samples, extra = measure(workload, seed, seconds)
    failed = sum(1 for s in samples if s.problems)
    for s in samples:
        for problem in s.problems:
            print(f"{workload.name}: {problem}", file=sys.stderr)
    # a per-size split of a size the workload does not run reads 0
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0) if trace else values[m["name"]]),
                           "unit": m["unit"]}
               for m in declared}
    prov = provenance(workload, seed)
    result_path = OUT / f"{workload.name}-seed{seed}-trace{int(trace)}.json"
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({
            "workload": workload.name,
            "argv": workload.argv(seed, "<report.json>"),
            "provenance": prov,
            "samples": [asdict(s) for s in samples],
            "values": values,
            **extra,
        }, fh, indent=1)
        fh.write("\n")

    count = sum(1 for s in samples if s.traced == trace and not s.warmup)
    print(f"workload {workload.name}: {' '.join(workload.argv(seed, '<report.json>'))}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    print(f"  median over {count} {'traced ' if trace else ''}run(s); result in {result_path.relative_to(ROOT)}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0


def smoke() -> int:
    """Tiny versions of every workload, untraced and traced; 1 on any problem."""
    ok = True
    for workload in SMOKE:
        plain, _ = run_once(workload, seed=1)
        traced, layers = run_once(workload, seed=1, traced=True)
        calls = (layers or {"metrics": {}})["metrics"]
        busy = [layer for layer, names in LAYERS.items()
                if any(calls.get(f"{layer}.{fn}.calls") for fn in names)]
        problems = plain.problems + traced.problems
        ok = ok and not problems
        print(f"{workload.name}: wall {plain.wall_s:.3f} s, traced {traced.wall_s:.3f} s, "
              f"layers {','.join(busy)}: {'ok' if not problems else '; '.join(problems)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="run tiny versions of all workloads")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not CLI.is_file():
        print(f"no program to measure: {CLI.relative_to(ROOT)} is missing", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    try:
        if args.smoke:
            return smoke()
        return bench(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"no program to measure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
