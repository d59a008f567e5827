"""Span tracing of the xplab layers, kept in memory and written out at exit.

Run as a script, this is the traced child of the benchmark::

    PYTHONPATH=src python3 perfbench/tracing.py --spans OUT.json -- growth --sizes 8,16

It imports ``xplab.cli``, wraps the public functions of each layer at every
module binding that refers to them (``from .x import y`` makes a binding per
importing module), runs ``xplab.cli.main`` on the arguments after ``--`` and
writes the spans and counters to ``OUT.json``.  Its exit code is that of
``main``.  With ``--summarize`` it instead prints the per-layer metrics of an
existing ``OUT.json``; the benchmark does this in a separate process, because
a child's peak RSS counts the RSS of the process that spawned it.

A span is ``(id, name, thread, size, start, end, parent)``.  Parents are
tracked per thread.  A span that opens on a thread with no open span of its
own (a worker of ``cmd_growth``'s pool) takes as parent the innermost span
open on the thread that installed the tracer, which is the one that handed
the work out.  Self time is the span's duration minus the part of it that
the union of its children covers, so children that overlap on several
threads are not subtracted twice.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import itertools
import json
import math
import statistics
import sys
import threading
import time
from collections import defaultdict

LAYERS = {
    "counterexample": ("build_instance", "difference_matrix", "measured_sup_norm",
                       "sup_norm_estimate", "closed_form_ratio", "scale_instance"),
    "opint": ("grid_eval", "doi", "toi", "func_calc_triple"),
    "spectral": ("from_hermitian", "apply_scalar"),
    "hermitian": ("singular_values", "schatten_norm"),
    "perturbation": ("perturbation_identity_residual", "psi_difference", "separated_difference"),
    "sampling": ("sample_instance", "sample_phi_2d"),
    "besov": ("besov_breakdown", "bandlimit_check"),
    "experiment": ("cmd_growth", "cmd_verify", "cmd_besov"),
}

# numpy.fft entry points counted for the besov layer; inverse 2-D transforms
# are the per-slice transforms of the separable Besov pieces.
FFT_FUNCTIONS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
                 "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")
SLICE_FFTS = ("ifft2", "irfft2")

SPAN_FIELDS = ("id", "name", "thread", "size", "start", "end", "parent")


def span_size(args) -> int | None:
    """The size ``n`` or ``dim`` a call works on, read from its positional
    arguments: an instance's ``n``, a matrix or measure's ``dim``, the rows of
    a coefficient descriptor, an array's first axis, or a bare integer."""
    for a in args:
        if isinstance(a, int) and not isinstance(a, bool):
            return a
        for attr in ("n", "dim"):
            value = getattr(a, attr, None)
            if isinstance(value, int):
                return value
        rows = getattr(getattr(a, "descriptor", None), "rows", None)
        if isinstance(rows, int):
            return rows
        shape = getattr(a, "shape", None)
        if isinstance(shape, tuple) and len(shape) in (1, 2):
            return int(shape[0])
    return None


class Tracer:
    """In-memory span recorder with per-thread parent stacks."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list):
        if stack:
            return stack[-1]
        if stack is self._owner_stack:
            return None
        try:
            return self._owner_stack[-1]
        except IndexError:
            return None

    def count(self, key: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[key] += amount

    def maximum(self, key: str, value: float) -> None:
        with self._lock:
            self.counters[key] = max(self.counters[key], value)

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` recording a span per call; ``after(args, kwargs,
        result)`` runs once the span has closed, for counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            size = span_size(args)
            stack = self._stack()
            parent = self._parent(stack)
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, threading.get_ident(), size, start, end, parent))
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def to_dict(self) -> dict:
        return {
            "fields": list(SPAN_FIELDS),
            "spans": [list(s) for s in self.spans],
            "counters": dict(self.counters),
        }


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict:
    """Map span id to its duration minus the time its children cover."""
    children = defaultdict(list)
    for sid, _name, _tid, _size, start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        sid: (end - start) - covered_length(children.get(sid, ()), start, end)
        for sid, _name, _tid, _size, start, end, _parent in spans
    }


def summarize(doc: dict) -> dict:
    """Per-layer metrics from a traced child's output.

    For every wrapped function ``layer.fn``: ``.calls``, ``.total_s`` and
    ``.self_s``, and for each size seen ``.total_s.n<size>`` and
    ``.self_s.n<size>``.  Counters become the layer's extra metrics.
    """
    spans = [tuple(s) for s in doc["spans"]]
    own = self_times(spans)
    out: dict[str, float] = {}
    for layer, names in LAYERS.items():
        for fn in names:
            for kind in ("calls", "total_s", "self_s"):
                out[f"{layer}.{fn}.{kind}"] = 0.0
    for sid, name, _tid, size, start, end, _parent in spans:
        out[f"{name}.calls"] += 1
        out[f"{name}.total_s"] += end - start
        out[f"{name}.self_s"] += own[sid]
        if size is not None:
            for kind, value in (("total_s", end - start), ("self_s", own[sid])):
                key = f"{name}.{kind}.n{size}"
                out[key] = out.get(key, 0.0) + value
    c = doc["counters"]
    calls = out["spectral.from_hermitian.calls"]
    pieces = c.get("besov.pieces", 0.0)
    out.update({
        "counterexample.sup_grid_points": c.get("counterexample.sup_grid_points", 0.0),
        "opint.grid_eval.points": c.get("opint.grid_eval.points", 0.0),
        "spectral.from_hermitian.trivial_frac":
            c.get("spectral.from_hermitian.trivial", 0.0) / calls if calls else 0.0,
        "hermitian.svd_max_dim": c.get("hermitian.svd_max_dim", 0.0),
        "sampling.plane_points": c.get("sampling.plane_points", 0.0),
        "besov.pieces_nonzero_frac": c.get("besov.pieces_nonzero", 0.0) / pieces if pieces else 0.0,
        "besov.slice_ffts": c.get("besov.slice_ffts", 0.0),
        "besov.fft_bytes": c.get("besov.fft_bytes", 0.0),
        "experiment.threads_seen": float(len({s[2] for s in spans})),
        "trace.spans": float(len(spans)),
    })
    return out


def median_metrics(runs: list[dict]) -> dict:
    """Per-key median over several summaries; a key missing from a run counts as 0."""
    keys = sorted(set().union(*runs))
    return {k: statistics.median(r.get(k, 0.0) for r in runs) for k in keys}


# ---------------------------------------------------------------------------
# counters taken at the layer boundaries, outside the timed spans


def _is_diagonal(h) -> bool:
    import numpy as np

    mat = np.asarray(getattr(h, "mat", h))
    return not np.any(mat[~np.eye(mat.shape[0], dtype=bool)])


def _counter_hooks(tracer: Tracer, originals: dict) -> dict:
    def sup_grid(args, kwargs, _result):
        sig = inspect.signature(originals["counterexample.sup_norm_estimate"])
        bound = sig.bind(*args, **kwargs).arguments
        g = int(math.floor(2.0 * bound["grid_radius"] / bound["grid_step"] + 0.5)) + 1
        tracer.count("counterexample.sup_grid_points", float(g * g))

    def grid_points(args, _kwargs, _result):
        tracer.count("opint.grid_eval.points", float(math.prod(len(a) for a in args[1:])))

    def trivial(args, kwargs, _result):
        h = args[0] if args else kwargs["H"]
        if _is_diagonal(h):
            tracer.count("spectral.from_hermitian.trivial")

    def svd_dim(args, kwargs, _result):
        m = args[0] if args else kwargs["M"]
        tracer.maximum("hermitian.svd_max_dim", float(span_size([m]) or 0))

    def plane(_args, _kwargs, result):
        tracer.count("sampling.plane_points", float(result.samples.size))

    def pieces(_args, _kwargs, result):
        sups = list(result.piece_sup.values())
        tracer.count("besov.pieces", float(len(sups)))
        tracer.count("besov.pieces_nonzero", float(sum(1 for s in sups if s != 0.0)))

    return {
        "counterexample.sup_norm_estimate": sup_grid,
        "opint.grid_eval": grid_points,
        "spectral.from_hermitian": trivial,
        "hermitian.singular_values": svd_dim,
        "sampling.sample_phi_2d": plane,
        "besov.besov_breakdown": pieces,
    }


def wrap_fft(tracer: Tracer, fft_module) -> None:
    """Count the calls of ``fft_module``'s transforms and the bytes of their
    inputs and outputs (computed from array sizes, not measured traffic)."""
    for fname in FFT_FUNCTIONS:
        fn = getattr(fft_module, fname, None)
        if fn is None:
            continue

        def counted(*args, _fn=fn, _slice=fname in SLICE_FFTS, **kwargs):
            result = _fn(*args, **kwargs)
            data = args[0] if args else kwargs.get("a")
            nbytes = getattr(data, "nbytes", 0) + result.nbytes
            tracer.count("besov.fft_bytes", float(nbytes))
            if _slice:
                tracer.count("besov.slice_ffts")
            return result

        setattr(fft_module, fname, functools.wraps(fn)(counted))


def install(tracer: Tracer) -> list[str]:
    """Wrap every layer function at every ``xplab`` module binding of it.

    Returns the names of layer functions that no longer exist, so that a
    renamed function shows up in the result instead of silently vanishing.
    """
    originals, missing = {}, []
    for layer, names in LAYERS.items():
        module = sys.modules[f"xplab.{layer}"]
        for fn in names:
            obj = getattr(module, fn, None)
            if callable(obj):
                originals[f"{layer}.{fn}"] = obj
            else:
                missing.append(f"{layer}.{fn}")
    hooks = _counter_hooks(tracer, originals)
    wrappers = {id(obj): tracer.wrap(name, obj, hooks.get(name)) for name, obj in originals.items()}
    for modname, module in list(sys.modules.items()):
        if modname != "xplab" and not modname.startswith("xplab."):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None and value is wrapper.__wrapped__:
                setattr(module, attr, wrapper)
    return missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run xplab.cli.main with layer tracing.")
    parser.add_argument("--spans", required=True, help="where to write spans and counters (JSON)")
    parser.add_argument("--summarize", action="store_true",
                        help="print the per-layer metrics of an existing spans file instead")
    parser.add_argument("xplab_args", nargs=argparse.REMAINDER,
                        help="arguments for xplab, after --")
    args = parser.parse_args(argv)
    if args.summarize:
        with open(args.spans, encoding="utf-8") as fh:
            doc = json.load(fh)
        json.dump({"metrics": summarize(doc), "missing": doc["missing"]}, sys.stdout)
        return 0
    xargs = args.xplab_args[1:] if args.xplab_args[:1] == ["--"] else args.xplab_args

    import numpy.fft

    tracer = Tracer()
    wrap_fft(tracer, numpy.fft)
    import xplab.cli

    missing = install(tracer)
    code = 1
    try:
        code = xplab.cli.main(xargs)
    finally:
        doc = tracer.to_dict()
        doc["missing"] = missing
        doc["exit_code"] = code
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
