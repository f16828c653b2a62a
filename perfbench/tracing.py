"""Span tracing for the per-layer run of the benchmark.

Timing wrappers are installed from outside the package around the public
functions of each module (and a few methods), patched into every
``spiral_euler`` module namespace that binds the name, so calls made through
``spiral_euler.cli.main`` are recorded wherever they happen.  Spans stay in
memory as small lists and are written out at the end of the run.

A span is ``[name, start, end, parent, run, counts]``: ``parent`` is the index
of the enclosing span (or None), ``run`` the run id shared by every span of
one traced pass, and ``counts`` the work counted at the same call boundary.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

import plans

NAME, START, END, PARENT, RUN, COUNTS = range(6)


class Tracer:
    """In-memory span recorder; spans nest by call order (one thread)."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str, counts: dict | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent, self.run_id, counts or {}])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int, counts: dict | None = None) -> None:
        span = self.spans[idx]
        span[END] = self.clock()
        if counts:
            span[COUNTS].update(counts)
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {span[NAME]!r} closed out of order")

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        (span[END] - span[START]) - covered_length(children[i], span[START], span[END])
        for i, span in enumerate(spans)
    ]


def outermost(spans) -> list[bool]:
    """True where no enclosing span carries the same name."""
    out = []
    for span in spans:
        p = span[PARENT]
        while p is not None and spans[p][NAME] != span[NAME]:
            p = spans[p][PARENT]
        out.append(p is None)
    return out


def ancestor_named(spans, name: str) -> list[int | None]:
    """Index of the nearest enclosing span called ``name``, per span."""
    out: list[int | None] = []
    for span in spans:
        p = span[PARENT]
        while p is not None and spans[p][NAME] != name:
            p = spans[p][PARENT]
        out.append(p)
    return out


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------


def _size(a) -> int:
    return int(np.size(a))


def _coef_points(args, kwargs):
    # RadialGrid.evaluate_coefficients(self, coeffs, s)
    coeffs, s = args[1], args[2]
    return {"coef_points": _size(coeffs) * _size(s)}


def _field_points(args, kwargs):
    # FieldEvaluator.field(self, name, beta, phi)
    return {"points": int(np.broadcast(np.asarray(args[2]), np.asarray(args[3])).size)}


def _plane_points(args, kwargs):
    # to_chart(stream, z, ...) / eval_fields_batch(stream, omega, x, t, ...)
    z = args[1] if len(args) > 1 else kwargs["z"]
    return {"points": _size(z) // 2}


def _batch_points(args, kwargs):
    x = args[2] if len(args) > 2 else kwargs["x"]
    return {"points": _size(x) // 2}


def _invert_name(args, kwargs):
    method = kwargs.get("method", args[4] if len(args) > 4 else "matrix")
    return f"operators.invert_mode_operator.{method}"


def _invert_counts(args, kwargs):
    return {"n": int(args[0])}


def _verify_name(args, kwargs):
    suite = kwargs.get("suite", args[3] if len(args) > 3 else None)
    if suite is None:
        return "physical.verify"
    return "physical.verify." + "+".join(suite)


def _newton_leave(result, args, kwargs):
    return {"iterations": int(result[1].iterations)}


def _match_leave(result, args, kwargs):
    return {"outer_iterations": int(result[2].iterations)}


def _curves_leave(result, args, kwargs):
    return {"curves": len(result)}


def _bytes_leave(result, args, kwargs):
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute, span name or name function, counts at entry, counts at return)
FUNCTIONS = [
    ("grid_space", "build_grid", "grid_space.build_grid", None, None),
    ("grid_space", "sample_cutoffs", "grid_space.sample_cutoffs", None, None),
    ("grid_space", "field_from_json", "grid_space.field_from_json", None, None),
    ("operators", "linearization_set", "operators.linearization_set", None, None),
    ("operators", "apply_linearization_inverse", "operators.apply_linearization_inverse", None, None),
    ("operators", "invert_mode_operator", _invert_name, _invert_counts, None),
    ("nonlinear", "eval_residual", "nonlinear.eval_residual", None, None),
    ("solver", "newton_solve", "solver.newton_solve", None, _newton_leave),
    ("solver", "bounds_check", "solver.bounds_check", None, None),
    ("solver", "match_initial_data", "solver.match_initial_data", None, _match_leave),
    ("certifier", "certify", "certifier.certify", None, None),
    ("certifier", "cutoff_norm_table", "certifier.cutoff_norm_table", None, None),
    ("physical", "to_chart", "physical.to_chart", _plane_points, None),
    ("physical", "eval_fields_batch", "physical.eval_fields_batch", _batch_points, None),
    ("physical", "verify", _verify_name, None, None),
    ("physical", "spiral_extract", "physical.spiral_extract", None, _curves_leave),
    ("physical", "export_samples_csv", "physical.export", None, _bytes_leave),
    ("physical", "export_spirals_csv", "physical.export", None, _bytes_leave),
    ("physical", "render_spirals_svg", "physical.export", None, _bytes_leave),
    ("config", "load_config", "config.load_config", None, None),
    ("cli", "cmd_certify", "cli.certify", None, None),
    ("cli", "cmd_solve", "cli.solve", None, None),
    ("cli", "cmd_verify", "cli.verify", None, None),
    ("cli", "cmd_reconstruct", "cli.reconstruct", None, None),
    ("cli", "main", "cli.main", None, None),
]

# (module, class, method, span name, counts at entry)
METHODS = [
    ("grid_space", "RadialGrid", "evaluate_coefficients", "grid_space.evaluate_coefficients", _coef_points),
    ("nonlinear", "NonlinearWorkspace", "__init__", "nonlinear.NonlinearWorkspace", None),
    ("physical", "FieldEvaluator", "__init__", "physical.FieldEvaluator.init", None),
    ("physical", "FieldEvaluator", "field", "physical.field", _field_points),
]


def _wrap(tracer: Tracer, fn, name, enter, leave):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        label = name(args, kwargs) if callable(name) else name
        idx = tracer.open(label, enter(args, kwargs) if enter else None)
        counts = None
        try:
            result = fn(*args, **kwargs)
            if leave:
                counts = leave(result, args, kwargs)
            return result
        finally:
            tracer.close(idx, counts)

    return wrapper


def install(tracer: Tracer):
    """Patch the wrappers in; returns a function that restores the originals."""
    import importlib

    undo = []
    pkg_modules = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "spiral_euler"]
    for modname, attr, name, enter, leave in FUNCTIONS:
        original = getattr(importlib.import_module(f"spiral_euler.{modname}"), attr)
        wrapped = _wrap(tracer, original, name, enter, leave)
        # every binding, under any alias (cli imports verify as run_verify)
        for mod in pkg_modules:
            for alias, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, alias, wrapped)
                    undo.append((mod, alias, original))
    for modname, clsname, meth, name, enter in METHODS:
        cls = getattr(importlib.import_module(f"spiral_euler.{modname}"), clsname)
        original = cls.__dict__[meth]
        setattr(cls, meth, _wrap(tracer, original, name, enter, None))
        undo.append((cls, meth, original))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# the oracle's modes and the suites the traced verify-ref run calls one by one
QUAD_MODES = plans.ORACLE_MODES
VERIFY_SUITES = plans.TRACE_VERIFY_SUITES

# span name -> extra metric fields summed from span counts (besides s/calls)
_SPAN_METRICS = [
    ("grid_space.evaluate_coefficients", ("s", "calls", "coef_points")),
    ("grid_space.build_grid", ("s", "calls")),
    ("grid_space.sample_cutoffs", ("s", "calls")),
    ("grid_space.field_from_json", ("s", "calls")),
    ("operators.linearization_set", ("s", "calls")),
    ("operators.apply_linearization_inverse", ("s", "calls")),
    ("operators.invert_mode_operator.matrix", ("s", "calls")),
    ("operators.invert_mode_operator.quadrature", ("s", "calls")),
    ("nonlinear.eval_residual", ("s", "calls")),
    ("nonlinear.NonlinearWorkspace", ("s", "calls")),
    ("solver.newton_solve", ("s", "iterations")),
    ("solver.bounds_check", ("s",)),
    ("solver.match_initial_data", ("s", "outer_iterations")),
    ("certifier.certify", ("s",)),
    ("certifier.cutoff_norm_table", ("s",)),
    ("physical.FieldEvaluator.init", ("s",)),
    ("physical.field", ("s", "calls", "points")),
    ("physical.to_chart", ("s", "points")),
    ("physical.eval_fields_batch", ("s", "points")),
    *((f"physical.verify.{suite}", ("s",)) for suite in VERIFY_SUITES),
    ("physical.spiral_extract", ("s", "curves")),
    ("physical.export", ("s", "bytes")),
    ("config.load_config", ("s",)),
    ("cli.certify", ("s",)),
    ("cli.solve", ("s",)),
    ("cli.verify", ("s",)),
    ("cli.reconstruct", ("s",)),
]

UNITS = {"s": "s", "self_s": "s", "bytes": "B", "coef_points_per_s": "1/s",
         "field_points_per_point": "ratio"}


def metric_names() -> list[str]:
    """Every per-layer metric name, in report order."""
    names = []
    for span, fields in _SPAN_METRICS:
        names += [f"{span}.{f}" for f in fields]
        if span == "grid_space.evaluate_coefficients":
            names.append(f"{span}.coef_points_per_s")
        if span == "operators.invert_mode_operator.quadrature":
            names += [f"{span}.n{n}.s" for n in QUAD_MODES]
        if span == "certifier.certify":
            names.append("certifier.certify.self_s")
        if span == "physical.to_chart":
            names.append("physical.to_chart.field_points_per_point")
    return names + ["trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s", "trace.spans"]


def unit_of(metric: str) -> str:
    last = metric.rsplit(".", 1)[-1]
    return "s" if last.endswith("_s") and last not in UNITS else UNITS.get(last, "count")


def layer_metrics(spans, untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass whose root span is spans[0].

    Time of a name is the inclusive time of its outermost spans; counts sum
    over every span of the name.
    """
    outer = outermost(spans)
    selfs = self_times(spans)
    chart_of = ancestor_named(spans, "physical.to_chart")
    time_of = defaultdict(float)
    self_of = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(lambda: defaultdict(float))
    quad_by_n = defaultdict(float)
    chart_field_points = 0
    for i, span in enumerate(spans):
        name = span[NAME]
        calls[name] += 1
        self_of[name] += selfs[i]
        if outer[i]:
            time_of[name] += span[END] - span[START]
            if name == "operators.invert_mode_operator.quadrature":
                quad_by_n[span[COUNTS]["n"]] += span[END] - span[START]
        for key, val in span[COUNTS].items():
            counts[name][key] += val
        if name == "physical.field" and chart_of[i] is not None:
            chart_field_points += span[COUNTS]["points"]

    out: dict[str, float] = {}
    for span, fields in _SPAN_METRICS:
        for f in fields:
            if f == "s":
                out[f"{span}.s"] = time_of[span]
            elif f == "calls":
                out[f"{span}.calls"] = calls[span]
            else:
                out[f"{span}.{f}"] = counts[span][f]
    ec = "grid_space.evaluate_coefficients"
    out[f"{ec}.coef_points_per_s"] = (
        out[f"{ec}.coef_points"] / out[f"{ec}.s"] if out[f"{ec}.s"] > 0 else 0.0
    )
    for n in QUAD_MODES:
        out[f"operators.invert_mode_operator.quadrature.n{n}.s"] = quad_by_n[n]
    out["certifier.certify.self_s"] = self_of["certifier.certify"]
    chart_points = out["physical.to_chart.points"]
    out["physical.to_chart.field_points_per_point"] = (
        chart_field_points / chart_points if chart_points else 0.0
    )
    root = spans[0]
    out["trace.wall_s"] = root[END] - root[START]
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.overhead_s"] = out["trace.wall_s"] - untraced_wall
    out["trace.spans"] = len(spans)
    return {name: out[name] for name in metric_names()}


def span_table(spans) -> str:
    """Markdown table of every span name: inclusive and self time, calls."""
    outer = outermost(spans)
    selfs = self_times(spans)
    rows = defaultdict(lambda: [0.0, 0.0, 0])
    for i, span in enumerate(spans):
        row = rows[span[NAME]]
        if outer[i]:
            row[0] += span[END] - span[START]
        row[1] += selfs[i]
        row[2] += 1
    lines = ["| span | inclusive s | self s | calls |", "|---|---|---|---|"]
    for name, (incl, own, n) in sorted(rows.items(), key=lambda kv: -kv[1][0]):
        lines.append(f"| `{name}` | {incl:.4g} | {own:.4g} | {n} |")
    return "\n".join(lines)
