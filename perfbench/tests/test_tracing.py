"""Self-time arithmetic and span bookkeeping of the traced run.

    python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import tracing  # noqa: E402
from tracing import END, NAME, PARENT, START  # noqa: E402


def span(name, start, end, parent=None, **counts):
    return [name, start, end, parent, "r", counts]


def test_covered_length_merges_and_clips():
    assert tracing.covered_length([], 0.0, 1.0) == 0.0
    assert tracing.covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert tracing.covered_length([(-1, 2), (9, 12)], 0, 10) == 3
    assert tracing.covered_length([(3, 3), (4, 2)], 0, 10) == 0


def test_self_times_add_up_to_root():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 4.0, 0),
        span("a.child", 2.0, 3.0, 1),
        span("b", 5.0, 9.0, 0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert sum(selfs) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [span("root", 0.0, 10.0), span("a", 1.0, 6.0, 0), span("b", 4.0, 8.0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(3.0)


def test_tracer_nests_spans_and_closes_on_error():
    ticks = iter(range(100))
    tracer = tracing.Tracer("run-1", clock=lambda: float(next(ticks)))

    def inner():
        raise ValueError("boom")

    wrapped_inner = tracing._wrap(tracer, inner, "inner", None, None)
    wrapped_outer = tracing._wrap(
        tracer, lambda: wrapped_inner(), "outer", lambda a, k: {"points": 3}, None)
    with pytest.raises(ValueError):
        wrapped_outer()
    outer, inner_span = tracer.spans
    assert outer[NAME] == "outer" and outer[PARENT] is None
    assert inner_span[PARENT] == 0
    assert outer[START] < inner_span[START] < inner_span[END] < outer[END]
    assert outer[tracing.COUNTS] == {"points": 3}
    assert sum(tracing.self_times(tracer.spans)) == outer[END] - outer[START]


def test_layer_metrics_outermost_time_and_ratios():
    spans = [
        span("trace.pass", 0.0, 20.0),
        span("physical.to_chart", 1.0, 5.0, 0, points=10),
        span("physical.field", 1.5, 2.5, 1, points=40),
        span("physical.field", 3.0, 4.0, 1, points=30),
        span("physical.field", 6.0, 7.0, 0, points=1000),
        span("operators.invert_mode_operator.quadrature", 8.0, 11.0, 0, n=1),
        span("operators.invert_mode_operator.quadrature", 12.0, 13.0, 0, n=4),
        span("certifier.certify", 14.0, 18.0, 0),
        span("certifier.cutoff_norm_table", 15.0, 16.0, 7),
    ]
    m = tracing.layer_metrics(spans, untraced_wall=19.0)
    assert list(m) == tracing.metric_names()
    assert m["physical.field.s"] == pytest.approx(3.0)
    assert m["physical.field.calls"] == 3
    assert m["physical.field.points"] == 1070
    assert m["physical.to_chart.field_points_per_point"] == pytest.approx(7.0)
    assert m["operators.invert_mode_operator.quadrature.s"] == pytest.approx(4.0)
    assert m["operators.invert_mode_operator.quadrature.n1.s"] == pytest.approx(3.0)
    assert m["operators.invert_mode_operator.quadrature.n4.s"] == pytest.approx(1.0)
    assert m["certifier.certify.s"] == pytest.approx(4.0)
    assert m["certifier.certify.self_s"] == pytest.approx(3.0)
    assert m["trace.overhead_s"] == pytest.approx(1.0)
    assert m["trace.spans"] == len(spans)


def test_nested_same_name_counts_time_once():
    spans = [span("root", 0, 10), span("solver.newton_solve", 1, 9, 0, iterations=2),
             span("solver.newton_solve", 2, 4, 1, iterations=3)]
    m = tracing.layer_metrics(spans, untraced_wall=10)
    assert m["solver.newton_solve.s"] == 8
    assert m["solver.newton_solve.iterations"] == 5


def test_install_patches_every_binding_and_restores():
    import numpy as np

    from spiral_euler import cli, grid_space, physical

    before = (grid_space.build_grid, cli.build_grid, grid_space.RadialGrid.evaluate_coefficients)
    verify = physical.verify
    tracer = tracing.Tracer("t")
    restore = tracing.install(tracer)
    try:
        assert cli.build_grid is grid_space.build_grid is not before[0]
        assert cli.run_verify is physical.verify is not verify
        grid = cli.build_grid(16, 1.0)
        grid.evaluate_coefficients(np.ones((3, 17)), np.linspace(0, 1, 5))
        assert physical.to_chart.__wrapped__ is not None
    finally:
        restore()
    assert (grid_space.build_grid, cli.build_grid,
            grid_space.RadialGrid.evaluate_coefficients) == before
    assert cli.run_verify is physical.verify is verify
    names = [s[NAME] for s in tracer.spans]
    assert names == ["grid_space.build_grid", "grid_space.evaluate_coefficients"]
    assert tracer.spans[1][tracing.COUNTS] == {"coef_points": 3 * 17 * 5}


def test_benchmark_json_lists_every_per_layer_metric_with_its_unit():
    import json

    doc = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"]) for m in doc["per_layer"]]
    assert declared == [(name, tracing.unit_of(name)) for name in tracing.metric_names()]
