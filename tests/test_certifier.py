import tracemalloc

import numpy as np
import pytest

from spiral_euler import (
    ParameterError,
    SolverParams,
    certify,
    contraction_and_threshold,
    cutoff_norm_table,
    delta_of,
    dist_gap,
)
from spiral_euler.certifier import CUTOFF_BOUNDS, Certificate
from spiral_euler.grid_space import xi_near


def test_delta_values():
    assert delta_of(1.0) == 0.5
    assert delta_of(0.7) == pytest.approx(0.2)
    assert delta_of(2.0) == 0.5
    with pytest.raises(ParameterError):
        delta_of(2.0 / 3.0)


def test_dist_gap_plus_branch():
    row = dist_gap(1.0, 4, 4, "plus")
    assert row.exact == pytest.approx(4.5)
    assert row.quoted_upper == pytest.approx(4.5)
    assert not row.flagged


def test_dist_gap_minus_branch_flagged():
    # the quoted lower bound exceeds the exact interval distance here; the
    # certifier must flag the row rather than adjust it
    row = dist_gap(1.0, 4, 4, "minus")
    assert row.exact == pytest.approx(2.5)
    assert row.quoted_lower == pytest.approx(2.0 + 5.0 / 6.0)
    assert row.flagged


def test_dist_gap_domain_errors():
    with pytest.raises(ParameterError):
        dist_gap(1.0, 3, 4, "plus")
    with pytest.raises(ParameterError):
        dist_gap(1.0, 4, 2, "plus")
    with pytest.raises(ParameterError):
        dist_gap(1.0, 4, 4, "sideways")


def test_cutoff_norm_table_within_bounds(prod_grid):
    table = cutoff_norm_table(prod_grid)
    assert set(table) == set(CUTOFF_BOUNDS)
    for name, row in table.items():
        assert row["ok"], (name, row)
        assert row["computed"] <= row["bound"]


def test_cutoff_norm_table_working_set(prod_grid):
    # the cutoffs' quadrature runs in blocks of points: its traced peak read
    # 6.2 MB, against 23 MB when all 526k nodes went through the bump at once
    cutoff_norm_table(prod_grid)  # the bump's cumulative table is built once
    tracemalloc.start()
    try:
        cutoff_norm_table(prod_grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9e6, peak


def test_cutoff_plain_sup_is_one():
    # xi_near + xi_far = 1 with both in [0, 1], so the plain supremum of the
    # near cutoff is exactly one
    xs = np.linspace(0.0, 3.0, 20001)
    assert np.max(xi_near(xs)) == pytest.approx(1.0, abs=1e-15)


def test_threshold_closed_form():
    _, thr = contraction_and_threshold(1.0, 4000)
    assert thr == 3792.0
    mu = 0.7
    _, thr7 = contraction_and_threshold(mu, 4000)
    expected = (2 * mu - 1) * (397 + 1090 / mu + 1264 / mu**2 + 999 / mu**3 + 42 / mu**4)
    assert thr7 == pytest.approx(expected, rel=1e-14)


def test_contraction_below_one_at_reference_point():
    K, thr = contraction_and_threshold(1.0, 4000)
    assert K < 1.0
    assert 4000 > thr


def test_contraction_decreasing_in_periodicity():
    Ks = [contraction_and_threshold(1.0, n)[0] for n in range(2001, 10002, 400)]
    assert all(a > b for a, b in zip(Ks, Ks[1:]))


def test_certify_reference_passes(prod_params):
    cert = certify(prod_params)
    assert cert.passes
    assert cert.contraction < 1.0
    assert cert.threshold == 3792.0
    assert all(row["ok"] for row in cert.cutoff_norms.values())
    assert any(r.flagged for r in cert.dist_rows)  # the minus branch at n = N
    assert all(r.ok for r in cert.spot_checks)


def test_certify_below_threshold_fails_but_reports():
    params = SolverParams(mu=1.0, N=100, grid_points=257)
    cert = certify(params)
    assert not cert.passes
    assert cert.contraction > 1.0
    # the sampled operator norms stay modest even though the bound is weak
    assert all(r.ratio < 1.0 for r in cert.spot_checks)


def test_certify_deterministic(desk_params):
    a = certify(desk_params, seed=42)
    b = certify(desk_params, seed=42)
    assert a.to_json() == b.to_json()


def test_certificate_verdict_invariant():
    with pytest.raises(ParameterError):
        Certificate(
            mu=1.0,
            N=4000,
            delta=0.5,
            dist_rows=(),
            cutoff_norms={},
            contraction=0.9,
            threshold=3792.0,
            passes=False,  # contradicts N > threshold and K < 1
            notes=(),
        )


def test_certificate_table_renders(prod_params):
    cert = certify(prod_params)
    text = cert.table()
    assert "PASS" in text
    assert "contraction" in text
    assert "sampled perturbation norms" in text


def test_spot_check_factors_each_operator_once(desk_params, monkeypatch):
    # one solve per inverse stage and mode, with the mode's eight samples as
    # its columns: D(n, s-) for n = N, 2N, 3N, then D(0, -1) once with all 24
    # samples, then D(n, s+) per mode; the rows equal those of one solve per
    # sample (each dense_solve call of one operator is one gesv, one factorization)
    from spiral_euler import certifier, operators
    from spiral_euler.grid_space import RadialGrid

    K, _ = contraction_and_threshold(desk_params.mu, desk_params.N)
    columns = []
    solve = operators.dense_solve

    def counting(op, b):
        assert op.ndim == 2  # one operator, not a stack
        columns.append(1 if b.ndim == 1 else b.shape[1])
        return solve(op, b)

    def no_clenshaw(*args):
        raise AssertionError("the spot check samples its norms by FFT")

    monkeypatch.setattr(operators, "dense_solve", counting)
    monkeypatch.setattr(RadialGrid, "evaluate_coefficients", no_clenshaw)
    rows = certifier._perturbation_spot_check(desk_params, K, seed=42)
    assert columns == [8, 8, 8, 24, 8, 8, 8]

    solve_block = certifier.mode_operator_solve
    monkeypatch.setattr(
        certifier,
        "mode_operator_solve",
        lambda grid, n, shift, ext: np.stack(
            [solve_block(grid, n, shift, col) for col in ext.T], axis=1
        ),
    )
    columns.clear()
    per_call = certifier._perturbation_spot_check(desk_params, K, seed=42)
    assert columns == [1] * (3 * 3 * 8)
    assert rows == per_call


@pytest.mark.parametrize("mu", [0.7, 1.0, 2.0])
def test_spot_check_ratios_match_clenshaw_route(mu, monkeypatch):
    # the spot-check norms sampled by the zero-padded DCT-I against the
    # Clenshaw recurrence at the same refined points
    from spiral_euler import certifier, grid_space

    params = SolverParams(mu=mu, N=4000, grid_points=257)
    K, _ = contraction_and_threshold(mu, params.N)
    rows = certifier._perturbation_spot_check(params, K, seed=42)

    def clenshaw(grid, ext, factor):
        coeffs = grid.chebyshev_coefficients(ext)
        return grid.evaluate_coefficients(coeffs, grid_space._refined_s(grid, factor))

    monkeypatch.setattr(grid_space, "_refined_values", clenshaw)
    want = certifier._perturbation_spot_check(params, K, seed=42)
    assert [r.n for r in rows] == [r.n for r in want]
    for r, ref in zip(rows, want):
        assert r.ratio == pytest.approx(ref.ratio, rel=1e-13, abs=0.0)


def test_cutoff_weighted_suprema_match_delta_scan(prod_grid):
    # the weighted suprema, evaluated at delta = 1/2 alone, against the scan
    # over the whole delta range on the table's own sample
    from spiral_euler.grid_space import bump, cutoff_normalization, xi_far

    base = np.geomspace(1e-6, 1e6, 4096)
    support = np.linspace(0.5, 2.5, 16 * 4096)
    nodes = prod_grid.nodes
    beta = np.unique(np.concatenate([base, support, nodes[nodes > 0]]))
    C = cutoff_normalization()
    y, yp = bump(beta)
    eta, eta_p = C * y, C * yp
    values = {
        "beta_dbeta_xi0": beta * eta,
        "beta_xi0": beta * xi_near(beta),
        "dbeta_xiinf": eta,
        "xiinf_over_beta": xi_far(beta) / beta,
        "beta2_dbeta_xi0": beta * beta * eta,
        "beta2_dbeta2_xi0": beta * beta * eta_p,
    }
    table = cutoff_norm_table(prod_grid)
    for name, v in values.items():
        scan = 0.0
        for d in np.linspace(1.0 / 6.0 + 1e-9, 0.5, 23):
            w = np.maximum(beta**d, beta**-d)
            scan = max(scan, float(np.max(w * np.abs(v))))
        assert table[name]["computed"] == scan, name
