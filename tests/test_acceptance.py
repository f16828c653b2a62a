"""Acceptance gate: every headline requirement at its stated tolerance.

Each test prints one pass/fail line so the suite run doubles as the
acceptance report: run `pytest tests/test_acceptance.py -s`.
"""

import time

import numpy as np
import pytest

from spiral_euler import (
    AngularSignal,
    ModeProfile,
    SolverParams,
    SpectralField,
    base_vorticity_factor,
    certify,
    contraction_and_threshold,
    cutoff_normalization,
    cutoff_norm_table,
    delta_of,
    dist_gap,
    eval_residual,
    fd_derivative_check,
    invert_mode_operator,
    apply_mode_operator,
    match_initial_data,
    newton_solve,
    sample_cutoffs,
    spiral_extract,
    to_chart,
    to_plane,
    verify,
)
from spiral_euler.grid_space import mollifier_bump
from spiral_euler.nonlinear import NonlinearWorkspace
from spiral_euler.operators import _invert_by_quadrature
from spiral_euler.physical import FieldEvaluator, eval_fields_batch, initial_data
from spiral_euler.solver import angular_initial_vorticity
from conftest import random_field, spiral_ode_oracle


def _report(num: int, label: str, ok: bool, detail: str) -> None:
    # collected lines surface through the terminal-summary hook, so the
    # acceptance report lands in every run log, one line per criterion
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label} ({detail})"
    print(line)
    from conftest import ACCEPTANCE_LINES

    ACCEPTANCE_LINES.append(line)
    assert ok, f"criterion {num}: {label} ({detail})"


@pytest.fixture(scope="module")
def prod():
    params = SolverParams(mu=1.0, N=4000, grid_points=257)
    return params, params.grid


@pytest.fixture(scope="module")
def prod_solved(prod):
    params, _ = prod
    omega = AngularSignal.constant_plus_cosine(params, amplitude=0.01)
    t0 = time.perf_counter()
    stream, report = newton_solve(omega, params)
    return stream, omega, report, time.perf_counter() - t0


def test_criterion_1_trivial_annihilation():
    t0 = time.perf_counter()
    worst = 0.0
    for mu in (0.7, 0.8, 1.0, 1.5, 2.0):
        params = SolverParams(mu=mu, N=4000, grid_points=257)
        base = SpectralField.base_state(params)
        res = eval_residual(base, AngularSignal.base(params), preimage_norms=False)
        worst = max(worst, res.raw_max)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    _report(1, "trivial-solution annihilation", ok, f"max {worst:.2e}, {elapsed:.2f} s")


def test_criterion_2_derivative_consistency(prod):
    params, _ = prod
    t0 = time.perf_counter()
    base = SpectralField.base_state(params)
    omega = AngularSignal.base(params)
    # at this periodicity the angular coupling scales derivatives by N, so
    # the direction is kept small enough for the largest Richardson step
    direction = random_field(params, seed=77, amplitude=1e-3)
    ws = NonlinearWorkspace(params)
    err = fd_derivative_check(base, omega, direction, 1e-6, ws=ws)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        e1 = fd_derivative_check(base, omega, direction, 1e-3, ws=ws)
        e2 = fd_derivative_check(base, omega, direction, 5e-4, ws=ws)
    ratio = e1 / e2
    elapsed = time.perf_counter() - t0
    ok = err < 1e-5 and 2.5 < ratio < 6.0 and elapsed < 30.0
    _report(
        2,
        "derivative consistency",
        ok,
        f"rel err {err:.2e} at h=1e-6, Richardson ratio {ratio:.2f}, {elapsed:.1f} s",
    )


def test_criterion_3_inverse_identities():
    params = SolverParams(mu=1.0, N=8, grid_points=96)
    grid = params.grid
    cuts = sample_cutoffs(grid)
    b = grid.nodes

    # round trips through both backends
    worst_rt = 0.0
    f = ModeProfile.from_values(
        2, (b**2 / (1 + b**2) * np.exp(-b)).astype(complex), 0.0, cuts
    )
    for n, s in ((2, 1.3), (2, -0.9), (0, 1.0), (0, -1.0)):
        g = apply_mode_operator(n, s, f, cuts)
        for method in ("matrix", "quadrature"):
            back = invert_mode_operator(n, s, g, cuts, method=method)
            worst_rt = max(
                worst_rt, float(np.max(np.abs(back.values(cuts) - f.values(cuts))))
            )

    # exact inversion of constants at the oscillation-free mode
    exact_ok = True
    for s in (0.5, 1.0, -2.0, 3.7):
        c = ModeProfile(0, np.zeros(grid.size), cconst=2.0)
        u = invert_mode_operator(0, s, c, cuts)
        exact_ok &= u.cconst == -2.0 / s and np.max(np.abs(u.core)) == 0.0

    # norm bounds on a 100-profile random suite through the exact backend
    rng = np.random.default_rng(123)
    delta = 0.4
    pts = np.array([0.15, 0.5, 1.1, 2.2, 4.5, 9.0])
    wgt = np.maximum(pts**delta, pts**-delta)
    xs = np.geomspace(1e-4, 1e4, 2000)
    cells = [(0, s, 13) for s in (0.7, 1.6, -0.9, -2.2)]
    cells += [(n, s, 6) for n in (1, 4) for s in (0.7, 1.6, -0.9, -2.2)]
    count = 0
    bounds_ok = True
    for n, s, trials in cells:
        for _ in range(trials):
            co = rng.standard_normal(5) * np.exp(-0.8 * np.arange(5))

            def smooth(x, _co=co):
                x = np.asarray(x, dtype=float)
                return np.polynomial.chebyshev.chebval(
                    1.0 - 2.0 * x / (1.0 + x), _co
                ).astype(complex)

            def f_flat(x, _s=smooth):
                return _s(x) * (1 - np.exp(-4.0 * np.asarray(x, dtype=float)))

            u = _invert_by_quadrature(n, s, f_flat, pts, 1e-13)
            sup_f = np.max(np.abs(f_flat(xs)))
            bounds_ok &= bool(np.max(np.abs(u)) <= sup_f / abs(s) * (1 + 1e-9))

            def f_core(x, _s=smooth):
                x = np.asarray(x, dtype=float)
                env = np.zeros_like(x)
                pos = x > 0
                env[pos] = np.minimum(x[pos] ** delta, x[pos] ** -delta)
                return _s(x) * env

            v = _invert_by_quadrature(n, s, f_core, pts, 1e-13)
            norm_f = np.max(np.maximum(xs**delta, xs**-delta) * np.abs(f_core(xs)))
            dist = abs(s) - delta
            bounds_ok &= bool(np.max(wgt * np.abs(v)) <= norm_f / dist * (1 + 1e-9))
            count += 1

    ok = worst_rt < 1e-8 and exact_ok and bounds_ok and count >= 100
    _report(
        3,
        "inverse-operator identities",
        ok,
        f"round trip {worst_rt:.2e}, constants exact {exact_ok}, "
        f"bounds on {count} profiles {bounds_ok}",
    )


def test_criterion_4_certificate(prod):
    params, grid = prod
    t0 = time.perf_counter()
    checks = []
    checks.append(("delta(1) = 0.5", delta_of(1.0) == 0.5))
    C = cutoff_normalization()
    checks.append(("normalization constant", abs(C - 142.25034) < 1e-4))
    peak = C * float(mollifier_bump(np.array([1.5]))[0])
    checks.append(("bump maximum", abs(peak - 2.60541) < 1e-4))
    table = cutoff_norm_table(grid)
    checks.append(("seven cutoff suprema", all(r["ok"] for r in table.values())))
    K, thr = contraction_and_threshold(1.0, 4000)
    checks.append(("threshold(1) = 3792", thr == 3792.0))
    checks.append(("K(1,4000) < 1", K < 1.0))
    row = dist_gap(1.0, 4, 4, "minus")
    checks.append(("minus-branch discrepancy flagged", row.flagged))
    cert = certify(params)
    checks.append(("certificate passes", cert.passes))
    checks.append(("flag carried into notes", any("minus" in n for n in cert.notes)))
    elapsed = time.perf_counter() - t0
    ok = all(flag for _, flag in checks) and elapsed < 10.0
    bad = [name for name, flag in checks if not flag]
    _report(4, "certificate reproduction", ok, f"failed={bad or 'none'}, {elapsed:.1f} s")


def test_criterion_5_nontrivial_solve(prod_solved):
    stream, omega, report, elapsed = prod_solved
    six_bounds = all(row["margin"] >= 0.0 for row in report.margins.values())
    ok = (
        report.converged
        and report.iterations <= 25
        and report.residual_history[-1] < 1e-10
        and report.bounds_ok
        and six_bounds
        and len(report.margins) == 6
        and elapsed < 120.0
    )
    _report(
        5,
        "nontrivial solve at high periodicity",
        ok,
        f"{report.iterations} iterations, residual {report.residual_history[-1]:.2e}, "
        f"bounds {'ok' if six_bounds else 'violated'}, {elapsed:.1f} s",
    )


def test_criterion_6_initial_data_matching(prod):
    params, _ = prod
    mu = params.mu
    w0 = base_vorticity_factor(mu)
    g = AngularSignal.from_entries(
        params,
        {0: complex(w0), params.N: 0.005 * w0, -params.N: 0.005 * w0}.items(),
    )
    omega, stream, report = match_initial_data(g, params, tol=1e-10)
    # the attained initial vorticity against the normalized target
    ws = NonlinearWorkspace(params)
    h = angular_initial_vorticity(stream, omega, ws)
    mismatch = g.scaled(1.0 / report.time_scale).plus(h.scaled(-1.0)).a_norm(-0.5)

    # derivative of the initial-data map at the base point is mu^(-1/2mu) id
    direction = AngularSignal.from_entries(params, {params.N: 0.5, -params.N: 0.5}.items())
    eps = 1e-3
    h_vals = {}
    for sign in (+1, -1):
        om = AngularSignal.base(params).plus(direction.scaled(sign * eps))
        s, _ = newton_solve(om, params, tol=1e-12, ws=ws)
        h_vals[sign] = angular_initial_vorticity(s, om, ws)
    fd = h_vals[+1].plus(h_vals[-1].scaled(-1.0)).scaled(1.0 / (2 * eps))
    expected = direction.scaled(mu ** (-1.0 / (2.0 * mu)))
    defect = fd.plus(expected.scaled(-1.0)).a_norm(-0.5) / expected.a_norm(-0.5)

    ok = mismatch < 1e-8 and defect < 1e-4
    _report(
        6,
        "initial-data matching",
        ok,
        f"target mismatch {mismatch:.2e}, derivative defect {defect:.2e}",
    )


def test_criterion_7_physical_verification(prod_solved):
    stream, omega, _, _ = prod_solved
    params = stream.params
    ev = FieldEvaluator(stream)

    rng = np.random.default_rng(5)
    beta = rng.uniform(0.2, 6.0, 1000)
    phi = rng.uniform(0.0, 2 * np.pi, 1000)
    z = to_plane(ev, beta, phi)
    b2, p2 = to_chart(ev, z)
    z2 = to_plane(ev, b2, p2)
    round_trip = float(
        np.max(np.hypot(z[:, 0] - z2[:, 0], z[:, 1] - z2[:, 1]) / np.hypot(z[:, 0], z[:, 1]))
    )

    report = verify(ev, omega)
    selfsim = report["selfsim"]["max_rel_defect"]
    lp_ok = all(row["ok"] for row in report["lp"]) and len(report["lp"]) == 18
    weak = max(row["rel"] for row in report["weak"])
    divfree = max(row["rel"] for row in report["divfree"])
    poisson = max(row["rel"] for row in report["poisson"])

    # initial-data convergence in L^1.  The chart transports the angular
    # data by a phase N*beta ~ N*t/r, so the stated times sit in the
    # coherent regime only on an annulus whose radius scales with the
    # periodicity; there the distance decays linearly in t.
    nr, nth = 20, 48
    r0 = params.N / 8.0
    r = np.linspace(r0, 3.0 * r0, nr)
    th = (2 * np.pi / params.N) * np.arange(nth) / nth
    R, TH = np.meshgrid(r, th, indexing="ij")
    X = np.stack([R * np.cos(TH), R * np.sin(TH)], axis=-1).reshape(-1, 2)
    w0 = (
        np.hypot(X[:, 0], X[:, 1]) ** (-1 / params.mu)
        * initial_data(ev, omega, np.arctan2(X[:, 1], X[:, 0]))["w0"]
    )
    dists = []
    for t in (0.1, 0.01, 0.001):
        w = eval_fields_batch(ev, omega, X, np.full(len(X), t))["w"]
        dists.append(float(np.mean(np.abs(w - w0))))
    monotone = dists[0] > dists[1] > dists[2]

    ok = (
        round_trip <= 1e-8
        and selfsim <= 1e-10
        and lp_ok
        and weak <= 1e-5
        and divfree <= 1e-5
        and poisson <= 1e-5
        and monotone
    )
    _report(
        7,
        "physical verification",
        ok,
        f"round trip {round_trip:.2e}, selfsim {selfsim:.2e}, lp {lp_ok}, "
        f"weak {weak:.2e}, divfree {divfree:.2e}, poisson {poisson:.2e}, "
        f"initial-data L1 {['%.3e' % d for d in dists]}",
    )


def test_criterion_8_spiral_oracle(prod):
    params, _ = prod
    mu = params.mu
    # streamlines of the radial base flow fit an algebraic spiral over two turns
    fit = spiral_ode_oracle(mu, base_vorticity_factor(mu), (1.0, 0.0), (0.0, 4 * np.pi))

    # a zero-crossing angular factor organizes the vorticity zero set into
    # spiral curves squeezed by the admissibility envelope
    amp = 1.05 * params.base_omega
    omega = AngularSignal.constant_plus_cosine(params, amp)
    stream, report = newton_solve(omega, params)
    t = 0.7
    ev = FieldEvaluator(stream)
    curves = spiral_extract(ev, omega, t, n_beta=64)
    n_curves = len(curves)
    envelope_ok = True
    for c in curves:
        radii = np.hypot(c.points[:, 0], c.points[:, 1])
        env = (t / c.beta) ** mu
        envelope_ok &= bool(
            np.all(radii >= np.sqrt(1 / (2 * mu)) * env * (1 - 1e-10))
            and np.all(radii <= np.sqrt(3 / (2 * mu)) * env * (1 + 1e-10))
        )

    # vorticity vanishes on the curves relative to the off-curve scale,
    # evaluated directly on the chart
    zeros = np.array([c.phi0 for c in curves[:: max(1, n_curves // 16)]])
    betas = curves[0].beta[::8]
    B, P = np.meshgrid(betas, zeros, indexing="ij")
    dv = ev.field("dv", B, P)
    w_on = (B / t) * dv ** (-1 / (2 * mu)) * omega.values(P)
    off = P + np.pi / (2 * params.N)
    dv_off = ev.field("dv", B, off)
    w_off = (B / t) * dv_off ** (-1 / (2 * mu)) * omega.values(off)
    w_ratio = float(np.max(np.abs(w_on)) / np.max(np.abs(w_off)))

    ok = (
        fit.max_rel_error < 1e-6
        and n_curves == 2 * params.N
        and envelope_ok
        and report.converged
        and w_ratio <= 1e-8
    )
    _report(
        8,
        "spiral structure",
        ok,
        f"ODE fit {fit.max_rel_error:.2e}, {n_curves} curves, envelope {envelope_ok}, "
        f"on/off vorticity ratio {w_ratio:.2e}",
    )
