import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spiral_euler

from spiral_euler import (
    AccuracyError,
    DegenerateShiftError,
    ModeProfile,
    NonFiniteError,
    ParameterError,
    SingularOperatorError,
    SolverParams,
    SpectralField,
    apply_linearization_inverse,
    apply_mode_operator,
    assemble_linearization,
    dense_solve,
    derived_fields,
    invert_mode_operator,
    linearization_set,
    sample_cutoffs,
    shift_minus,
    shift_plus,
)
from spiral_euler import operators
from spiral_euler.operators import mode_operator_apply, mode_operator_matrix, mode_operator_solve
from conftest import beta_mult_matrix, linearization_at_base, random_field


def smooth_profile(grid, cuts, n=2, seed=1):
    rng = np.random.default_rng(seed)
    b = grid.nodes
    co = rng.standard_normal(6) * np.exp(-0.8 * np.arange(6))
    vals = np.polynomial.chebyshev.chebval(1 - 2 * grid.s_of_beta(b), co)
    vals = vals * b**2 / (1 + b**2) * np.exp(-b)
    return ModeProfile.from_values(n, vals.astype(complex), 0.0, cuts)


def test_bar_derivative_on_base_constants(desk_params, desk_cuts):
    # on the constant base profile c, dbeta_bar and dvarphi_bar are the
    # constants (1 - 2 mu) c and (2 mu - 1) c at every node and at infinity
    mu = desk_params.mu
    base = SpectralField.base_state(desk_params)
    c = desk_params.base_stream_constant
    fields = derived_fields(base)
    for key, value in (("db", (1 - 2 * mu) * c), ("dv", (2 * mu - 1) * c)):
        prof = ModeProfile.from_values(0, fields[key][0, :-1], fields[key][0, -1], desk_cuts)
        assert prof.cconst == pytest.approx(value, abs=1e-14)
        assert np.max(np.abs(prof.core)) < 1e-13
        assert np.max(np.abs(fields[key][1:])) == 0.0


def test_bar_derivative_dphi_is_mode_multiplier(desk_params):
    F = random_field(desk_params, seed=3)
    dp = derived_fields(F)["dp"]
    for k, n in enumerate(int(n) for n in desk_params.mode_indices):
        expected = 1j * n * F.values[k]
        assert np.max(np.abs(dp[k] - expected)) < 1e-12


def test_derived_fields_match_dense_matrix_forms(desk_params, desk_grid):
    # the matrix forms of linearization_at_base: dbeta_bar = Q + 1 - 2 mu,
    # dvarphi_bar = -(Q - i n beta) + 2 mu - 1
    F = random_field(desk_params, seed=5)
    mu = desk_params.mu
    eye = np.eye(desk_grid.size + 1)
    dbeta = desk_grid.radial + (1.0 - 2.0 * mu) * eye
    got = derived_fields(F)
    for i, n in enumerate(int(n) for n in desk_params.mode_indices):
        ext = F.values[i]
        dvarphi = -(desk_grid.radial - beta_mult_matrix(desk_grid, n)) + (2.0 * mu - 1.0) * eye
        expected = {
            "psi": ext,
            "db": dbeta @ ext,
            "dv": dvarphi @ ext,
            "dp": 1j * n * ext,
            "dpdb": 1j * n * (dbeta @ ext),
            "lg": (dvarphi + eye) @ dbeta @ ext,
        }
        for name, ref in expected.items():
            err = np.max(np.abs(got[name][i] - ref))
            assert err <= 1e-12 * np.max(np.abs(ref)), (n, name, err)


def test_mode_operator_apply_is_its_matrix(desk_params, desk_grid):
    # the kernel and its matrix twin are one D(n, s), to rounding
    F = random_field(desk_params, seed=9)
    mu = desk_params.mu
    for ext, n in zip(F.values, (int(n) for n in desk_params.mode_indices)):
        for shift in (2.0 * mu - 1.0, -1.0, shift_plus(mu, n), shift_minus(mu, n)):
            got = mode_operator_apply(desk_grid, n, shift, ext)
            ref = mode_operator_matrix(desk_grid, n, shift) @ ext
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), (n, shift)


def test_apply_on_constant_mode_zero(desk_cuts):
    # (beta d/dbeta + 1) c = c, i.e. D(0,-1) acts as multiplication by +1
    c = ModeProfile(0, np.zeros(desk_cuts.grid.size), cconst=3.0 - 1.0j)
    out = apply_mode_operator(0, -1.0, c, desk_cuts)
    assert out.cconst == pytest.approx(3.0 - 1.0j)
    assert np.max(np.abs(out.core)) < 1e-13


def test_kernel_annihilation(desk_cuts):
    # the operator annihilates beta^s e^{i n beta}; under a Gaussian window
    # only the analytic window-derivative term beta*w'*kernel survives
    grid = desk_cuts.grid
    b = grid.nodes
    window = np.exp(-(b**2))
    for n, s in ((0, 1.0), (1, 1.0), (2, 2.0)):
        kernel = b**s * np.exp(1j * n * b)
        vals = kernel * window
        f = ModeProfile.from_values(n, vals, 0.0, desk_cuts)
        out = apply_mode_operator(n, s, f, desk_cuts)
        residual = out.values(desk_cuts) - (-2.0 * b**2 * vals)
        scale = np.max(np.abs(vals))
        assert np.max(np.abs(residual)) < 1e-8 * scale, (n, s)


def test_invert_constant_exactly(desk_cuts):
    c = ModeProfile(0, np.zeros(desk_cuts.grid.size), cconst=2.0)
    for s in (1.0, -2.0, 0.4, 7.0):
        u = invert_mode_operator(0, s, c, desk_cuts)
        assert u.cconst == -2.0 / s
        assert np.max(np.abs(u.core)) == 0.0


def unit_at_origin_profile(cuts):
    """(1 + beta + beta^2) e^(-beta): f(0) = 1, so its xi_near slot is c0 = 1."""
    b = cuts.grid.nodes
    return ModeProfile.from_values(2, ((1 + b + b**2) * np.exp(-b)).astype(complex), 0.0, cuts)


def round_trip_error(f, n, s, cuts, method):
    g = apply_mode_operator(n, s, f, cuts)
    back = invert_mode_operator(n, s, g, cuts, method=method)
    return np.max(np.abs(back.values(cuts) - f.values(cuts)))


def test_invert_round_trip_both_methods(desk_cuts):
    # every smooth_profile vanishes at beta = 0; unit_at_origin_profile has f(0) = 1
    smooth = smooth_profile(desk_cuts.grid, desk_cuts, n=2, seed=4)
    for f, cases in (
        (smooth, ((2, 1.3), (2, -0.9), (0, 1.0), (0, -1.0))),
        (unit_at_origin_profile(desk_cuts), ((0, 1.3), (0, -0.9), (2, 1.3), (2, -0.9))),
    ):
        for n, s in cases:
            for method in ("matrix", "quadrature"):
                err = round_trip_error(f, n, s, desk_cuts, method)
                assert err < 1e-8, (method, n, s, err)


@pytest.mark.parametrize("point", ["desk", "reference"])
def test_mode_operator_is_the_solvers_derivative(point, request):
    # one discrete D(n, s): on a solved field, D(0, 2 mu - 1) is the solver's
    # dbeta_bar row and -D(n, 2 mu - 1) its dvarphi_bar row, to rounding
    stream, _, _ = request.getfixturevalue("desk_solution" if point == "desk" else "prod_solution")
    cuts = sample_cutoffs(stream.grid)
    s = 2.0 * stream.params.mu - 1.0
    rows = derived_fields(stream)
    for i, n in enumerate(int(n) for n in stream.params.mode_indices):
        psi = ModeProfile.from_values(n, stream.values[i, :-1], stream.values[i, -1], cuts)
        for name, got in (
            ("db", apply_mode_operator(0, s, psi, cuts).extended(cuts)),
            ("dv", -apply_mode_operator(n, s, psi, cuts).extended(cuts)),
        ):
            ref = rows[name][i]
            err = np.max(np.abs(got - ref))
            assert err <= 1e-13 * np.max(np.abs(ref)), (n, name, err)


def _same_bits(a, b):
    # np.array_equal, and the float bits too, so that signed zeros match
    return np.array_equal(a, b) and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("point", ["desk", "reference"])
def test_in_place_operators_equal_their_former_expressions(point, request):
    # both are formed in one buffer; the full-size expressions they replaced
    # are kept here as the reference, entry for entry
    params = request.getfixturevalue("desk_params" if point == "desk" else "prod_params")
    grid, mu, N = params.grid, params.mu, params.N

    def former_mode_operator(n, shift):
        eye = np.eye(grid.size + 1, dtype=complex)
        return grid.radial.astype(complex) - beta_mult_matrix(grid, n) - shift * eye

    for n in (0, N, 3 * N):
        sp, sm = shift_plus(mu, n), shift_minus(mu, n)
        for shift in (sp, sm):
            assert _same_bits(mode_operator_matrix(grid, n, shift), former_mode_operator(n, shift))
        Dp, Dm = former_mode_operator(n, sp), former_mode_operator(n, sm)
        Q1 = grid.radial.astype(complex) + np.eye(grid.size + 1)
        former = (Dp @ Dm @ Q1 + (2.0 * mu - 1.0) * beta_mult_matrix(grid, n)) / (2.0 * mu * mu)
        assert _same_bits(assemble_linearization(n, params), former), n


def test_invert_zero_shift_is_singular(desk_cuts):
    f = smooth_profile(desk_cuts.grid, desk_cuts)
    with pytest.raises(DegenerateShiftError):
        invert_mode_operator(2, 0.0, f, desk_cuts)


@pytest.mark.parametrize("method", ["matrix", "quadrature"])
@pytest.mark.parametrize("n, shift", [(0, 1.3), (0, -0.9), (2, 1.3), (2, -0.9)])
def test_mode_operator_solve_block_equals_its_columns(desk_cuts, method, n, shift):
    # three columns solved as one block get the bits each gets alone; one has
    # a far value, which the kernel splits off at n = 0 and solves for at n = 2
    grid = desk_cuts.grid
    cols = [smooth_profile(grid, desk_cuts, n=n, seed=k).extended(desk_cuts) for k in (1, 2, 3)]
    block = np.stack(cols, axis=1)
    block[-1, 1] = 0.3 - 0.2j
    out = mode_operator_solve(grid, n, shift, block, method)
    assert out.shape == block.shape
    for j in range(3):
        alone = mode_operator_solve(grid, n, shift, np.ascontiguousarray(block[:, j]), method)
        assert _same_bits(np.ascontiguousarray(out[:, j]), np.ascontiguousarray(alone)), j


@pytest.mark.parametrize("method", ["matrix", "quadrature"])
def test_mode_operator_solve_inverts_a_constant_exactly(desk_cuts, method):
    # at n = 0 the far value is split off and divided out: -c/shift, zero core
    grid = desk_cuts.grid
    for s in (1.3, -0.9):
        u = mode_operator_solve(grid, 0, s, np.full(grid.size + 1, 2.0 + 1.0j), method)
        assert np.all(u == -(2.0 + 1.0j) / s)
        prof = ModeProfile.from_values(0, u[:-1], u[-1], desk_cuts)
        assert prof.cconst == -(2.0 + 1.0j) / s and not prof.core.any()


@pytest.mark.parametrize("mu", [0.75, 1.5])
def test_gauge_term_of_a_constant_mode_zero_row_is_exact(mu):
    # the gauge inverts D(0, s+) through the kernel: |D(0, s+)^-1 c| = |c| / s+(0);
    # the shifts 1/2 and 2 keep the complex division c / s+ exact as well
    from spiral_euler import NonlinearWorkspace

    params = SolverParams(mu=mu, N=8, grid_points=96)
    ws = NonlinearWorkspace(params)
    res = np.zeros((params.harmonics + 1, params.grid_points + 1), dtype=complex)
    res[0] = 0.3
    terms = ws.preimage_sups(res)
    assert terms[0] == 0.3 / shift_plus(params.mu, 0)
    assert all(terms[n] == 0.0 for n in ws.mode_list[1:])


@pytest.mark.parametrize("method", ["matrix", "quadrature"])
def test_mode_operator_solve_zero_shift_is_singular(desk_cuts, method):
    ext = smooth_profile(desk_cuts.grid, desk_cuts).extended(desk_cuts)
    for n in (0, 2):
        with pytest.raises(DegenerateShiftError):
            mode_operator_solve(desk_cuts.grid, n, 0.0, ext, method)
        with pytest.raises(DegenerateShiftError):
            mode_operator_solve(desk_cuts.grid, n, 0.0, np.stack([ext, ext], axis=1), method)


def test_mode_operator_solve_rejects_an_unknown_method(desk_cuts):
    ext = smooth_profile(desk_cuts.grid, desk_cuts).extended(desk_cuts)
    with pytest.raises(ParameterError, match="unknown inversion method 'lu'"):
        mode_operator_solve(desk_cuts.grid, 2, 1.3, ext, "lu")


def test_singular_operator_raises_instead_of_nan():
    # LU with partial pivoting leaves an exactly zero last pivot here
    op = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    with pytest.raises(SingularOperatorError):
        dense_solve(op, np.ones(2, dtype=complex))
    # one singular operator in a stack fails the whole solve
    stack = np.stack([np.eye(2, dtype=complex), op])
    with pytest.raises(SingularOperatorError):
        dense_solve(stack, np.ones((2, 2), dtype=complex))
    # a ParameterError, so the solve command exits with its failure code
    assert issubclass(SingularOperatorError, ParameterError)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_operator_or_rhs_raises(bad):
    # a non-finite input ends the solve with a package error, never a silent
    # NaN or, for an infinite pivot, a finite but meaningless solution
    fun = np.array([[2.0, 1.0], [1.0, 3.0]], dtype=complex)
    rhs = np.ones(2, dtype=complex)
    broken = fun.copy()
    broken[1, 1] = bad
    with pytest.raises(NonFiniteError, match="non-finite operator"):
        dense_solve(broken, rhs)
    with pytest.raises(NonFiniteError, match="non-finite right-hand side"):
        dense_solve(fun, np.array([1.0, bad], dtype=complex))
    # in a stack, one broken operator or row fails the whole solve
    with pytest.raises(NonFiniteError, match="non-finite operator"):
        dense_solve(np.stack([fun, broken]), np.ones((2, 2), dtype=complex))
    with pytest.raises(NonFiniteError, match="non-finite right-hand side"):
        dense_solve(np.stack([fun, fun]), np.array([[1.0, 1.0], [1.0, bad]], dtype=complex))
    # a ParameterError, so the solve command exits with its failure code
    assert issubclass(NonFiniteError, ParameterError)


@pytest.mark.parametrize("point", ["desk", "reference"])
def test_multi_column_solve_equals_column_solves(point, request):
    # the columns of one solve call equal one call per column, bit for bit:
    # each block is solved next to the same zero column
    params = request.getfixturevalue("desk_params" if point == "desk" else "prod_params")
    grid = request.getfixturevalue("desk_grid" if point == "desk" else "prod_grid")
    mu, rng = params.mu, np.random.default_rng(7)
    shifts = [(n, s) for n in (0, params.N) for s in (shift_plus(mu, n), -1.0)]
    ops = [mode_operator_matrix(grid, n, s) for n, s in shifts]
    ops += list(linearization_set(params))
    for op in ops:
        rhs = rng.standard_normal((grid.size + 1, 6)) + 1j * rng.standard_normal((grid.size + 1, 6))
        sol = dense_solve(op, rhs)
        for j in range(rhs.shape[1]):
            assert np.array_equal(sol[:, j], dense_solve(op, rhs[:, j].copy()))


def test_invert_norm_bounds_random_suite():
    # sup-norm bound 1/|s| and weighted bound 1/dist([-d, d], s), measured
    # through the exact integral backend on random smooth data; the bounds
    # are tight (constants attain the first one), which is more than the
    # collocation backend's fractional-power resolution can certify
    from spiral_euler.operators import _invert_by_quadrature

    rng = np.random.default_rng(7)
    delta = 0.4
    pts = np.array([0.15, 0.4, 0.9, 1.7, 3.0, 5.5, 9.0, 16.0])
    wgt = np.maximum(pts**delta, pts**-delta)
    for n in (0, 1, 4):
        for s in (0.7, 1.6, -0.9, -2.2):
            for trial in range(2):
                co = rng.standard_normal(5) * np.exp(-0.8 * np.arange(5))

                def smooth(x, _co=co):
                    x = np.asarray(x, dtype=float)
                    return np.polynomial.chebyshev.chebval(
                        1.0 - 2.0 * x / (1.0 + x), _co
                    ).astype(complex)

                def f_flat(x, _s=smooth):
                    x = np.asarray(x, dtype=float)
                    return _s(x) * (1 - np.exp(-4.0 * x))

                u = _invert_by_quadrature(n, s, f_flat, pts, 1e-13)
                xs = np.geomspace(1e-4, 1e4, 2000)
                sup_f = np.max(np.abs(f_flat(xs)))
                assert np.max(np.abs(u)) <= sup_f / abs(s) * (1 + 1e-9), (n, s)

                def f_core(x, _s=smooth):
                    x = np.asarray(x, dtype=float)
                    env = np.zeros_like(x)
                    pos = x > 0
                    env[pos] = np.minimum(x[pos] ** delta, x[pos] ** -delta)
                    return _s(x) * env

                v = _invert_by_quadrature(n, s, f_core, pts, 1e-13)
                norm_f = np.max(
                    np.maximum(xs**delta, xs**-delta) * np.abs(f_core(xs))
                )
                dist = abs(s) - delta
                assert np.max(wgt * np.abs(v)) <= norm_f / dist * (1 + 1e-9), (n, s)


def test_invert_weighted_bound_tight_oscillatory_cases():
    # shifts close to the weight exponent, checked on the exact backend at a
    # handful of radii
    from spiral_euler.operators import _invert_by_quadrature

    delta = 0.4

    def f(x):
        x = np.asarray(x, dtype=float)
        env = np.zeros_like(x)
        pos = x > 0
        env[pos] = np.minimum(x[pos] ** delta, x[pos] ** -delta) * np.exp(-0.3 * x[pos])
        return (env * np.cos(2.0 * x)).astype(complex)

    pts = np.array([0.2, 0.7, 1.3, 2.4, 4.0, 8.0])
    wgt = np.maximum(pts**delta, pts**-delta)
    norm_f = 1.0  # |f| * weight <= 1 by construction
    for n, s in ((1, 0.7), (2, -0.6)):
        u = _invert_by_quadrature(n, s, f, pts, 1e-13)
        dist = abs(s) - delta
        assert np.max(wgt * np.abs(u)) <= norm_f / dist * (1 + 1e-9), (n, s)


def test_commutation_remainder():
    # beta^l D(n, s-l)^-1 f - D(n, s)^-1 (beta^l f) is a kernel multiple;
    # with matching signs of s and s - l the multiple vanishes.  The exact
    # integral backend keeps the check independent of any grid.
    from spiral_euler.operators import _invert_by_quadrature

    def f(x):
        x = np.asarray(x, dtype=float)
        return (x**2 / (1 + x**2) * np.exp(-x)).astype(complex)

    pts = np.array([0.4, 0.9, 1.7, 2.6, 3.5])
    n = 1
    for s, ell, same_sign in ((2.5, 1.0, True), (0.8, 1.6, False)):
        def bl_f(x, _ell=ell):
            return np.asarray(x, float) ** _ell * f(x)

        u1 = _invert_by_quadrature(n, s - ell, f, pts, 1e-13)
        u2 = _invert_by_quadrature(n, s, bl_f, pts, 1e-13)
        kernel = pts**s * np.exp(1j * n * pts)
        consts = (pts**ell * u1 - u2) / kernel
        if same_sign:
            assert np.max(np.abs(consts)) < 1e-8
        else:
            # a genuine, point-independent kernel multiple
            assert np.max(np.abs(consts)) > 1e-4
            assert np.std(consts) < 1e-8 * np.mean(np.abs(consts))


QUAD_RADII = np.array([0.15, 0.5, 1.1, 2.2, 4.5, 9.0])


def test_quadrature_inverse_matches_incomplete_gamma():
    # int x^(-s-1) e^(-(1+in)x) dx = (1+in)^s Gamma(-s, .), upper for s > 0
    # and lower for s < 0, on f = exp(-beta)
    import mpmath
    from spiral_euler.operators import _invert_by_quadrature

    def f(x):
        return np.exp(-np.asarray(x, dtype=float)).astype(complex)

    for n in (0, 1, 4):
        for s in (0.7, 1.6, -0.9, -2.2):
            u = _invert_by_quadrature(n, s, f, QUAD_RADII, 1e-13)
            ref = []
            with mpmath.workdps(30):
                z = mpmath.mpc(1, n)
                for beta in QUAD_RADII:
                    if s > 0:
                        raw = -(z**s) * mpmath.gammainc(-s, z * beta)
                    else:
                        raw = z**s * mpmath.gammainc(-s, 0, z * beta)
                    ref.append(complex(mpmath.mpf(beta) ** s * mpmath.expj(n * beta) * raw))
            ref = np.array(ref)
            assert np.max(np.abs(u - ref)) <= 1e-12 * np.max(np.abs(ref)), (n, s)


def test_quadrature_inverse_resolves_a_kink():
    # criterion 3's weighted-envelope shape min(b^d, b^-d) has a kink at
    # beta = 1, between two radii; the reference splits its quadrature there
    import mpmath
    from spiral_euler.operators import _invert_by_quadrature

    delta = 0.4
    co = np.array([0.8, -0.5, 0.3, 0.1, -0.05])

    def f(x):
        x = np.asarray(x, dtype=float)
        env = np.zeros_like(x)
        pos = x > 0
        env[pos] = np.minimum(x[pos] ** delta, x[pos] ** -delta)
        cheb = np.polynomial.chebyshev.chebval(1.0 - 2.0 * x / (1.0 + x), co)
        return (cheb * env).astype(complex)

    for s in (0.7, 1.6, -0.9, -2.2):
        u = _invert_by_quadrature(0, s, f, QUAD_RADII, 1e-13)
        ref = []
        with mpmath.workdps(20):
            def g(x):
                y = 1 - 2 * x / (1 + x)
                cheb = sum(c * mpmath.chebyt(k, y) for k, c in enumerate(co))
                return x ** (-s - 1) * cheb * min(x**delta, x**-delta)

            for beta in QUAD_RADII:
                if s > 0:
                    nodes = [beta, 1, mpmath.inf] if beta < 1 else [beta, mpmath.inf]
                    raw = -mpmath.quad(g, nodes)
                else:
                    raw = mpmath.quad(g, [0, 1, beta] if beta > 1 else [0, beta])
                ref.append(complex(mpmath.mpf(beta) ** s * raw))
        ref = np.array(ref)
        assert np.max(np.abs(u - ref)) <= 1e-12 * np.max(np.abs(ref)), s


def test_quadrature_inverse_work_bound():
    # one shared panel set: the integrand is evaluated once for the tail
    # scan, once for the whole panels and once per refinement round (4 calls
    # measured), not once per panel and radius (48,196 calls before)
    from spiral_euler.operators import _invert_by_quadrature

    calls = 0

    def f(x):
        nonlocal calls
        calls += 1
        x = np.asarray(x, dtype=float)
        smooth = np.polynomial.chebyshev.chebval(1.0 - 2.0 * x / (1.0 + x), [0.3, -0.5, 0.2, 0.1])
        return (smooth * (1.0 - np.exp(-4.0 * x))).astype(complex)

    _invert_by_quadrature(4, 0.7, f, QUAD_RADII, 1e-13)
    assert calls <= 12


def test_quadrature_inverse_reports_what_it_cannot_resolve():
    from spiral_euler.operators import _invert_by_quadrature

    def growing(x):
        return (np.asarray(x, dtype=float) ** 2).astype(complex)

    def step(x):
        return (np.asarray(x, dtype=float) > 0.7).astype(complex)

    def smooth(x):
        return np.exp(-np.asarray(x, dtype=float)).astype(complex)

    # x^(-s-1) x^2 is not integrable at infinity
    with pytest.raises(AccuracyError, match="did not settle"):
        _invert_by_quadrature(0, 0.7, growing, QUAD_RADII, 1e-13)
    with pytest.raises(AccuracyError, match="stalled"):
        _invert_by_quadrature(0, -0.9, step, QUAD_RADII, 1e-13)
    # half-wavelength panels out to the largest radius
    with pytest.raises(AccuracyError, match="too many panels"):
        _invert_by_quadrature(100_000, -0.9, smooth, QUAD_RADII, 1e-13)


def test_assemble_linearization_constant_sector(desk_params, desk_grid, desk_cuts):
    mu = desk_params.mu
    op = assemble_linearization(0, desk_params)
    const = desk_grid.extend(np.ones(desk_grid.size), 1.0)
    out = op @ const
    expected = (2 * mu - 1) ** 2 / (2 * mu * mu)
    assert np.max(np.abs(out - expected)) < 1e-10


class _FullLatticeParams(SolverParams):
    """Parameters whose mode_indices run over the whole lattice |k| <= K."""

    @property
    def mode_indices(self):
        return self.N * np.arange(-self.harmonics, self.harmonics + 1)


def test_negative_mode_linearizations_are_conjugates():
    # why a real field needs only the K+1 solves at n >= 0: the operator at
    # -n is the conjugate of the one at n.  Measured at the reference point:
    # assemble_linearization <= 5.3e-21 relative, linearization_at_base 0.
    params = _FullLatticeParams(mu=1.0, N=4000, grid_points=257)
    K = params.harmonics
    at_base = linearization_at_base(params)  # row K + k for mode n = N k
    for k in range(1, K + 1):
        n = params.N * k
        for plus, minus in (
            (assemble_linearization(n, params), assemble_linearization(-n, params)),
            (at_base[K + k], at_base[K - k]),
        ):
            assert np.max(np.abs(minus - plus.conj())) <= 1e-18 * np.max(np.abs(plus)), n


def test_assemble_linearization_degenerate_shift():
    params = SolverParams(mu=1.0, N=8, grid_points=96)
    with pytest.raises(DegenerateShiftError):
        assemble_linearization(1, params)  # (2-1)*1-1 = 0


def test_linearization_inverse_constant_sector(desk_params, desk_grid):
    mu = desk_params.mu
    ops = linearization_set(desk_params)
    values = np.zeros((len(desk_params.mode_indices), desk_grid.size + 1))
    values[0] = 1.0
    rhs = SpectralField(params=desk_params, values=values)
    sol = apply_linearization_inverse(ops, rhs)
    expected = 2 * mu * mu / (2 * mu - 1) ** 2
    assert abs(sol.values[0, -1] - expected) < 1e-9


def test_linearization_inverse_round_trip(desk_params):
    ops = linearization_set(desk_params)
    X = random_field(desk_params, seed=12)
    Y = SpectralField(desk_params, np.array([op @ x for op, x in zip(ops, X.values)]))
    X2 = apply_linearization_inverse(ops, Y)
    err = np.max(np.abs(X2.values - X.values))
    assert err < 1e-8


def test_chord_step_solves_once_per_mode(desk_params, monkeypatch):
    # one gesv per stored mode and chord step: one dense_solve of the K+1
    # operator stack, each operator with one row of the field
    ops = linearization_set(desk_params)
    calls = []

    def counting(a, b):
        calls.append((a.shape, b.shape))
        return dense_solve(a, b)

    monkeypatch.setattr(operators, "dense_solve", counting)
    apply_linearization_inverse(ops, random_field(desk_params, seed=12))
    K1, M1 = len(desk_params.mode_indices), desk_params.grid.size + 1
    assert calls == [((K1, M1, M1), (K1, M1))]


_STACK_VS_MODES = (
    "import numpy as np\n"
    "from spiral_euler import SolverParams, dense_solve, linearization_set\n"
    "for K in (3, 12):\n"
    "    params = SolverParams(mu=1.0, N=8, harmonics=K, grid_points=96)\n"
    "    ops = linearization_set(params)\n"
    "    rng = np.random.default_rng(K)\n"
    "    rhs = rng.standard_normal(ops.shape[:2]) + 1j * rng.standard_normal(ops.shape[:2])\n"
    "    sol = dense_solve(ops, rhs)\n"
    "    per_mode = np.array([dense_solve(op, r) for op, r in zip(ops, rhs)])\n"
    "    assert sol.tobytes() == per_mode.tobytes(), K  # the bits, signed zeros included\n"
    "print('same bits')\n"
)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_stacked_solve_equals_one_solve_per_mode(threads):
    # the chord step's one stacked solve gives each mode the bits of its own
    # solve, at K = 3 and 12, whatever the BLAS thread count
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    src = str(Path(spiral_euler.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _STACK_VS_MODES], capture_output=True, text=True, env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "same bits\n"


def test_shift_helpers():
    assert shift_plus(1.0, 4) == 5.0
    assert shift_minus(1.0, 4) == -3.0
