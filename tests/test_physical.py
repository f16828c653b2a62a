import numpy as np
import pytest

from spiral_euler import (
    AngularSignal,
    InversionError,
    ParameterError,
    SpectralField,
    base_vorticity_factor,
    eval_fields,
    eval_fields_batch,
    initial_data,
    newton_solve,
    spiral_extract,
    spiral_ode_oracle,
    to_chart,
    to_plane,
    verify,
)
from spiral_euler.operators import derived_fields
from spiral_euler.physical import (
    FieldEvaluator,
    export_samples_csv,
    render_spirals_svg,
)


@pytest.fixture(scope="module")
def base_setup(desk_params, desk_grid):
    base = SpectralField.base_state(desk_params, desk_grid)
    omega = AngularSignal.base(desk_params)
    return base, omega, FieldEvaluator(base, omega)


def test_chart_map_base_values(base_setup):
    base, omega, ev = base_setup
    z = to_plane(base, np.array([1.0]), np.array([0.0]), ev)
    assert z[0, 0] == pytest.approx(np.cos(1.0), abs=1e-12)
    assert z[0, 1] == pytest.approx(np.sin(1.0), abs=1e-12)
    # radius follows the power law mu^(-1/2) beta^(-mu)
    z2 = to_plane(base, np.array([2.0, 4.0]), np.array([0.7, 0.7]), ev)
    r = np.hypot(z2[:, 0], z2[:, 1])
    assert r[0] == pytest.approx(0.5, abs=1e-12)
    assert r[0] / r[1] == pytest.approx(2.0, rel=1e-12)


def test_chart_inversion_base_point(base_setup):
    base, omega, ev = base_setup
    beta, phi = to_chart(base, np.array([[1.0, 0.0]]), ev)
    assert beta[0] == pytest.approx(1.0, abs=1e-12)
    assert phi[0] == pytest.approx(2 * np.pi - 1.0, abs=1e-12)


def test_chart_round_trip_random(base_setup):
    base, omega, ev = base_setup
    rng = np.random.default_rng(3)
    b = rng.uniform(0.2, 6.0, 400)
    p = rng.uniform(0.0, 2 * np.pi, 400)
    z = to_plane(base, b, p, ev)
    b2, p2 = to_chart(base, z, ev)
    z2 = to_plane(base, b2, p2, ev)
    rel = np.hypot(z[:, 0] - z2[:, 0], z[:, 1] - z2[:, 1]) / np.hypot(z[:, 0], z[:, 1])
    assert np.max(rel) < 1e-10


def test_chart_inversion_stall_raises(desk_solution):
    stream, omega, _ = desk_solution
    ev = FieldEvaluator(stream, omega)
    z = np.random.default_rng(4).uniform(0.5, 2.0, (50, 2))
    with pytest.raises(InversionError, match="stalled"):
        to_chart(stream, z, ev, max_iter=1)


def test_chart_inversion_rejects_lost_sign(base_setup):
    # the negated base stream has dbeta_bar psi > 0 everywhere
    base, omega, _ = base_setup
    flipped = base.scaled(-1.0)
    ev = FieldEvaluator(flipped, omega)
    with pytest.raises(InversionError, match="lost its sign"):
        to_chart(flipped, np.array([[1.0, 0.5]]), ev)


# max |fast - full| / max |full| per field over the test's chart points; the
# measured values sit five to eight times below these.  The desk mode-0 rows
# end in an algebraic tail near 1e-13 that the plateau rule chops.
FAST_FIELD_BOUNDS = {
    "desk_solution": {
        "psi": 5e-11, "db": 1e-10, "dv": 1e-10, "dp": 1e-14, "dpdb": 2e-13, "lg": 2.5e-10,
    },
    "prod_solution": {
        "psi": 5e-15, "db": 1e-13, "dv": 1e-13, "dp": 5e-12, "dpdb": 1e-10, "lg": 5e-12,
    },
}


@pytest.mark.parametrize("solution", sorted(FAST_FIELD_BOUNDS))
def test_fused_fields_match_full_mode_sum(request, solution):
    stream, omega, _ = request.getfixturevalue(solution)
    ev = FieldEvaluator(stream, omega)
    grid, params = stream.grid, stream.params
    rng = np.random.default_rng(12)
    beta = np.exp(rng.uniform(np.log(0.01), np.log(50.0), 5000))
    phi = rng.uniform(0.0, 2 * np.pi, 5000)
    # reference: all 2K+1 modes of the lattice, mode -n the conjugate of the
    # stored mode n, unchopped and unweighted
    nvec = np.concatenate([-params.mode_indices[:0:-1], params.mode_indices])
    phases = np.exp(1j * nvec[:, None] * phi[None, :])
    fused = ev.field(ev.FIELDS, beta, phi)
    derived = derived_fields(stream, ev.cuts)
    for name, fast in zip(ev.FIELDS, fused):
        arr = np.concatenate([derived[name][:0:-1].conj(), derived[name]])
        vals = grid.evaluate_coefficients(grid.chebyshev_coefficients(arr), grid.s_of_beta(beta))
        full = np.sum(vals * phases, axis=0).real
        rel = np.max(np.abs(fast - full)) / np.max(np.abs(full))
        assert rel <= FAST_FIELD_BOUNDS[solution][name], name
        single = ev.field(name, beta, phi)
        assert np.max(np.abs(single - fast)) <= 1e-15 * np.max(np.abs(full))


def test_chart_rejects_origin(base_setup):
    base, omega, ev = base_setup
    with pytest.raises(ParameterError):
        to_chart(base, np.array([[0.0, 0.0]]), ev)
    with pytest.raises(ParameterError):
        to_plane(base, np.array([0.0]), np.array([0.0]), ev)


def test_base_fields_closed_form(base_setup, desk_params):
    base, omega, ev = base_setup
    mu = desk_params.mu
    s = eval_fields(base, omega, np.array([0.3, 0.4]), 0.7)
    C = base_vorticity_factor(mu)
    assert s.w == pytest.approx(C * 0.5 ** (-1 / mu), rel=1e-12)
    # velocity is tangential with the closed-form magnitude
    assert s.u[0] * 0.3 + s.u[1] * 0.4 == pytest.approx(0.0, abs=1e-12)
    assert np.hypot(*s.u) == pytest.approx(
        mu ** (-1 / (2 * mu)) * 0.5 ** (1 - 1 / mu), rel=1e-12
    )
    # stream value matches the radial power law
    expected_psi = C * (2 - 1 / mu) ** (-2) * 0.5 ** (2 - 1 / mu)
    assert s.psi == pytest.approx(expected_psi, rel=1e-12)


def test_base_vorticity_time_independent(base_setup):
    base, omega, ev = base_setup
    s1 = eval_fields(base, omega, np.array([1.2, -0.5]), 0.3)
    s2 = eval_fields(base, omega, np.array([1.2, -0.5]), 1.7)
    assert s1.w == pytest.approx(s2.w, rel=1e-12)


def test_chart_vorticity_profile(base_setup, desk_params):
    # on the chart the base vorticity is (2 - 1/mu) * beta
    base, omega, ev = base_setup
    mu = desk_params.mu
    for beta in (0.5, 1.0, 2.5):
        z = to_plane(base, np.array([beta]), np.array([1.0]), ev)
        s = eval_fields(base, omega, z[0], 1.0)
        assert s.w == pytest.approx((2 - 1 / mu) * beta, rel=1e-10)


def test_initial_data_base_factors(base_setup, desk_params):
    base, omega, ev = base_setup
    mu = desk_params.mu
    theta = np.linspace(0, 2 * np.pi, 9)
    out = initial_data(base, omega, theta, ev)
    w0 = base_vorticity_factor(mu)
    assert np.max(np.abs(out["w0"] - w0)) < 1e-12
    # the stream factor reduces to C (2 - 1/mu)^(-2)
    expected = w0 * (2 - 1 / mu) ** (-2)
    alt = mu ** (1 - 1 / (2 * mu)) / (2 * mu - 1)
    assert expected == pytest.approx(alt, rel=1e-14)
    assert np.max(np.abs(out["psi0"] - expected)) < 1e-12


def test_velocity_is_perp_gradient_of_stream(desk_solution):
    # the reconstructed velocity equals the rotated gradient of the stream,
    # checked by central differences at physical points
    stream, omega, _ = desk_solution
    ev = FieldEvaluator(stream, omega)
    rng = np.random.default_rng(8)
    pts = rng.uniform(-1.5, 1.5, (40, 2))
    pts = pts[np.hypot(pts[:, 0], pts[:, 1]) > 0.4]
    t = 0.8
    h = 1e-6
    for x in pts[:12]:
        def psi_at(dx, dy):
            return eval_fields(stream, omega, np.array([x[0] + dx, x[1] + dy]), t).psi

        u1 = -(psi_at(0, h) - psi_at(0, -h)) / (2 * h)
        u2 = (psi_at(h, 0) - psi_at(-h, 0)) / (2 * h)
        s = eval_fields(stream, omega, x, t)
        assert u1 == pytest.approx(s.u[0], rel=2e-6, abs=1e-8)
        assert u2 == pytest.approx(s.u[1], rel=2e-6, abs=1e-8)


def test_initial_data_convergence_in_l1(desk_solution, desk_params):
    # || w(., t) - w(., 0) ||_{L^1(annulus)} decreases as t drops
    stream, omega, _ = desk_solution
    ev = FieldEvaluator(stream, omega)
    nr, nth = 24, 64
    r = np.linspace(0.6, 1.8, nr)
    th = (2 * np.pi / desk_params.N) * np.arange(nth) / nth
    R, TH = np.meshgrid(r, th, indexing="ij")
    X = np.stack([R * np.cos(TH), R * np.sin(TH)], axis=-1).reshape(-1, 2)
    w0 = (
        np.hypot(X[:, 0], X[:, 1]) ** (-1 / desk_params.mu)
        * initial_data(stream, omega, np.arctan2(X[:, 1], X[:, 0]), ev)["w0"]
    )
    dists = []
    for t in (0.1, 0.01, 0.001):
        w = eval_fields_batch(stream, omega, X, np.full(len(X), t), ev)["w"]
        dists.append(np.mean(np.abs(w - w0)))
    assert dists[0] > dists[1] > dists[2]


def test_spiral_extract_no_zeros_is_empty(desk_solution):
    stream, omega, _ = desk_solution
    assert spiral_extract(stream, omega, 1.0) == []


@pytest.mark.filterwarnings("ignore:dropped harmonic mass")
def test_spiral_extract_cosine_zero_set(desk_params, desk_grid):
    # an angular factor crossing zero yields 2N curves inside the envelope
    amp = 1.05 * desk_params.base_omega
    omega = AngularSignal.constant_plus_cosine(desk_params, amp)
    # the default trust region is sized for high periodicity; widen it for
    # this small-N exercise
    stream, report = newton_solve(omega, desk_params, grid=desk_grid, epsilon_cap=0.5)
    assert report.converged
    t = 0.8
    curves = spiral_extract(stream, omega, t, n_beta=96)
    assert len(curves) == 2 * desk_params.N
    mu = desk_params.mu
    ev = FieldEvaluator(stream, omega)
    for c in curves[:: len(curves) // 4]:
        radii = np.hypot(c.points[:, 0], c.points[:, 1])
        envelope = (t / c.beta) ** mu
        assert np.all(radii >= np.sqrt(1 / (2 * mu)) * envelope * (1 - 1e-12))
        assert np.all(radii <= np.sqrt(3 / (2 * mu)) * envelope * (1 + 1e-12))
        # vorticity vanishes along the curve relative to its local scale
        mid = slice(10, 60)
        f = eval_fields_batch(stream, omega, c.points[mid], np.full(50, t), ev)
        off = eval_fields_batch(
            stream,
            omega,
            c.points[mid] * 1.0 + 1e-3,  # nudge off the curve
            np.full(50, t),
            ev,
        )
        assert np.max(np.abs(f["w"])) <= 1e-8 * np.max(np.abs(off["w"]))
        # the curve leaves toward the ray theta = phi0 as beta -> 0
        theta0 = np.arctan2(c.points[0, 1], c.points[0, 0])
        assert abs((theta0 - c.phi0 - c.beta[0] + np.pi) % (2 * np.pi) - np.pi) < 1e-9


def test_spiral_ode_oracle_closed_form():
    # mu = 1, C = 1: the streamline radius is 1/(theta + 1/r0)
    fit = spiral_ode_oracle(1.0, 1.0, (0.5, 0.0), (0.0, 4 * np.pi))
    assert fit.max_rel_error < 1e-6
    assert fit.a == pytest.approx(1.0, abs=1e-9)
    assert fit.b == pytest.approx(2.0, abs=1e-8)
    closed = 1.0 / (fit.theta + 2.0)
    assert np.max(np.abs(fit.radius - closed) / closed) < 1e-9


def test_spiral_ode_oracle_general_exponent():
    fit = spiral_ode_oracle(0.8, 1.3, (1.0, 0.0), (0.0, 4 * np.pi))
    assert fit.max_rel_error < 1e-6


def test_spiral_ode_oracle_degenerate_span():
    fit = spiral_ode_oracle(1.0, 1.0, (1.0, 0.0), (0.5, 0.5))
    assert fit.max_rel_error == 0.0
    assert len(fit.theta) == 1


def test_spiral_ode_oracle_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        spiral_ode_oracle(1.0, 0.0, (1.0, 0.0), (0.0, 1.0))
    with pytest.raises(ParameterError):
        spiral_ode_oracle(1.0, 1.0, (0.0, 0.0), (0.0, 1.0))


def test_verify_selfsim_divfree_poisson(desk_solution, desk_params):
    stream, omega, _ = desk_solution
    report = verify(stream, omega, desk_params, suite=("selfsim", "divfree", "poisson"))
    assert report["selfsim"]["max_rel_defect"] <= 1e-10
    assert all(row["rel"] <= 1e-5 for row in report["divfree"])
    assert all(row["rel"] <= 1e-5 for row in report["poisson"])


def test_verify_lp_bound(desk_solution, desk_params):
    stream, omega, _ = desk_solution
    report = verify(stream, omega, desk_params, suite=("lp",))
    assert len(report["lp"]) == 18
    assert all(row["ok"] for row in report["lp"])


def test_verify_lp_base_closed_form(base_setup, desk_params):
    # trivial field at mu = 1, p = 1, R = 1: the integral is exactly 2 pi
    base, omega, ev = base_setup
    report = verify(base, omega, desk_params, suite=("lp",))
    row = next(r for r in report["lp"] if r["p"] == 1.0 and r["R"] == 1.0 and r["t"] == 1.0)
    assert row["norm"] == pytest.approx(2 * np.pi, rel=1e-8)


def test_verify_weak_base_quadrature_floor(base_setup, desk_params):
    # on the closed-form base solution the weak residual is pure quadrature
    # error
    base, omega, ev = base_setup
    report = verify(base, omega, desk_params, suite=("weak",))
    for row in report["weak"]:
        assert abs(row["residual"]) <= 1e-6 * row["scale"]


def test_verify_unknown_suite(base_setup, desk_params):
    base, omega, _ = base_setup
    with pytest.raises(ParameterError):
        verify(base, omega, desk_params, suite=("nope",))


def test_exports(tmp_path, desk_solution):
    stream, omega, _ = desk_solution
    s = eval_fields(stream, omega, np.array([1.0, 0.2]), 0.5)
    export_samples_csv(tmp_path / "s.csv", [s])
    text = (tmp_path / "s.csv").read_text()
    assert text.splitlines()[0] == "x1,x2,t,w,u1,u2,psi"
    render_spirals_svg(tmp_path / "c.svg", [])
    assert "<svg" in (tmp_path / "c.svg").read_text()
