import csv
import functools
import warnings
from itertools import repeat

import numpy as np
import pytest

from spiral_euler import (
    AngularSignal,
    DroppedMassWarning,
    InversionError,
    ModeProfile,
    ParameterError,
    SolverParams,
    SpectralField,
    SpiralCurve,
    base_vorticity_factor,
    eval_fields_batch,
    initial_data,
    newton_solve,
    spiral_extract,
    to_chart,
    to_plane,
    verify,
)
from spiral_euler import physical
from spiral_euler.grid_space import bump
from spiral_euler.operators import derived_fields
from spiral_euler.physical import (
    FieldEvaluator,
    _lp_chart_norms,
    _omega_zeros,
    export_samples_csv,
    export_spirals_csv,
    render_spirals_svg,
)
from conftest import spiral_ode_oracle


@pytest.fixture(scope="module")
def base_setup(desk_params):
    base = SpectralField.base_state(desk_params)
    omega = AngularSignal.base(desk_params)
    return base, omega, FieldEvaluator(base)


def test_chart_map_base_values(base_setup):
    base, omega, ev = base_setup
    z = to_plane(ev, np.array([1.0]), np.array([0.0]))
    assert z[0, 0] == pytest.approx(np.cos(1.0), abs=1e-12)
    assert z[0, 1] == pytest.approx(np.sin(1.0), abs=1e-12)
    # radius follows the power law mu^(-1/2) beta^(-mu)
    z2 = to_plane(ev, np.array([2.0, 4.0]), np.array([0.7, 0.7]))
    r = np.hypot(z2[:, 0], z2[:, 1])
    assert r[0] == pytest.approx(0.5, abs=1e-12)
    assert r[0] / r[1] == pytest.approx(2.0, rel=1e-12)


def test_chart_inversion_base_point(base_setup):
    base, omega, ev = base_setup
    beta, phi = to_chart(ev, np.array([[1.0, 0.0]]))
    assert beta[0] == pytest.approx(1.0, abs=1e-12)
    assert phi[0] == pytest.approx(2 * np.pi - 1.0, abs=1e-12)


def test_chart_round_trip_random(base_setup):
    base, omega, ev = base_setup
    rng = np.random.default_rng(3)
    b = rng.uniform(0.2, 6.0, 400)
    p = rng.uniform(0.0, 2 * np.pi, 400)
    z = to_plane(ev, b, p)
    b2, p2 = to_chart(ev, z)
    z2 = to_plane(ev, b2, p2)
    rel = np.hypot(z[:, 0] - z2[:, 0], z[:, 1] - z2[:, 1]) / np.hypot(z[:, 0], z[:, 1])
    assert np.max(rel) < 1e-10


class _SteepSlope(FieldEvaluator):
    """A Newton slope 1000 times too steep: |F| shrinks by 0.1% a step."""

    def chart_fields(self, names, beta, phi, slope):
        vals, a, da = super().chart_fields(names, beta, phi, slope)
        return vals, a, 1e3 * da


def test_chart_inversion_stall_raises(desk_solution):
    stream, omega, _ = desk_solution
    z = np.random.default_rng(4).uniform(0.5, 2.0, (50, 2))
    with pytest.raises(InversionError, match="chart inversion stalled"):
        to_chart(_SteepSlope(stream), z)


def test_chart_inversion_rejects_lost_sign(base_setup):
    # the negated base stream has dbeta_bar psi > 0 everywhere
    base, omega, _ = base_setup
    flipped = base.scaled(-1.0)
    ev = FieldEvaluator(flipped)
    with pytest.raises(InversionError, match="lost its sign"):
        to_chart(ev, np.array([[1.0, 0.5]]))


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
    ev = FieldEvaluator(stream)
    grid, params = stream.grid, stream.params
    rng = np.random.default_rng(12)
    beta = np.exp(rng.uniform(np.log(0.01), np.log(50.0), 5000))
    phi = rng.uniform(0.0, 2 * np.pi, 5000)
    # reference: all 2K+1 modes of the lattice, mode -n the conjugate of the
    # stored mode n, unchopped and unweighted
    nvec = np.concatenate([-params.mode_indices[:0:-1], params.mode_indices])
    phases = np.exp(1j * nvec[:, None] * phi[None, :])
    fused = ev.field(ev.FIELDS, beta, phi)
    derived = derived_fields(stream)
    for name, fast in zip(ev.FIELDS, fused):
        arr = np.concatenate([derived[name][:0:-1].conj(), derived[name]])
        vals = grid.evaluate_coefficients(grid.chebyshev_coefficients(arr), grid.s_of_beta(beta))
        full = np.sum(vals * phases, axis=0).real
        rel = np.max(np.abs(fast - full)) / np.max(np.abs(full))
        assert rel <= FAST_FIELD_BOUNDS[solution][name], name
        single = ev.field(name, beta, phi)
        assert np.max(np.abs(single - fast)) <= 1e-15 * np.max(np.abs(full))


def test_reference_evaluator_chops_plateauless_rows(prod_solution):
    # the six dp/dpdb rows of modes 2N and 3N are noise without a plateau;
    # kept whole, as the plateau rule alone keeps them, they bring the
    # count to 2005.  db_y and db_phi differentiate db's kept rows.
    stream, omega, _ = prod_solution
    ev = FieldEvaluator(stream)
    kept = {name: int(np.count_nonzero(rows)) for name, rows in ev._rows.items()}
    assert kept == {"psi": 47, "db": 52, "dv": 92, "dp": 120, "dpdb": 332, "lg": 100,
                    "db_y": 45, "db_phi": 44}
    assert sum(kept[name] for name in ev.FIELDS) == 743


def test_chart_newton_starts_at_base_preimage(prod_solution, monkeypatch):
    # past the bracket, one Newton step from the base flow's preimage and
    # the evaluation that confirms |F| < 1e-13, each one fused
    # (db, db_y, db_phi) call
    stream, omega, _ = prod_solution
    ev = FieldEvaluator(stream)
    z = np.random.default_rng(6).uniform(-2.0, 2.0, (2000, 2))
    seen = []
    field = FieldEvaluator.field

    def counted(self, names, beta, phi):
        if not isinstance(names, str):
            seen.append(np.broadcast(np.asarray(beta), np.asarray(phi)).size)
        return field(self, names, beta, phi)

    monkeypatch.setattr(FieldEvaluator, "field", counted)
    beta, phi = to_chart(ev, z)
    assert sum(seen) <= 2 * len(z)
    monkeypatch.undo()
    z2 = to_plane(ev, beta, phi)
    assert np.max(np.hypot(*(z - z2).T) / np.hypot(*z.T)) < 1e-12


def test_chart_newton_keeps_its_last_step(spiral_solution):
    # the reference takes three more plain Newton steps along theta = const
    # from the returned radii; keeping the iterate that passed |F| < 1e-13
    # instead of its Newton step left the radii up to 9.9e-14 relative away
    stream, omega, _ = spiral_solution
    ev = FieldEvaluator(stream)
    z = np.random.default_rng(6).uniform(-2.0, 2.0, (2000, 2))
    beta, _ = to_chart(ev, z)
    theta = np.arctan2(z[:, 1], z[:, 0])
    target = np.log(np.hypot(z[:, 0], z[:, 1]))
    ref = beta.copy()
    for _ in range(3):
        _, a, da = ev.chart_fields((), ref, theta - ref, 1.0)
        ref = ref - (a - target) / da
    rel = np.max(np.abs(beta / ref - 1.0))
    assert rel < 2e-15, rel


# mode 0 of dbeta_bar psi is -(c0 xi_near + cconst); the safeguard reaches
# down to 2^-9 sqrt(1/2) / |z| at mu = 1
@pytest.mark.parametrize("c0, cconst, inverts", [
    # about -1 near the origin, where the preimages of 1.2 < |z| < 3 lie,
    # and -1e-7 at infinity: the start sqrt(1e-7) / |z| lies below the reach
    # and Newton starts at the safeguard's geometric midpoint
    pytest.param(1.0 - 1e-7, 1e-7, True, id="start-below-reach"),
    # -0.05 everywhere: the root sqrt(0.05) / |z| lies below half the
    # envelope's lower end sqrt(1/2) / |z|
    pytest.param(0.0, 0.05, True, id="root-below-envelope"),
    # -1e-8 everywhere: the root 1e-4 / |z| lies below the reach
    pytest.param(0.0, 1e-8, False, id="root-past-reach"),
])
def test_chart_newton_safeguard_reach(desk_params, desk_grid, desk_cuts, c0, cconst, inverts):
    base = SpectralField.base_state(desk_params)
    values = base.values.copy()
    values[0] = ModeProfile(0, np.zeros(desk_grid.size), c0=c0, cconst=cconst).extended(desk_cuts)
    stream = SpectralField(params=desk_params, values=values)
    ev = FieldEvaluator(stream)
    assert ev.db_inf == pytest.approx(-cconst, rel=1e-12)
    rng = np.random.default_rng(5)
    r, ang = rng.uniform(1.2, 3.0, 200), rng.uniform(0.0, 2 * np.pi, 200)
    z = np.stack([r * np.cos(ang), r * np.sin(ang)], axis=-1)
    if not inverts:
        with pytest.raises(InversionError, match="stalled"):
            to_chart(ev, z)
        return
    beta, phi = to_chart(ev, z)
    z2 = to_plane(ev, beta, phi)
    assert np.max(np.hypot(*(z - z2).T) / r) < 1e-12


@pytest.mark.parametrize("radius", [1e-300, 1e-160, np.inf])
def test_chart_rejects_points_out_of_reach(base_setup, radius):
    # at mu = 1 the safeguard spans 1/|z| times [2^-9 sqrt(0.5), 2^9 sqrt(1.5)]:
    # its upper end squared overflows below |z| ~ 5e-152, and its lower end
    # is zero at |z| = inf; no step is taken there
    base, omega, ev = base_setup
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        with pytest.raises(InversionError, match="chart inversion cannot reach"):
            to_chart(ev, np.array([[1.0, 0.0], [radius, 0.0]]))


@pytest.mark.parametrize("radius", [1e-150, 1e300, 1e308])
def test_chart_inverts_near_its_reach(base_setup, radius):
    # the base flow's radius is 1/beta at mu = 1
    base, omega, ev = base_setup
    beta, phi = to_chart(ev, np.array([[radius, 0.0]]))
    assert beta[0] == pytest.approx(1.0 / radius, rel=1e-12)


def test_chart_rejects_origin(base_setup):
    base, omega, ev = base_setup
    with pytest.raises(ParameterError):
        to_chart(ev, np.array([[0.0, 0.0]]))
    with pytest.raises(ParameterError):
        to_plane(ev, np.array([0.0]), np.array([0.0]))


def test_base_fields_closed_form(base_setup, desk_params):
    base, omega, ev = base_setup
    mu = desk_params.mu
    f = eval_fields_batch(ev, omega, np.array([[0.3, 0.4]]), np.array([0.7]))
    C = base_vorticity_factor(mu)
    assert f["w"][0] == pytest.approx(C * 0.5 ** (-1 / mu), rel=1e-12)
    # velocity is tangential with the closed-form magnitude
    u1, u2 = f["u1"][0], f["u2"][0]
    assert u1 * 0.3 + u2 * 0.4 == pytest.approx(0.0, abs=1e-12)
    assert np.hypot(u1, u2) == pytest.approx(
        mu ** (-1 / (2 * mu)) * 0.5 ** (1 - 1 / mu), rel=1e-12
    )
    # stream value matches the radial power law
    expected_psi = C * (2 - 1 / mu) ** (-2) * 0.5 ** (2 - 1 / mu)
    assert f["psi"][0] == pytest.approx(expected_psi, rel=1e-12)


def test_base_vorticity_time_independent(base_setup):
    base, omega, ev = base_setup
    x = np.array([[1.2, -0.5], [1.2, -0.5]])
    w = eval_fields_batch(ev, omega, x, np.array([0.3, 1.7]))["w"]
    assert w[0] == pytest.approx(w[1], rel=1e-12)


def test_chart_vorticity_profile(base_setup, desk_params):
    # on the chart the base vorticity is (2 - 1/mu) * beta
    base, omega, ev = base_setup
    mu = desk_params.mu
    beta = np.array([0.5, 1.0, 2.5])
    z = to_plane(ev, beta, np.ones(3))
    w = eval_fields_batch(ev, omega, z, np.ones(3))["w"]
    assert w == pytest.approx((2 - 1 / mu) * beta, rel=1e-10)


def test_initial_data_base_factors(base_setup, desk_params):
    base, omega, ev = base_setup
    mu = desk_params.mu
    theta = np.linspace(0, 2 * np.pi, 9)
    out = initial_data(ev, omega, theta)
    w0 = base_vorticity_factor(mu)
    assert np.max(np.abs(out["w0"] - w0)) < 1e-12
    # the stream factor reduces to C (2 - 1/mu)^(-2)
    expected = w0 * (2 - 1 / mu) ** (-2)
    alt = mu ** (1 - 1 / (2 * mu)) / (2 * mu - 1)
    assert expected == pytest.approx(alt, rel=1e-14)
    assert np.max(np.abs(out["psi0"] - expected)) < 1e-12


def test_one_evaluator_serves_two_angular_factors(desk_solution):
    # the evaluator holds no angular factor: w and w0 follow the omega passed
    # beside it, and u and psi do not depend on it
    stream, omega, _ = desk_solution
    ev = FieldEvaluator(stream)
    x = np.random.default_rng(7).uniform(-1.5, 1.5, (50, 2))
    t = np.full(50, 0.8)
    one, two = (eval_fields_batch(ev, om, x, t) for om in (omega, omega.scaled(2.0)))
    assert np.array_equal(two["w"], 2.0 * one["w"])
    for key in ("u1", "u2", "psi"):
        assert np.array_equal(two[key], one[key]), key
    theta = np.linspace(0.0, 2.0 * np.pi, 33)
    one, two = (initial_data(ev, om, theta) for om in (omega, omega.scaled(2.0)))
    assert np.array_equal(two["w0"], 2.0 * one["w0"])
    for key in ("u0", "psi0"):
        assert np.array_equal(two[key], one[key]), key


def test_velocity_is_perp_gradient_of_stream(desk_solution):
    # the reconstructed velocity equals the rotated gradient of the stream,
    # checked by central differences at physical points
    stream, omega, _ = desk_solution
    ev = FieldEvaluator(stream)
    rng = np.random.default_rng(8)
    pts = rng.uniform(-1.5, 1.5, (40, 2))
    pts = pts[np.hypot(pts[:, 0], pts[:, 1]) > 0.4]
    t = 0.8
    h = 1e-6
    x = pts[:12]
    # the points themselves, then their four offsets by h, one batch
    steps = np.array([[0.0, 0.0], [0.0, h], [0.0, -h], [h, 0.0], [-h, 0.0]])
    allx = (steps[:, None, :] + x[None, :, :]).reshape(-1, 2)
    f = eval_fields_batch(ev, omega, allx, np.full(len(allx), t))
    psi = f["psi"].reshape(5, len(x))
    u1 = -(psi[1] - psi[2]) / (2 * h)
    u2 = (psi[3] - psi[4]) / (2 * h)
    assert u1 == pytest.approx(f["u1"][: len(x)], rel=2e-6, abs=1e-8)
    assert u2 == pytest.approx(f["u2"][: len(x)], rel=2e-6, abs=1e-8)


def test_initial_data_convergence_in_l1(desk_solution, desk_params):
    # || w(., t) - w(., 0) ||_{L^1(annulus)} decreases as t drops
    stream, omega, _ = desk_solution
    ev = FieldEvaluator(stream)
    nr, nth = 24, 64
    r = np.linspace(0.6, 1.8, nr)
    th = (2 * np.pi / desk_params.N) * np.arange(nth) / nth
    R, TH = np.meshgrid(r, th, indexing="ij")
    X = np.stack([R * np.cos(TH), R * np.sin(TH)], axis=-1).reshape(-1, 2)
    w0 = (
        np.hypot(X[:, 0], X[:, 1]) ** (-1 / desk_params.mu)
        * initial_data(ev, omega, np.arctan2(X[:, 1], X[:, 0]))["w0"]
    )
    dists = []
    for t in (0.1, 0.01, 0.001):
        w = eval_fields_batch(ev, omega, X, np.full(len(X), t))["w"]
        dists.append(np.mean(np.abs(w - w0)))
    assert dists[0] > dists[1] > dists[2]


def test_spiral_extract_no_zeros_is_empty(desk_solution):
    stream, omega, _ = desk_solution
    assert spiral_extract(FieldEvaluator(stream), omega, 1.0) == []


def test_spiral_extract_rejects_points_past_float_range(base_setup, desk_params):
    base, _, ev = base_setup
    N = desk_params.N
    omega = AngularSignal.from_entries(desk_params, {N: -0.5j, -N: 0.5j}.items())
    assert len(spiral_extract(ev, omega, 1e300, n_beta=8)) == 2 * desk_params.N
    with pytest.raises(InversionError, match="leave the float range"):
        spiral_extract(ev, omega, 1e308, n_beta=8)


def test_eval_fields_batch_rejects_points_scaled_to_the_origin(base_setup):
    # |x| t^-mu = 1e-400 underflows to the origin, which the chart misses;
    # the origin itself is no point of the chart's domain at all
    base, omega, ev = base_setup
    with pytest.raises(InversionError, match=r"cannot reach \|z\| = 0"):
        eval_fields_batch(ev, omega, np.array([[1.0, 0.0], [1e-100, 0.0]]), np.full(2, 1e300))
    with pytest.raises(ParameterError, match="origin"):
        eval_fields_batch(ev, omega, np.zeros((1, 2)), np.ones(1))


def _scalar_omega_zeros(omega, params):
    # reference for _omega_zeros: one scalar bisection per sign change
    n_scan = 16384
    period = 2.0 * np.pi / params.N
    phis = period * np.arange(n_scan) / n_scan
    vals = omega.values(phis)
    zeros = []
    for i in range(n_scan):
        a, b = phis[i], phis[i + 1] if i + 1 < n_scan else period
        fa, fb = vals[i], vals[(i + 1) % n_scan]
        if fa == 0.0:
            zeros.append(a)
            continue
        if fa * fb < 0.0:
            for _ in range(60):
                m = 0.5 * (a + b)
                fm = float(omega.values(np.array([m]))[0])
                if fa * fm <= 0.0:
                    b = m
                else:
                    a, fa = m, fm
            zeros.append(0.5 * (a + b))
    all_zeros = [z + j * period for j in range(params.N) for z in zeros]
    return np.sort(np.mod(np.array(all_zeros, dtype=float), 2.0 * np.pi))


@pytest.mark.parametrize("harmonics", [
    {0: 1.0},
    {1: -0.5j, -1: 0.5j},
    {0: 0.2, 1: 0.5, -1: 0.5, 2: 0.3j, -2: -0.3j, 3: 0.25, -3: 0.25},
    {0: 0.5, 1: 0.25, -1: 0.25, 3: 0.1 + 0.05j, -3: 0.1 - 0.05j},
], ids=["constant", "sine", "harmonics-1-2-3", "harmonics-1-3"])
def test_omega_zeros_match_scalar_bisection(desk_params, harmonics):
    N = desk_params.N
    omega = AngularSignal.from_entries(desk_params, [(k * N, c) for k, c in harmonics.items()])
    want = _scalar_omega_zeros(omega, desk_params)
    got = _omega_zeros(omega)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "scale", [2.0**1000, 2.0**-600, 2.0**-1000], ids=["2^1000", "2^-600", "2^-1000"]
)
def test_omega_zeros_of_a_huge_or_tiny_omega(desk_params, scale):
    # an exact power-of-two multiple of omega has omega's zeros, bit for
    # bit, even where its values (2^1000) or their sign-test products
    # (2^-600, 2^-1000) leave the float range
    N = desk_params.N
    coeffs = {0: 0.5, N: 0.3 + 0.1j, -N: 0.3 - 0.1j, 2 * N: 0.05, -2 * N: 0.05}
    want = _omega_zeros(AngularSignal.from_entries(desk_params, coeffs.items()))
    scaled = {n: c * scale for n, c in coeffs.items()}
    got = _omega_zeros(AngularSignal.from_entries(desk_params, scaled.items()))
    assert len(want) == 2 * N
    assert np.array_equal(got, want)


def test_spiral_extract_sine_zero_set(base_setup, desk_params):
    # sin(N phi) has its 2N zeros at k pi / N, and the one at phi = 0 lies on
    # a scan node, where Omega is exactly zero
    base, _, ev = base_setup
    N = desk_params.N
    omega = AngularSignal.from_entries(desk_params, {N: -0.5j, -N: 0.5j}.items())
    assert omega.values(np.array([0.0]))[0] == 0.0
    curves = spiral_extract(ev, omega, 1.0, n_beta=8)
    phi0 = np.array([c.phi0 for c in curves])
    assert len(phi0) == 2 * N
    assert phi0[0] == 0.0
    assert np.max(np.abs(phi0 - np.pi * np.arange(2 * N) / N)) < 1e-14


@pytest.mark.filterwarnings("ignore:dropped harmonic mass")
def test_spiral_extract_cosine_zero_set(desk_params):
    # an angular factor crossing zero yields 2N curves inside the envelope
    amp = 1.05 * desk_params.base_omega
    omega = AngularSignal.constant_plus_cosine(desk_params, amp)
    # the default trust region is sized for high periodicity; widen it for
    # this small-N exercise
    stream, report = newton_solve(omega, desk_params, epsilon_cap=0.5)
    assert report.converged
    t = 0.8
    ev = FieldEvaluator(stream)
    curves = spiral_extract(ev, omega, t, n_beta=96)
    assert len(curves) == 2 * desk_params.N
    mu = desk_params.mu
    for c in curves[:: len(curves) // 4]:
        radii = np.hypot(c.points[:, 0], c.points[:, 1])
        envelope = (t / c.beta) ** mu
        assert np.all(radii >= np.sqrt(1 / (2 * mu)) * envelope * (1 - 1e-12))
        assert np.all(radii <= np.sqrt(3 / (2 * mu)) * envelope * (1 + 1e-12))
        # vorticity vanishes along the curve relative to its local scale
        mid = slice(10, 60)
        f = eval_fields_batch(ev, omega, c.points[mid], np.full(50, t))
        off = eval_fields_batch(
            ev,
            omega,
            c.points[mid] * 1.0 + 1e-3,  # nudge off the curve
            np.full(50, t),
        )
        assert np.max(np.abs(f["w"])) <= 1e-8 * np.max(np.abs(off["w"]))
        # the curve leaves toward the ray theta = phi0 as beta -> 0
        theta0 = np.arctan2(c.points[0, 1], c.points[0, 0])
        assert abs((theta0 - c.phi0 - c.beta[0] + np.pi) % (2 * np.pi) - np.pi) < 1e-9


@pytest.mark.parametrize("t, rel", [(1.0, 0.0), (0.37, 1e-15)])
def test_spiral_extract_matches_former_formula(desk_solution, desk_params, t, rel):
    # the points as spiral_extract formed them before it mapped through
    # to_plane; at t = 1 the product is taken in the same order
    stream, _, _ = desk_solution
    N = desk_params.N
    omega = AngularSignal.from_entries(desk_params, {N: -0.5j, -N: 0.5j}.items())
    ev = FieldEvaluator(stream)
    curves = spiral_extract(ev, omega, t, n_beta=40)
    B = curves[0].beta[:, None]
    P = np.array([c.phi0 for c in curves])[None, :]
    radii = t**ev.mu * np.exp(ev.log_radius(B, P))
    want = np.stack([(radii * np.cos(B + P)).T, (radii * np.sin(B + P)).T], axis=-1)
    got = np.stack([c.points for c in curves])
    move = np.hypot(*np.moveaxis(got - want, -1, 0))
    assert np.all(move <= rel * np.hypot(*np.moveaxis(want, -1, 0)))


def test_physical_functions_reject_an_off_lattice_angular_factor():
    # 0.5 + sin(4 phi) changes sign 8 times on [0, 2 pi), but an N=8
    # evaluator scans one period 2 pi / 8 and found no zero in it
    params = SolverParams(mu=1.0, N=8, grid_points=64)
    ev = FieldEvaluator(SpectralField.base_state(params))
    coarse = SolverParams(mu=1.0, N=4, grid_points=64)
    off = AngularSignal.from_entries(coarse, {0: 0.5, 4: -0.5j, -4: 0.5j}.items())
    calls = {
        "eval_fields_batch": lambda: eval_fields_batch(ev, off, np.array([[1.0, 0.0]]), 1.0),
        "initial_data": lambda: initial_data(ev, off, [0.0]),
        "spiral_extract": lambda: spiral_extract(ev, off, 1.0),
        "verify": lambda: verify(ev, off, suite=("selfsim",)),
    }
    for call in calls.values():
        with pytest.raises(ParameterError, match=r"modes \[-4, 4\] off the lattice of N=8"):
            call()
    # the same factor on the evaluator's own lattice: 2N zero-set curves
    on = AngularSignal.from_entries(params, {0: 0.5, 8: -0.5j, -8: 0.5j}.items())
    assert len(spiral_extract(ev, on, 1.0)) == 16


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


def test_verify_selfsim_divfree_poisson(desk_solution):
    stream, omega, _ = desk_solution
    report = verify(FieldEvaluator(stream), omega, suite=("selfsim", "divfree", "poisson"))
    assert report["selfsim"]["max_rel_defect"] <= 1e-10
    assert all(row["rel"] <= 1e-5 for row in report["divfree"])
    assert all(row["rel"] <= 1e-5 for row in report["poisson"])


def test_verify_test_windows_depend_on_the_seed_alone(desk_solution):
    stream, omega, _ = desk_solution
    ev = FieldEvaluator(stream)
    alone = verify(ev, omega, suite=("divfree",))
    after = verify(ev, omega, suite=("selfsim", "divfree"))
    assert after["divfree"] == alone["divfree"]


def test_verify_lp_bound(desk_solution):
    stream, omega, _ = desk_solution
    report = verify(FieldEvaluator(stream), omega, suite=("lp",))
    assert len(report["lp"]) == 18
    assert all(row["ok"] for row in report["lp"])


def _fixed_phi_radii(ev, zr, phis):
    # reference for the lp radius solve: the suite's former loop, a clamped
    # quasi-Newton from beta = mu^(-1/(2 mu)) zr^(-1/mu), 60 steps to 1e-12
    mu = ev.mu
    beta = np.full(len(phis), (1.0 / np.sqrt(mu)) ** (1.0 / mu) * zr ** (-1.0 / mu))
    target = np.log(zr)
    for _ in range(60):
        db, lg = ev.field(("db", "lg"), beta, phis)
        F = ev._log_radius(db, beta) - target
        deriv = -lg / (2.0 * beta * db)
        beta = np.maximum(beta - F / deriv, 1e-3 * beta)
        if np.max(np.abs(F)) < 1e-12:
            return beta
    raise AssertionError("reference radius solve stalled")


@pytest.mark.parametrize("solution", ["desk_solution", "prod_solution"])
def test_lp_chart_norms_match_fixed_phi_loop(request, solution, monkeypatch):
    stream, omega, _ = request.getfixturevalue(solution)
    ev = FieldEvaluator(stream)
    charts = [(R, t) for t in (0.01, 0.1, 1.0) for R in (0.5, 1.0, 2.0)]
    got = [_lp_chart_norms(ev, omega, [1.0, 1.5], R, t) for R, t in charts]

    def fixed_phi(ev, r, phi0, slope, what):
        assert slope == 0.0 and np.all(r == r[0])
        return _fixed_phi_radii(ev, r[0], phi0)

    monkeypatch.setattr(physical, "_chart_newton", fixed_phi)
    want = [_lp_chart_norms(ev, omega, [1.0, 1.5], R, t) for R, t in charts]
    rel = np.abs(np.array(got) / np.array(want) - 1.0)
    assert np.max(rel) < 1e-14, np.max(rel)


def test_lp_radius_solve_that_stalls_raises(desk_solution):
    # a Newton slope 1000 times too steep shrinks |F| by 0.1% a step, so the
    # 80-step radius solve ends far above its tolerance
    stream, omega, _ = desk_solution

    with pytest.raises(InversionError, match="lp radius solve .* stalled"):
        _lp_chart_norms(_SteepSlope(stream), omega, [1.0], 1.0, 1.0)


def test_verify_lp_base_closed_form(base_setup):
    # trivial field at mu = 1, p = 1, R = 1: the integral is exactly 2 pi
    base, omega, ev = base_setup
    report = verify(ev, omega, suite=("lp",))
    row = next(r for r in report["lp"] if r["p"] == 1.0 and r["R"] == 1.0 and r["t"] == 1.0)
    assert row["norm"] == pytest.approx(2 * np.pi, rel=1e-8)


def test_verify_weak_base_quadrature_floor(base_setup):
    # on the closed-form base solution the weak residual is pure quadrature
    # error
    base, omega, ev = base_setup
    report = verify(ev, omega, suite=("weak",))
    for row in report["weak"]:
        assert abs(row["residual"]) <= 1e-6 * row["scale"]


def test_bump_matches_former_verify_bump(base_setup, monkeypatch):
    # the test-function bump verify used before the one bump,
    # exp(-1/(q (1 - q))) with q = (x - lo)/(hi - lo), compared on the
    # intervals and at the points the weak suite evaluates
    def former(x, lo, hi):
        y, yp = np.zeros_like(x), np.zeros_like(x)
        m = (x > lo) & (x < hi)
        q = (x[m] - lo) / (hi - lo)
        y[m] = np.exp(-1.0 / (q * (1.0 - q)))
        yp[m] = y[m] * ((1.0 - 2.0 * q) / (q * (1.0 - q)) ** 2) / (hi - lo)
        return y, yp

    calls = []

    def recording(x, lo, hi):
        calls.append((np.asarray(x, dtype=float), lo, hi))
        return bump(x, lo, hi)

    monkeypatch.setattr(physical, "bump", recording)
    base, omega, ev = base_setup
    verify(ev, omega, suite=("weak",))
    assert len(calls) == 14  # 5 annuli, 5 time windows, 2 initial terms of 2 each
    for x, lo, hi in calls:
        dense = np.linspace(lo, hi, 4001)
        # a few ulps of each function's maximum; near the ends the two forms
        # of the exponent round differently, so pointwise relative errors grow
        tops = [np.max(np.abs(f)) for f in former(dense, lo, hi)]
        for pts in (x, dense):
            for got, want, top in zip(bump(pts, lo, hi), former(pts, lo, hi), tops):
                assert np.max(np.abs(got - want)) <= 2e-15 * top


@pytest.mark.parametrize("mu", [0.7, 1.0, 2.0])
def test_verify_lp_base_closed_form_every_row(mu):
    # ||w(t)||_{L^p(B_R)} = (2 pi c^p R^(2 - p/mu) / (2 - p/mu))^(1/p) on the
    # base state; a Gauss-Legendre rule in v, blind to the v^(2 mu - p - 1)
    # endpoint power, came out 1.9e-2 low at mu = 0.7, p = 1
    params = SolverParams(mu=mu, N=8, grid_points=96)
    base = SpectralField.base_state(params)
    report = verify(FieldEvaluator(base), AngularSignal.base(params), suite=("lp",))
    c = base_vorticity_factor(mu)
    assert {row["p"] for row in report["lp"]} == {p for p in (1.0, 1.5) if p < 2.0 * mu}
    for row in report["lp"]:
        p, e = row["p"], 2.0 - row["p"] / mu
        want = (2.0 * np.pi * c**p * row["R"] ** e / e) ** (1.0 / p)
        assert row["norm"] == pytest.approx(want, rel=1e-13)


@functools.cache
def _chart_solution(mu, N):
    params = SolverParams(mu=mu, N=N, grid_points=96)
    omega = AngularSignal.constant_plus_cosine(params, amplitude=0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DroppedMassWarning)
        stream, _ = newton_solve(omega, params)
    return stream, omega


@pytest.mark.parametrize("slope", [1.0, 0.0])
def test_area_element_is_the_charts_jacobian(slope):
    # central difference of the log radius along phi = phi0 - slope beta:
    # theta = const (slope 1), where e^(2a) |a'| is the area element, and
    # phi = const (slope 0); at N = 2 the former area element
    # beta^(-2 mu - 1) |lg| / (2 mu) misses it by up to 1e-2
    stream, omega = _chart_solution(1.0, 2)
    ev = FieldEvaluator(stream)
    rng = np.random.default_rng(3)
    beta = np.exp(rng.uniform(np.log(0.05), np.log(20.0), 400))
    phi = rng.uniform(0.0, 2.0 * np.pi, 400)
    _, _, da = ev.chart_fields((), beta, phi, slope)
    h = 1e-5 * beta
    up, down = ev.log_radius(beta + h, phi - slope * h), ev.log_radius(beta - h, phi + slope * h)
    assert np.max(np.abs(da / ((up - down) / (2.0 * h)) - 1.0)) < 1e-8


def test_chart_newton_work_at_small_n(monkeypatch):
    # field points a point for to_chart (slope 1) and for the slope-0
    # preimages of |z| = 10 at 512 angles of one period; with the slope
    # -lg / (2 beta db), which is not the derivative of db's own series,
    # the Newton took 5.83 and 5.90
    stream, omega = _chart_solution(1.0, 2)
    ev = FieldEvaluator(stream)
    seen = []
    field = FieldEvaluator.field

    def counted(self, names, beta, phi):
        seen.append(np.broadcast(np.asarray(beta), np.asarray(phi)).size)
        return field(self, names, beta, phi)

    monkeypatch.setattr(FieldEvaluator, "field", counted)
    z = np.random.default_rng(6).uniform(-2.0, 2.0, (2000, 2))
    to_chart(ev, z)
    assert sum(seen) / len(z) <= 4.0, sum(seen) / len(z)
    seen.clear()
    phis = 2.0 * np.pi / ev.params.N * np.arange(512) / 512
    physical._chart_newton(ev, np.full(512, 10.0), phis, 0.0, "radius solve")
    assert sum(seen) / 512 <= 4.0, sum(seen) / 512


def _physical_rows(ev, omega, weak_rows, n_t=20):
    """verify's weak, divfree and poisson rows by a quadrature in the plane.

    Gauss radii x times x one period of angles, every point inverted by
    eval_fields_batch, Cartesian velocity and gradients.  The windows are
    read back from the weak rows: one that opens at t = 0 is (-b, b).
    """
    mu, N = ev.mu, ev.params.N

    def annulus(r0, r1, nr, nth, tq, wt):
        rq, wr = physical._gauss(nr, r0, r1)
        th = 2.0 * np.pi / N * np.arange(nth) / nth
        R, T, H = np.meshgrid(rq, tq, th, indexing="ij")
        X = np.stack([R * np.cos(H), R * np.sin(H)], axis=-1)
        f = eval_fields_batch(ev, omega, X.reshape(-1, 2), T.reshape(-1))
        W, U1, U2 = (f[k].reshape(R.shape) for k in ("w", "u1", "u2"))
        g, gp = bump(R, r0, r1)
        wq = wr[:, None, None] * wt[None, :, None] * (2.0 * np.pi / nth) * R
        return rq, wr, th, T, H, W, U1, U2, g, gp, wq

    supports = [row["support"] for row in weak_rows]
    windows = [(r0, r1, a if a > 0.0 else -b, b) for r0, r1, a, b in supports]
    weak = []
    for r0, r1, a, b in windows:
        tq, wt = physical._gauss(n_t, max(a, 0.0), b)
        rq, wr, th, T, H, W, U1, U2, g, gp, wq = annulus(r0, r1, 32, 80, tq, wt)
        h, hp = bump(T, a, b)
        adv = W * (U1 * np.cos(H) + U2 * np.sin(H)) * gp * h
        init = 0.0
        if a < 0.0:
            w0 = initial_data(ev, omega, th)["w0"]
            rad = np.sum(wr * rq ** (1.0 - 1.0 / mu) * g[:, 0, 0])
            init = bump(0.0, a, b)[0] * rad * np.sum(w0) * (2.0 * np.pi / 80)
        resid = init + np.sum(W * g * hp * wq) + np.sum(adv * wq)
        scale = max(np.sum(np.abs(W * g * hp) * wq), np.sum(np.abs(adv) * wq), abs(init))
        weak.append({"residual": resid, "scale": scale})
    divfree, poisson = [], []
    for r0, r1, a, b in windows[:3]:
        tval = 0.5 * (max(a, 0.05) + b)
        *_, H, W, U1, U2, g, gp, wq = annulus(r0, r1, 48, 128, np.array([tval]), np.ones(1))
        ur, uth = U1 * np.cos(H) + U2 * np.sin(H), U2 * np.cos(H) - U1 * np.sin(H)
        divfree.append({"integral": np.sum(gp * ur * wq),
                        "scale": np.sum(np.hypot(U1, U2) * np.abs(gp) * wq)})
        poisson.append({"lhs": -np.sum(gp * uth * wq), "rhs": np.sum(W * g * wq)})
    return {"weak": weak, "divfree": divfree, "poisson": poisson}


@pytest.mark.parametrize("mu, N", [(0.7, 8), (1.0, 8), (2.0, 8), (1.5, 3)])
def test_chart_suites_match_physical_quadrature(mu, N, monkeypatch):
    # the chart's rows against the plane's, both with 20 Gauss nodes in t;
    # divfree's scale integrates |g'|, whose kink at the bump's peak both
    # rules resolve only to about 1e-3
    stream, omega = _chart_solution(mu, N)
    monkeypatch.setattr(physical, "_WEAK_T_NODES", 20)
    ev = FieldEvaluator(stream)
    report = verify(ev, omega, suite=("weak", "divfree", "poisson"))
    ref = _physical_rows(ev, omega, report["weak"])
    for got, want in zip(report["weak"], ref["weak"], strict=True):
        for key in ("residual", "scale"):
            assert abs(got[key] - want[key]) <= 1e-9 * want["scale"], key
    for got, want in zip(report["divfree"], ref["divfree"], strict=True):
        assert abs(got["integral"] - want["integral"]) <= 1e-9 * want["scale"]
        assert got["scale"] == pytest.approx(want["scale"], rel=1e-2)
    for got, want in zip(report["poisson"], ref["poisson"], strict=True):
        scale = max(abs(want["lhs"]), abs(want["rhs"]))
        for key in ("lhs", "rhs"):
            assert abs(got[key] - want[key]) <= 1e-9 * scale, key


def test_annulus_columns_cover_the_annulus(monkeypatch):
    # at mu = 2 a column guessed from the base flow's envelope can stop short
    # of the annulus; every column must reach |x| >= r1 and |x| <= r0 at
    # every angle, so that the radial bump vanishes at both of its ends
    stream, omega = _chart_solution(2.0, 8)
    ev = FieldEvaluator(stream)
    seen = []
    columns = physical._columns

    def recording(ev, r0, r1, t, phis):
        lo, hi = columns(ev, r0, r1, t, phis)
        seen.append((r0, r1, t, phis, lo, hi))
        return lo, hi

    monkeypatch.setattr(physical, "_columns", recording)
    verify(ev, omega, suite=("weak", "divfree", "poisson"))
    assert len(seen) == 8  # 5 weak windows, 3 divfree/poisson times
    for r0, r1, t, phis, lo, hi in seen:
        tmu = t[:, None] ** ev.mu
        assert np.all(tmu * np.exp(ev.log_radius(lo[:, None], phis)) >= r1 * (1.0 - 1e-12))
        assert np.all(tmu * np.exp(ev.log_radius(hi[:, None], phis)) <= r0 * (1.0 + 1e-12))


def test_integral_suites_invert_no_plane_points(desk_solution, monkeypatch):
    stream, omega, _ = desk_solution

    def refuse(*args, **kwargs):
        raise AssertionError("an integral suite inverted the chart point by point")

    monkeypatch.setattr(physical, "to_chart", refuse)
    monkeypatch.setattr(physical, "eval_fields_batch", refuse)
    report = verify(FieldEvaluator(stream), omega, suite=("weak", "divfree", "poisson"))
    assert len(report["weak"]) == 5 and len(report["divfree"]) == len(report["poisson"]) == 3


def test_verify_unknown_suite(base_setup):
    base, omega, ev = base_setup
    with pytest.raises(ParameterError):
        verify(ev, omega, suite=("nope",))


def test_exports(tmp_path, desk_solution):
    stream, omega, _ = desk_solution
    x = np.array([[1.0, 0.2]])
    fields = eval_fields_batch(FieldEvaluator(stream), omega, x, 0.5)
    export_samples_csv(tmp_path / "s.csv", x, 0.5, fields)
    text = (tmp_path / "s.csv").read_text()
    assert text.splitlines()[0] == "x1,x2,t,w,u1,u2,psi"
    assert len(text.splitlines()) == 2
    render_spirals_svg(tmp_path / "c.svg", [])
    assert "<svg" in (tmp_path / "c.svg").read_text()


@pytest.fixture(scope="module")
def spiral_solution():
    # the spiral-reconstruct field: N = 500 and a zero-crossing angular
    # factor, whose solve drops harmonic mass as in the tests marked for it
    params = SolverParams(mu=1.0, N=500, grid_points=257)
    omega = AngularSignal.constant_plus_cosine(params, 1.05)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DroppedMassWarning)
        stream, report = newton_solve(omega, params)
    return stream, omega, report


@pytest.mark.parametrize("names", ["db", FieldEvaluator.FIELDS], ids=["db", "all"])
@pytest.mark.parametrize("solution", ["desk_solution", "spiral_solution"])
def test_field_on_broadcast_grid_equals_meshgrid(request, solution, names):
    # the radial recurrence runs once per beta, the bits stay those of the
    # full grid
    stream, omega, _ = request.getfixturevalue(solution)
    ev = FieldEvaluator(stream)
    beta = np.geomspace(0.05, 40.0, 160)
    phi = np.random.default_rng(4).uniform(0.0, 2 * np.pi, 1000)
    B, P = np.meshgrid(beta, phi, indexing="ij")
    got = ev.field(names, beta[:, None], phi[None, :])
    want = ev.field(names, B, P)
    if isinstance(names, str):
        got, want = (got,), (want,)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == (160, 1000)
        assert g.flags.writeable
        assert np.array_equal(g, w)


def _csv_writer_samples(path, x, t, fields):
    # reference for export_samples_csv: one csv.writer row per sample
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "t", "w", "u1", "u2", "psi"])
        for i in range(len(x)):
            row = (x[i, 0], x[i, 1], t, *(fields[k][i] for k in ("w", "u1", "u2", "psi")))
            writer.writerow([repr(float(v)) for v in row])


@pytest.mark.parametrize("t", [0.5, 1e-300, 1e300])
@pytest.mark.parametrize("count", [0, 1, 16])
def test_samples_writer_matches_csv_writer(tmp_path, count, t):
    # extreme magnitudes, signed zeros and nonfinite values in every column
    rng = np.random.default_rng(count)
    odd = np.array([-0.0, 0.0, 1e-300, -1e-300, 1e300, -1e300, 5e-324, np.inf, -np.inf, np.nan])
    cols = rng.standard_normal((6, count)) * 10.0 ** rng.integers(-5, 5, (6, count))
    for j in range(6):
        cols[j, : min(count, len(odd))] = np.roll(odd, j)[:count]
    x = cols[:2].T.copy()
    fields = dict(zip(("w", "u1", "u2", "psi"), cols[2:]))
    export_samples_csv(tmp_path / "fast.csv", x, t, fields)
    _csv_writer_samples(tmp_path / "slow.csv", x, t, fields)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "slow.csv").read_bytes()


def _csv_writer_spirals(path, curves):
    # reference for export_spirals_csv: one csv.writer row per point
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["phi0", "t", "beta", "x1", "x2"])
        for c in curves:
            phi0, t = (repr(float(v)) for v in (c.phi0, c.t))
            cols = (map(repr, a.tolist()) for a in (c.beta, c.points[:, 0], c.points[:, 1]))
            writer.writerows(zip(repeat(phi0), repeat(t), *cols))


def _per_point_svg(path, curves, size=640):
    # reference for render_spirals_svg: one f-string per point
    if curves:
        all_pts = np.concatenate([c.points for c in curves], axis=0)
        lim = float(np.max(np.abs(all_pts))) * 1.05
    else:
        lim = 1.0
    half = size / 2.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<line x1="0" y1="{half}" x2="{size}" y2="{half}" stroke="#999" stroke-width="1"/>',
        f'<line x1="{half}" y1="0" x2="{half}" y2="{size}" stroke="#999" stroke-width="1"/>',
        f'<text x="{size - 60}" y="{half - 6}" font-size="12" fill="#555">x1={lim:.3g}</text>',
        f'<text x="{half + 6}" y="14" font-size="12" fill="#555">x2={lim:.3g}</text>',
    ]
    for i, c in enumerate(curves):
        xs = half + c.points[:, 0] / lim * (half - 10)
        ys = half - c.points[:, 1] / lim * (half - 10)
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs.tolist(), ys.tolist()))
        hue = (137 * i) % 360
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="hsl({hue},60%,40%)" '
            f'stroke-width="1.2"/>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))


def _odd_curves(nonfinite):
    """Curves whose beta arrays differ from one to the next, with -0.0 and
    extreme magnitudes, and inf/nan values if ``nonfinite``."""
    rng = np.random.default_rng(9)
    extremes = [-0.0, 0.0, 1e-300, -1e-300, 1e300, -1e300, 5e-324, 1.0 / 3.0]
    if nonfinite:
        extremes += [np.inf, -np.inf, np.nan]
    odd = np.array(extremes)
    zero_first = np.geomspace(0.05, 40.0, len(odd))
    zero_first[0] = 0.0
    negzero_first = zero_first.copy()
    negzero_first[0] = -0.0
    betas = [zero_first, zero_first.copy(), negzero_first, odd, odd[:3], odd[:0], zero_first]
    curves = []
    for j, beta in enumerate(betas):
        pts = rng.standard_normal((len(beta), 2)) * 10.0 ** rng.integers(-5, 5, (len(beta), 2))
        pts[: len(odd), j % 2] = odd[: len(beta)]
        phi0 = [-0.0, 1e-300, 2.5, 1e300][j % 4]
        curves.append(SpiralCurve(phi0=phi0, beta=beta, points=pts, t=[1.0, 0.1][j % 2]))
    return curves


@pytest.mark.parametrize("curves", [[], _odd_curves(False), _odd_curves(True)],
                         ids=["empty", "finite", "nonfinite"])
def test_spiral_writers_match_per_point_writers(tmp_path, curves):
    for fast, slow, name in ((export_spirals_csv, _csv_writer_spirals, "s.csv"),
                             (render_spirals_svg, _per_point_svg, "s.svg")):
        with warnings.catch_warnings():
            # the nonfinite points make the svg scale inf or nan
            warnings.simplefilter("ignore", RuntimeWarning)
            fast(tmp_path / f"fast-{name}", curves)
            slow(tmp_path / f"slow-{name}", curves)
        want = (tmp_path / f"slow-{name}").read_bytes()
        assert (tmp_path / f"fast-{name}").read_bytes() == want, name
