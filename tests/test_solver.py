import numpy as np
import pytest

from spiral_euler import (
    AngularSignal,
    ConvergenceError,
    FieldEvaluator,
    ModeProfile,
    ParameterError,
    SolverParams,
    SpectralField,
    base_vorticity_factor,
    bounds_check,
    match_initial_data,
    newton_solve,
)
from spiral_euler import solver
from spiral_euler.operators import derived_fields
from spiral_euler.solver import angular_initial_vorticity


def test_desk_solve_converges(desk_solution):
    stream, omega, report = desk_solution
    assert report.converged
    assert report.iterations <= 25
    hist = report.residual_history
    assert all(b < a for a, b in zip(hist, hist[1:]))
    assert report.bounds_ok
    assert hist[-1] < 1e-10


def test_trivial_fixed_point(desk_params):
    omega = AngularSignal.base(desk_params)
    stream, report = newton_solve(omega, desk_params)
    assert report.iterations <= 1
    assert report.residual_history[-1] <= 1e-12
    base = SpectralField.base_state(desk_params)
    assert np.max(np.abs(stream.values - base.values)) == 0.0


def test_bounds_check_base(desk_params):
    base = SpectralField.base_state(desk_params)
    ok, margins = bounds_check(base)
    assert ok
    row = margins["dbeta_bar(psi)"]
    assert row["observed_min"] == pytest.approx(-1.0, abs=1e-13)
    assert row["observed_max"] == pytest.approx(-1.0, abs=1e-13)


def test_bounds_check_violation(desk_params):
    base = SpectralField.base_state(desk_params)
    values = base.values.copy()
    values[0] *= 3.0
    bad = SpectralField(params=desk_params, values=values)
    ok, margins = bounds_check(bad)
    assert not ok
    assert margins["psi"]["margin"] < 0


def test_solved_field_passes_bounds(desk_solution):
    stream, omega, report = desk_solution
    ok, _ = bounds_check(stream)
    assert ok


P4 = SolverParams(mu=1.0, N=4, grid_points=64)
P8 = SolverParams(mu=1.0, N=8, grid_points=64)


@pytest.fixture
def no_residual(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a residual was evaluated")

    monkeypatch.setattr(solver, "eval_residual", refuse)


def test_newton_solve_rejects_a_factor_off_the_lattice(no_residual, monkeypatch):
    # an N = 4 factor with modes +-4 is no angular factor of an N = 8
    # problem, and the solve must say so before it evaluates a residual
    with pytest.raises(ParameterError, match=r"modes \[-4, 4\] off the lattice of N=8"):
        newton_solve(AngularSignal.constant_plus_cosine(P4, 0.01), P8)
    # an N = 4 factor whose modes all sit on the N = 8 lattice still solves
    monkeypatch.undo()
    on_lattice = AngularSignal.constant_plus_cosine(P4, 0.01, harmonic=8)
    stream, report = newton_solve(on_lattice, P8)
    assert report.converged
    assert stream.params == P8


def test_match_initial_data_rejects_a_target_off_the_lattice(no_residual):
    # rejected before the first inner solve, as newton_solve rejects it
    with pytest.raises(ParameterError, match=r"modes \[-4, 4\] off the lattice of N=8"):
        match_initial_data(AngularSignal.constant_plus_cosine(P4, 0.01), P8)


def test_amplitude_gate_rejects_large_perturbation(desk_params):
    big = AngularSignal.constant_plus_cosine(desk_params, amplitude=10.0)
    with pytest.raises(ConvergenceError):
        newton_solve(big, desk_params)


def _cosine_target_at_mu_07():
    """0.005 w0 cos(N theta) about the base factor w0 at mu = 0.7, N = 4000."""
    params = SolverParams(mu=0.7, N=4000)
    w0 = base_vorticity_factor(params.mu)
    entries = {0: w0, params.N: 0.0025 * w0, -params.N: 0.0025 * w0}.items()
    return AngularSignal.from_entries(params, entries), params


def test_stall_at_the_rounding_floor_states_the_ratios_and_tol():
    # tol = 1e-12 lies under the residual's rounding floor at mu = 0.7; the
    # match's solve history reads 6.45e-5, 1.74e-11, 2.48e-12, 1.51e-12,
    # 2.14e-12, and the message states what it measured
    g, params = _cosine_target_at_mu_07()
    with pytest.raises(ConvergenceError) as err:
        match_initial_data(g, params, tol=1e-12)
    assert str(err.value) == (
        "residual grew from 1.511e-12 to 2.144e-12; last step ratios r[k+1]/r[k] "
        "0.142, 0.609, 1.42; previous residual 1.51 x tol 1.0e-12"
    )
    assert len(err.value.report.residual_history) == 5


def test_match_library_defaults_converge_at_mu_07():
    # the match's default tol is newton_solve's 1e-10, above that floor
    g, params = _cosine_target_at_mu_07()
    _, _, report = match_initial_data(g, params)
    assert report.converged
    assert report.residual_history[-1] < 1e-10


@pytest.mark.filterwarnings("ignore:dropped harmonic mass")
def test_growth_far_above_tol_states_the_ratios_and_tol():
    # a residual that grows from 0.239, far above 100 tol: the chord contracted
    # at 0.95 a step before it
    params = SolverParams(mu=1.0, N=4, grid_points=96)
    omega = AngularSignal.constant_plus_cosine(params, 1.0)
    with pytest.raises(ConvergenceError) as err:
        newton_solve(omega, params, epsilon_cap=100.0)
    assert str(err.value) == (
        "residual grew from 2.394e-01 to 2.549e-01; last step ratios r[k+1]/r[k] "
        "0.952, 0.946, 1.06; previous residual 2.39e+09 x tol 1.0e-10"
    )
    assert len(err.value.report.residual_history) == 5


@pytest.mark.filterwarnings("ignore:dropped harmonic mass")
def test_growth_past_the_contraction_region_states_the_ratios_and_tol():
    # at amplitude 1.25 the chord contracts at 0.2-0.86 a step for 37 steps,
    # then at 0.927, and grows at the 39th with the residual 6.9 x tol; its
    # residuals drop harmonic mass up to 5.3e-3 against a scale of 0.48
    params = SolverParams(mu=1.0, N=8, grid_points=96)
    omega = AngularSignal.constant_plus_cosine(params, 1.25)
    with pytest.raises(ConvergenceError) as err:
        newton_solve(omega, params, tol=1e-10, epsilon_cap=100.0)
    assert str(err.value) == (
        "residual grew from 6.880e-10 to 6.972e-10; last step ratios r[k+1]/r[k] "
        "0.754, 0.927, 1.01; previous residual 6.88 x tol 1.0e-10"
    )
    assert len(err.value.report.residual_history) == 40


@pytest.mark.filterwarnings("ignore:dropped harmonic mass")
@pytest.mark.parametrize("params, amplitude, tol, message", [
    # a tol under the floor, 9.4e-16 at mu = 2 on 24 nodes: no amplitude is to blame
    (SolverParams(mu=2.0, N=8, grid_points=24), 0.01, 1e-300,
     "residual grew from 9.416e-16 to 9.480e-16; last step ratios r[k+1]/r[k] "
     "0.00487, 0.171, 1.01; previous residual 9.42e+284 x tol 1.0e-300"),
    # the desk point on 257 nodes stalls at 4.2e-13, far above tol 1e-15
    (SolverParams(mu=1.0, N=8, grid_points=257), 0.01, 1e-15,
     "residual grew from 4.175e-13 to 4.837e-13; last step ratios r[k+1]/r[k] "
     "0.996, 0.811, 1.16; previous residual 418 x tol 1.0e-15"),
    # growth at the first step has one ratio to state
    (SolverParams(mu=1.0, N=2, grid_points=129), 0.05, 1e-10,
     "residual grew from 4.989e-02 to 5.602e-02; last step ratios r[k+1]/r[k] "
     "1.12; previous residual 4.99e+08 x tol 1.0e-10"),
], ids=["mu2-tol1e-300", "desk-M257-tol1e-15", "N2-M129-first-step"])
def test_growth_message_states_what_it_measured(params, amplitude, tol, message):
    omega = AngularSignal.constant_plus_cosine(params, amplitude)
    with pytest.raises(ConvergenceError) as err:
        newton_solve(omega, params, tol=tol)
    assert str(err.value) == message
    assert "amplitude" not in str(err.value)


def test_nonpositive_tol_is_rejected(desk_params):
    omega = AngularSignal.constant_plus_cosine(desk_params, 0.01)
    for tol in (0.0, -1e-10, float("nan")):
        with pytest.raises(ParameterError, match="tol must be positive"):
            newton_solve(omega, desk_params, tol=tol)


def test_mean_gate_rejects_shifted_mean(desk_params):
    shifted = AngularSignal.from_entries(desk_params, {0: 3.0 * desk_params.base_omega}.items())
    with pytest.raises(ConvergenceError):
        newton_solve(shifted, desk_params)


def test_epsilon_used_records_perturbation_size(desk_solution, desk_params):
    _, omega, report = desk_solution
    base = AngularSignal.base(desk_params)
    N, K = desk_params.N, desk_params.harmonics
    # the two-sided sum over the whole lattice |k| <= K
    c, b = dict(omega.entries()), dict(base.entries())
    expected = sum(
        abs(c.get(n, 0.0) - b.get(n, 0.0)) / np.hypot(n, 1.0) ** 0.5
        for n in range(-N * K, N * K + 1, N)
    )
    assert report.epsilon_used == pytest.approx(expected, rel=1e-12)


def test_converged_field_is_real(desk_params):
    # a real angular factor gives a real stream profile, whose mode 0 is
    # real.  (A stronger phi-reflection symmetry fails here: the chart winds
    # the spiral one way, so the coordinates are chiral; an even factor
    # still produces modes with genuine imaginary parts.)
    N = desk_params.N
    coeffs = {
        0: complex(desk_params.base_omega),
        N: 0.004 - 0.002j,
        -N: 0.004 + 0.002j,
    }
    omega = AngularSignal.from_entries(desk_params, coeffs.items())
    stream, _ = newton_solve(omega, desk_params)
    # measured: mode 0 exactly real, mode N with imaginary parts up to 6.3e-05
    assert np.all(stream.values[0].imag == 0.0)
    assert np.max(np.abs(stream.values[1].imag)) > 1e-6


@pytest.mark.filterwarnings("ignore:dropped harmonic mass")
def test_fd_backend_matches_chord():
    params = SolverParams(mu=1.0, N=8, grid_points=48)
    omega = AngularSignal.constant_plus_cosine(params, amplitude=0.01)
    s_chord, r_chord = newton_solve(omega, params, backend="chord")
    s_fd, r_fd = newton_solve(omega, params, backend="fd", tol=1e-9)
    assert r_fd.converged
    assert np.max(np.abs(s_chord.values - s_fd.values)) < 1e-9


@pytest.mark.filterwarnings("ignore:dropped harmonic mass")
def test_solves_act_on_values_without_slots(desk_params, monkeypatch):
    # the chord and fd solves, the match loop and the evaluator act on the
    # field's extended values: none splits a row into ModeProfile slots or
    # builds one back from them
    def refuse(*args, **kwargs):
        raise AssertionError("a field row went through ModeProfile slots")

    monkeypatch.setattr(ModeProfile, "from_values", refuse)
    monkeypatch.setattr(ModeProfile, "extended", refuse)
    omega = AngularSignal.constant_plus_cosine(desk_params, amplitude=0.01)
    stream, report = newton_solve(omega, desk_params)
    assert report.converged
    FieldEvaluator(stream)
    small = SolverParams(mu=1.0, N=8, grid_points=24)
    _, report = newton_solve(
        AngularSignal.constant_plus_cosine(small, amplitude=0.01), small, backend="fd"
    )
    assert report.converged
    w0 = base_vorticity_factor(desk_params.mu)
    g = AngularSignal.constant_plus_cosine(desk_params, 0.01 * w0).plus(
        AngularSignal.from_entries(desk_params, {0: w0 - desk_params.base_omega}.items())
    )
    _, _, report = match_initial_data(g, desk_params)
    assert report.converged


_SPECTRAL_BLOCKING = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 12: spectral blocking, mode 0 keeps T_M at small N",
)


@pytest.mark.filterwarnings("ignore:dropped harmonic mass")
@pytest.mark.parametrize("N", [
    pytest.param(2, marks=_SPECTRAL_BLOCKING), pytest.param(4, marks=_SPECTRAL_BLOCKING), 8,
])
def test_mode_zero_top_chebyshev_coefficient_is_small(N):
    # mode 0's largest value is 1; its top coefficient c_M should sit far
    # below it, as at N = 8 (9.5e-12).  At M = 65 it reads 1.26e-4 at N = 2
    # and 5.12e-8 at N = 4.
    params = SolverParams(mu=1.0, N=N, harmonics=3, grid_points=65)
    stream, _ = newton_solve(AngularSignal.constant_plus_cosine(params, 0.01), params)
    c = params.grid.chebyshev_coefficients(stream.values[0])
    assert abs(c[-1]) <= 1e-8


def test_base_vorticity_factor_at_unit_exponent():
    assert base_vorticity_factor(1.0) == pytest.approx(1.0)
    mu = 0.8
    assert base_vorticity_factor(mu) == pytest.approx(mu ** (-1 / (2 * mu)) * (2 - 1 / mu))


@pytest.mark.parametrize("mu", [0.7, 1.0, 1.5, 2.0])
def test_every_mode_operator_is_minus_its_shift_at_beta_zero(mu):
    # beta d/dbeta and i n beta vanish at beta = 0, the first node, so D(n, s)
    # is -s there for every profile: the identity the match's closed-form rescaling
    # rests on, which a discretization giving D a nonzero row there breaks
    params = SolverParams(mu=mu, N=8, grid_points=24)
    rng = np.random.default_rng(5)
    shape = (len(params.mode_indices), params.grid.size + 1)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    values[0] = values[0].real
    fields = derived_fields(SpectralField(params, values))
    psi0 = fields["psi"][:, 0]
    assert np.array_equal(fields["db"][:, 0], -(2 * mu - 1) * psi0)
    assert np.array_equal(fields["dv"][:, 0], (2 * mu - 1) * psi0)


_DESK = SolverParams(mu=1.0, N=8, grid_points=96)
_N3 = SolverParams(mu=1.5, N=3, grid_points=96)
_K8 = SolverParams(mu=1.0, N=8, harmonics=8, grid_points=96)


@pytest.mark.filterwarnings("ignore:dropped harmonic mass")
@pytest.mark.parametrize("omega, cap", [
    (AngularSignal.constant_plus_cosine(_DESK, 1.05), 0.5),
    (AngularSignal.constant_plus_cosine(_N3, 0.01), 0.1),
    (AngularSignal.from_entries(
        _K8, {0: 1.0, 8: 0.004 + 0.002j, -8: 0.004 - 0.002j, 24: 0.001, -24: 0.001}.items()
    ), 0.1),
], ids=["desk-spiral", "N3-mu1.5", "K8-coeffs"])
def test_initial_vorticity_is_the_exact_multiple_of_omega(omega, cap):
    # h(Omega) = mu^(-1/(2 mu)) Omega for any solved stream, not only the base
    mu = omega.params.mu
    stream, report = newton_solve(omega, omega.params, epsilon_cap=cap)
    assert report.converged and report.iterations > 0
    h = angular_initial_vorticity(stream, omega)
    expected = omega.scaled(mu ** (-1.0 / (2.0 * mu))).modes
    assert np.max(np.abs(h.modes - expected)) <= 1e-14 * np.max(np.abs(expected))


def test_match_constant_target_returns_base(desk_params):
    g = AngularSignal.from_entries(desk_params, {0: base_vorticity_factor(desk_params.mu)}.items())
    omega, stream, report = match_initial_data(g, desk_params)
    base = AngularSignal.base(desk_params)
    assert abs(omega.modes[0] - base.modes[0]) < 1e-12
    assert omega.seminorm() < 1e-12
    assert report.time_scale == pytest.approx(1.0)


def test_match_cosine_target(desk_params):
    w0 = base_vorticity_factor(desk_params.mu)
    g = AngularSignal.constant_plus_cosine(desk_params, 0.01 * w0).plus(
        AngularSignal.from_entries(desk_params, {0: w0 - desk_params.base_omega}.items())
    )
    assert g.modes[0] == pytest.approx(w0)
    omega, stream, report = match_initial_data(g, desk_params, tol=1e-10)
    assert report.converged
    assert report.residual_history[-1] < 1e-10
    # the attained initial vorticity matches the normalized target
    h = angular_initial_vorticity(stream, omega)
    mismatch = g.scaled(1.0 / report.time_scale).plus(h.scaled(-1.0))
    assert mismatch.a_norm(-0.5) < 1e-8


def test_match_rescales_amplitude(desk_params):
    w0 = base_vorticity_factor(desk_params.mu)
    lam = 2.5
    N = desk_params.N
    g = AngularSignal.from_entries(desk_params, {0: lam * w0, N: 0.002, -N: 0.002}.items())
    omega, stream, report = match_initial_data(g, desk_params)
    assert report.time_scale == pytest.approx(lam)


def test_match_returns_its_solve_report(desk_params):
    # the match is a rescaling and one solve: its report is that solve's, bit
    # for bit, with the time scale lambda = mean(g)/base set on it
    w0, lam, N = base_vorticity_factor(desk_params.mu), 1.5, desk_params.N
    g = AngularSignal.from_entries(desk_params, {0: lam * w0, N: 0.0075, -N: 0.0075}.items())
    omega, stream, report = match_initial_data(g, desk_params)
    again, solved = newton_solve(omega, desk_params)
    assert report.residual_history == solved.residual_history
    assert report.iterations == len(report.residual_history) - 1 >= 1
    assert report.time_scale == lam
    assert np.array_equal(stream.values, again.values)


def test_match_rejects_negative_mean(desk_params):
    from spiral_euler import ParameterError

    g = AngularSignal.from_entries(desk_params, {0: -base_vorticity_factor(desk_params.mu)}.items())
    with pytest.raises(ParameterError):
        match_initial_data(g, desk_params)


@pytest.mark.parametrize("solve", [match_initial_data, newton_solve], ids=["inner", "newton"])
def test_negative_iteration_cap_is_rejected(desk_params, solve):
    # a negative cap would run no iteration and hand back the unsolved base
    # state (or no report at all) as if it were a solution; the match hands
    # its cap to its inner solve, which refuses it
    from spiral_euler import ParameterError

    omega = AngularSignal.constant_plus_cosine(desk_params, amplitude=0.01)
    with pytest.raises(ParameterError, match="max_iter must be non-negative, got -1"):
        solve(omega, desk_params, max_iter=-1)
