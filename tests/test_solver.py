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


def test_stall_at_the_rounding_floor_names_the_floor_and_tol():
    # match_initial_data's default inner_tol = 1e-12 lies under the residual's
    # rounding floor at mu = 0.7; its inner history reads 6.45e-5, 1.74e-11,
    # 2.38e-12, 1.97e-12, 2.44e-12, and the amplitude is not to blame
    params = SolverParams(mu=0.7, N=4000)
    w0 = base_vorticity_factor(params.mu)
    entries = {0: w0, params.N: 0.0025 * w0, -params.N: 0.0025 * w0}.items()
    g = AngularSignal.from_entries(params, entries)
    with pytest.raises(ConvergenceError) as err:
        match_initial_data(g, params)
    assert "rounding floor, 2.0e-12, above tol 1.0e-12" in str(err.value)
    assert "amplitude" not in str(err.value)
    assert len(err.value.report.residual_history) == 5


@pytest.mark.filterwarnings("ignore:dropped harmonic mass")
def test_growth_far_above_tol_still_names_the_amplitude():
    # a residual that grows from 0.239, far above 100 tol, is no rounding stall
    params = SolverParams(mu=1.0, N=4, grid_points=96)
    omega = AngularSignal.constant_plus_cosine(params, 1.0)
    with pytest.raises(ConvergenceError, match="grew from 2.394e-01.*smaller angular amplitude"):
        newton_solve(omega, params, epsilon_cap=100.0)


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


def test_base_vorticity_factor_at_unit_exponent():
    assert base_vorticity_factor(1.0) == pytest.approx(1.0)
    mu = 0.8
    assert base_vorticity_factor(mu) == pytest.approx(mu ** (-1 / (2 * mu)) * (2 - 1 / mu))


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


def test_match_rejects_negative_mean(desk_params):
    from spiral_euler import ParameterError

    g = AngularSignal.from_entries(desk_params, {0: -base_vorticity_factor(desk_params.mu)}.items())
    with pytest.raises(ParameterError):
        match_initial_data(g, desk_params)


@pytest.mark.parametrize("cap", [
    {"max_outer": -1}, {"inner_max_iter": -1}, {"max_iter": -1},
], ids=["outer", "inner", "newton"])
def test_negative_iteration_cap_is_rejected(desk_params, cap):
    # a negative cap would run no iteration and hand back the unsolved base
    # state (or no report at all) as if it were a solution
    from spiral_euler import ParameterError

    omega = AngularSignal.constant_plus_cosine(desk_params, amplitude=0.01)
    with pytest.raises(ParameterError, match="must be non-negative, got -1"):
        if "max_iter" in cap:
            newton_solve(omega, desk_params, **cap)
        else:
            match_initial_data(omega, desk_params, **cap)
