import tracemalloc
import warnings

import numpy as np
import pytest

from spiral_euler import (
    AngularSignal,
    DroppedMassWarning,
    ParameterError,
    SignConditionError,
    SolverParams,
    SpectralField,
    bracket,
    eval_residual,
    fd_derivative_check,
    linearization_at_base,
    linearization_set,
    shift_plus,
)
from spiral_euler import nonlinear
from spiral_euler.nonlinear import NonlinearWorkspace
from spiral_euler.operators import mode_operator
from conftest import random_field


@pytest.mark.parametrize("mu", [0.7, 0.8, 1.0, 1.5, 2.0])
def test_base_state_annihilation(mu):
    params = SolverParams(mu=mu, N=8, grid_points=64)
    base = SpectralField.base_state(params)
    res = eval_residual(base, AngularSignal.base(params))
    assert res.raw_max <= 1e-10
    assert res.aggregate <= 1e-10


def test_zero_angular_factor_gives_constant_residual(desk_params, desk_grid):
    # dropping the angular factor leaves the pure divergence part, which is
    # the constant (2 mu - 1)/mu
    mu = desk_params.mu
    base = SpectralField.base_state(desk_params)
    zero = AngularSignal(desk_params, {0: 0.0})
    res = eval_residual(base, zero)
    mode0 = res.field.values[0]
    expected = (2 * mu - 1) / mu
    assert np.max(np.abs(mode0[:-1] - expected)) < 1e-12
    assert mode0[-1] == pytest.approx(expected, abs=1e-12)
    for row in res.field.values[1:]:
        assert np.max(np.abs(row[:-1])) < 1e-12


def test_sign_condition_error(desk_params, desk_grid):
    # push the radial derivative positive somewhere
    base = SpectralField.base_state(desk_params)
    b = desk_grid.nodes
    bad_bump = -5.0 * b * np.exp(-b)  # pushes the radial derivative positive
    values = base.values.copy()
    values[0, :-1] += bad_bump
    bad = SpectralField(params=desk_params, values=values)
    with pytest.raises(SignConditionError) as err:
        eval_residual(bad, AngularSignal.base(desk_params))
    assert err.value.quantity
    assert np.isfinite(err.value.beta) or err.value.beta == np.inf


def test_dual_path_linearization_equality(desk_params):
    opsA = linearization_set(desk_params)
    opsB = linearization_at_base(desk_params)
    for n in desk_params.mode_indices:
        n = int(n)
        scale = np.max(np.abs(opsA[n].fun))
        diff = np.max(np.abs(opsA[n].fun - opsB[n].fun))
        assert diff < 1e-12 * scale


def test_linearization_mode_zero_scalar(desk_params, desk_grid):
    # on constants the mode-zero operator multiplies by (2mu-1)^2/(2mu^2),
    # which is 1/2 at mu = 1 and in particular nonzero
    mu = desk_params.mu
    ops = linearization_at_base(desk_params)
    const = desk_grid.extend(np.ones(desk_grid.size), 1.0)
    out = ops[0].fun @ const
    expected = (2 * mu - 1) ** 2 / (2 * mu * mu)
    assert expected == pytest.approx(0.5)
    assert np.max(np.abs(out - expected)) < 1e-10


def test_fd_derivative_at_base(desk_params):
    base = SpectralField.base_state(desk_params)
    omega = AngularSignal.base(desk_params)
    direction = random_field(desk_params, seed=21)
    err = fd_derivative_check(base, omega, direction, 1e-6)
    assert err < 1e-5


def test_fd_zero_direction(desk_params):
    base = SpectralField.base_state(desk_params)
    omega = AngularSignal.base(desk_params)
    zero = base.scaled(0.0)
    assert fd_derivative_check(base, omega, zero, 1e-6) == 0.0


def test_fd_second_order_richardson(desk_params):
    base = SpectralField.base_state(desk_params)
    omega = AngularSignal.base(desk_params)
    direction = random_field(desk_params, seed=22)
    e1 = fd_derivative_check(base, omega, direction, 1e-3)
    e2 = fd_derivative_check(base, omega, direction, 5e-4)
    assert 2.5 < e1 / e2 < 6.0


def test_fd_check_skips_the_gauge(desk_params, monkeypatch):
    # the check reads only the residual fields: residuals with the gauge give
    # the same value, yet at h = 1e-3 they warn of dropped mass
    base = SpectralField.base_state(desk_params)
    omega = AngularSignal.base(desk_params)
    direction = random_field(desk_params, seed=22)
    ws = NonlinearWorkspace(desk_params)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DroppedMassWarning)
        got = fd_derivative_check(base, omega, direction, 1e-3, ws)

    def gauged(*args, **kwargs):
        kwargs["preimage_norms"] = True
        return eval_residual(*args, **kwargs)

    monkeypatch.setattr(nonlinear, "eval_residual", gauged)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DroppedMassWarning)
        want = fd_derivative_check(base, omega, direction, 1e-3, ws)
    assert any(issubclass(w.category, DroppedMassWarning) for w in caught)
    assert got == want


def test_fd_second_order_off_the_base_state(desk_params):
    # off the base state the check returns the defect between the central
    # differences at h and h/2, which falls as h^2
    stream = SpectralField.base_state(desk_params).plus(
        random_field(desk_params, seed=25, amplitude=0.002)
    )
    omega = AngularSignal.constant_plus_cosine(desk_params, 0.05)
    direction = random_field(desk_params, seed=26)
    ws = NonlinearWorkspace(desk_params)
    errs = [fd_derivative_check(stream, omega, direction, h, ws) for h in (1e-3, 5e-4, 2.5e-4)]
    assert all(3.5 < e1 / e2 < 4.5 for e1, e2 in zip(errs, errs[1:])), errs
    assert fd_derivative_check(stream, omega, direction, 1e-5, ws) < 1e-5


def test_fd_step_out_of_range(desk_params):
    base = SpectralField.base_state(desk_params)
    omega = AngularSignal.base(desk_params)
    direction = random_field(desk_params, seed=23)
    with pytest.raises(ParameterError):
        fd_derivative_check(base, omega, direction, 1e-2)


@pytest.mark.filterwarnings("ignore:dropped harmonic mass")
def test_linearity_in_angular_factor(desk_params):
    # the angular factor enters the operator linearly
    stream = random_field(desk_params, seed=24, amplitude=0.004)
    stream = SpectralField.base_state(desk_params).plus(stream)
    om1 = AngularSignal.constant_plus_cosine(desk_params, 0.3)
    om2 = AngularSignal.constant_plus_cosine(desk_params, -0.1, 2 * desk_params.N)
    alpha = 1.7
    ws = NonlinearWorkspace(desk_params)
    r_combo = eval_residual(stream, om1.scaled(alpha).plus(om2), ws)
    r_2 = eval_residual(stream, om2, ws)
    r_1 = eval_residual(stream, om1, ws)
    r_0 = eval_residual(stream, om1.scaled(0.0), ws)
    lhs = r_combo.field.values - r_2.field.values
    rhs = alpha * (r_1.field.values - r_0.field.values)
    worst = np.max(np.abs(lhs - rhs))
    assert worst < 1e-10


@pytest.mark.filterwarnings("ignore:dropped harmonic mass")
def test_residual_mode_lattice_closure(desk_params):
    # quadratic interactions of lattice modes stay on the lattice: residuals
    # computed with different angular sample counts agree on the retained
    # modes, so nothing aliases back in
    stream = SpectralField.base_state(desk_params).plus(
        random_field(desk_params, seed=25, amplitude=0.002)
    )
    omega = AngularSignal.constant_plus_cosine(desk_params, 0.05)
    res64 = eval_residual(stream, omega, NonlinearWorkspace(desk_params, 64))
    res128 = eval_residual(stream, omega, NonlinearWorkspace(desk_params, 128))
    assert len(res64.field.values) == len(desk_params.mode_indices)
    scale = max(res64.raw_max, 1.0)
    for n, a, b in zip(desk_params.mode_indices, res64.field.values, res128.field.values):
        d = np.max(np.abs(a - b))
        assert d < 1e-9 * scale, n


def test_gauge_counts_implied_modes_through_their_own_shift(desk_params, desk_grid):
    # off the solution: the base stream under a cosine factor, the desk
    # solve's first iterate.  The reference runs over the whole lattice, mode
    # -n being conj(mode n) inverted through its own D(-n, s+(-n)).
    # Measured: n = 8 gives 5.555556e-04, n = -8 gives 7.142857e-04, and the
    # aggregate agrees with the reference to 1.2e-16 relative.
    mu, N = desk_params.mu, desk_params.N
    base = SpectralField.base_state(desk_params)
    res = eval_residual(base, AngularSignal.constant_plus_cosine(desk_params, 0.01))
    terms = {}
    for n, r in zip(desk_params.mode_indices, res.field.values):
        for m, rm in [(int(n), r)] + ([(-int(n), r.conj())] if n else []):
            op = mode_operator(desk_grid, m, shift_plus(mu, m))
            terms[m] = float(np.max(np.abs(op.solve(rm))))
    reference = sum(bracket(m) ** 0.5 * z for m, z in terms.items())
    assert res.aggregate == pytest.approx(reference, rel=1e-12)
    # the implied mode's term is not a copy of the stored one's
    assert abs(terms[-N] - terms[N]) > 0.2 * terms[N]


@pytest.mark.parametrize("harmonics", [3, 15])
def test_residual_working_set_does_not_grow_with_harmonics(harmonics):
    # the gauge forms each D(n, s+-) when it solves and lets it go: a
    # residual peaked 8.4 operator sizes above its start at K = 3 and at
    # K = 15, where caching the 2K + 1 operators took 15 and 40
    params = SolverParams(mu=1.0, N=8, harmonics=harmonics, grid_points=96)
    ws = NonlinearWorkspace(params)
    kept = set(vars(ws)) | {"linearization"}
    ws.linearization  # assembled before the start, as a chord solve does
    stream = SpectralField.base_state(params)
    omega = AngularSignal.constant_plus_cosine(params, 0.01)
    # a first residual elsewhere leaves numpy's lazy imports out of the count
    eval_residual(stream, omega, NonlinearWorkspace(params))
    operator_bytes = (params.grid.size + 1) ** 2 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert eval_residual(stream, omega, ws).aggregate > 0.0
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start < 10 * operator_bytes
    # afterwards the workspace holds nothing new, operators least of all
    assert set(vars(ws)) == kept
    assert current - start < operator_bytes


def test_workspace_rejects_too_few_angles(desk_params):
    with pytest.raises(ParameterError):
        NonlinearWorkspace(desk_params, n_angles=5)
