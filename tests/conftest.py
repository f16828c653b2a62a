import os
from dataclasses import dataclass

# Digits pinned at the rounding floor are stated with one BLAS thread: with
# more, OpenBLAS splits gemm and getrf differently and their last bits move.
# This must run before numpy loads OpenBLAS, and CLI subprocesses inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np
import pytest

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from spiral_euler import (
    AngularSignal,
    NonlinearWorkspace,
    ParameterError,
    RadialGrid,
    SolverParams,
    SpectralField,
    derived_fields,
    eval_residual,
    newton_solve,
    sample_cutoffs,
)
from spiral_euler.grid_space import mode_weight
from spiral_euler.operators import _beta_mult_parts


@pytest.fixture(scope="session")
def desk_params():
    return SolverParams(mu=1.0, N=8, grid_points=96)


@pytest.fixture(scope="session")
def desk_grid(desk_params):
    return desk_params.grid


@pytest.fixture(scope="session")
def desk_cuts(desk_grid):
    return sample_cutoffs(desk_grid)


@pytest.fixture(scope="session")
def desk_solution(desk_params):
    omega = AngularSignal.constant_plus_cosine(desk_params, amplitude=0.01)
    stream, report = newton_solve(omega, desk_params)
    return stream, omega, report


@pytest.fixture(scope="session")
def prod_params():
    return SolverParams(mu=1.0, N=4000, grid_points=257)


@pytest.fixture(scope="session")
def prod_grid(prod_params):
    return prod_params.grid


@pytest.fixture(scope="session")
def prod_solution(prod_params):
    omega = AngularSignal.constant_plus_cosine(prod_params, amplitude=0.01)
    stream, report = newton_solve(omega, prod_params)
    return stream, omega, report


def random_field(params, seed=0, amplitude=1.0, decay=0.7):
    """Smooth random real field on the mode lattice, vanishing at infinity."""
    rng = np.random.default_rng(seed)
    grid = params.grid
    b = grid.nodes
    values = np.zeros((len(params.mode_indices), grid.size + 1), dtype=complex)
    for k, n in enumerate(int(x) for x in params.mode_indices):
        ncoef = 8
        co = (rng.standard_normal(ncoef) + 1j * rng.standard_normal(ncoef)) * np.exp(
            -decay * np.arange(ncoef)
        )
        smooth = np.polynomial.chebyshev.chebval(1.0 - 2.0 * grid.s_of_beta(b), co)
        vals = amplitude * smooth * b / (1.0 + b) * np.exp(-b / 4.0)
        if n == 0:
            vals = vals.real.astype(complex)
        values[k, :-1] = vals
    return SpectralField(params=params, values=values)


@dataclass(frozen=True)
class SpiralFit:
    theta: np.ndarray
    radius: np.ndarray
    a: float
    b: float
    max_rel_error: float


def spiral_ode_oracle(mu: float, C: float, z0, theta_span) -> SpiralFit:
    """Integrate the base-flow streamline ODE and fit an algebraic spiral.

    d|z|/dtheta = -(mu/C) (2 - 1/mu) |z|^(1 + 1/mu); the solution must fit
    |z| = (a theta + b)^(-mu) and the returned max_rel_error measures how
    well it does over the span.
    """
    from scipy.integrate import solve_ivp

    if C == 0.0:
        raise ParameterError("the circulation constant must be nonzero")
    r0 = float(np.hypot(z0[0], z0[1]))
    if r0 == 0.0:
        raise ParameterError("the starting point must be away from the origin")
    t0, t1 = float(theta_span[0]), float(theta_span[1])
    if t0 == t1:
        a = (2.0 - 1.0 / mu) / C
        b = r0 ** (-1.0 / mu) - a * t0
        return SpiralFit(
            theta=np.array([t0]), radius=np.array([r0]), a=a, b=b, max_rel_error=0.0
        )

    rate = -(mu / C) * (2.0 - 1.0 / mu)

    def rhs(theta, y):
        return rate * y ** (1.0 + 1.0 / mu)

    thetas = np.linspace(t0, t1, 400)
    sol = solve_ivp(
        rhs, (t0, t1), [r0], t_eval=thetas, method="DOP853", rtol=1e-12, atol=1e-14
    )
    if not sol.success:
        raise ParameterError(f"streamline integration failed: {sol.message}")
    radius = sol.y[0]
    # |z|^{-1/mu} is affine in theta; fit by linear least squares
    g = radius ** (-1.0 / mu)
    Amat = np.stack([thetas, np.ones_like(thetas)], axis=-1)
    (a, b), *_ = np.linalg.lstsq(Amat, g, rcond=None)
    fit = (a * thetas + b) ** (-mu)
    max_rel = float(np.max(np.abs(fit - radius) / radius))
    return SpiralFit(theta=thetas, radius=radius, a=float(a), b=float(b), max_rel_error=max_rel)


# ---------------------------------------------------------------------------
# Instruments of the acceptance criteria: each calls the package's kernels
# and is read only by the checks.
# ---------------------------------------------------------------------------


def beta_mult_matrix(grid: RadialGrid, n: int) -> np.ndarray:
    """Matrix of multiplication by i*n*beta with the finite-part last row."""
    M = grid.size
    B = np.zeros((M + 1, M + 1), dtype=complex)
    B[np.arange(M), np.arange(M)], B[-1, :] = _beta_mult_parts(grid, n)
    return B


def linearization_at_base(params: SolverParams) -> np.ndarray:
    """Analytic linearization at the base state by the bar-derivative route.

    Composes (1/2 mu^2)((dvarphi_bar^2 + mu^2 dphi^2)(dbeta_bar + 2 mu)
    + (2 mu - 1)(dbeta_bar + dvarphi_bar)) mode by mode into a stack shaped
    like linearization_set's, row k for mode n = N k.  Must agree with
    assemble_linearization, which multiplies out the shifted-operator form;
    the two code paths share only the grid primitives.
    """
    mu, grid = params.mu, params.grid
    M = grid.size
    eye = np.eye(M + 1, dtype=complex)
    QM = grid.radial.astype(complex)
    ops = np.empty((len(params.mode_indices), M + 1, M + 1), dtype=complex)
    for k, n in enumerate(params.mode_indices.tolist()):
        Bm = beta_mult_matrix(grid, n)
        dbeta = QM + (1.0 - 2.0 * mu) * eye
        dvarphi = -(QM - Bm) + (2.0 * mu - 1.0) * eye
        ops[k] = (
            (dvarphi @ dvarphi + mu * mu * (1j * n) ** 2 * eye) @ (dbeta + 2.0 * mu * eye)
            + (2.0 * mu - 1.0) * (dbeta + dvarphi)
        ) / (2.0 * mu * mu)
    return ops


def fd_derivative_check(
    stream: SpectralField,
    omega: AngularSignal,
    direction: SpectralField,
    h: float,
    ws: NonlinearWorkspace | None = None,
) -> float:
    """Central-difference check of the linearization.

    At the base state the analytic operator is the reference and the return
    value is || (L(psi+h d) - L(psi-h d)) / 2h - A d || / || A d ||.  At any
    other base point the return value is the self-consistency defect of the
    finite difference at step sizes h and h/2.
    """
    if not (1e-8 <= h <= 1e-3):
        raise ParameterError(f"step size h={h} outside [1e-8, 1e-3]")
    if ws is None:
        ws = NonlinearWorkspace(stream.params)
    weights = mode_weight(ws.mode_list)
    norm2 = lambda rows: float(
        np.sqrt(sum(w * np.sum(np.abs(row) ** 2) for w, row in zip(weights, rows)))
    )
    if norm2(direction.values) == 0.0:
        return 0.0

    def fd(step: float) -> np.ndarray:
        # only the residual fields enter the check, so skip the gauge
        plus, minus = (
            eval_residual(stream.plus(direction.scaled(s)), omega, ws, preimage_norms=False)
            for s in (step, -step)
        )
        return (plus.field.values - minus.field.values) / (2.0 * step)

    base = SpectralField.base_state(stream.params)
    is_base = float(np.max(np.abs(stream.values - base.values))) < 1e-14
    fd_h = fd(h)
    if is_base:
        ref = (ws.linearization @ direction.values[..., None])[..., 0]
    else:
        ref = fd(0.5 * h)
    return norm2(fd_h - ref) / norm2(ref)


def angular_initial_vorticity(
    stream: SpectralField, omega: AngularSignal, ws: NonlinearWorkspace | None = None
) -> AngularSignal:
    """Angular factor of the vorticity trace at time zero.

    h(theta) = (dbeta_bar psi / (-mu dvarphi_bar psi))^(1/(2 mu)) at beta = 0
    times Omega(theta), projected back onto the mode lattice.  That is
    mu^(-1/(2 mu)) Omega up to rounding for every stream: at beta = 0 every
    D(n, s) is -s, so dbeta_bar psi = -(2 mu - 1) psi = -dvarphi_bar psi.
    """
    if ws is None:
        ws = NonlinearWorkspace(stream.params)
    mu = stream.params.mu
    fields = derived_fields(stream)
    # the values at beta = 0, the first node
    db_vals = ws.synth(fields["db"][:, 0])
    dv_vals = ws.synth(fields["dv"][:, 0])
    h_vals = (db_vals / (-mu * dv_vals)) ** (1.0 / (2.0 * mu)) * ws.synth(omega.modes)
    return AngularSignal(ws.params, ws.project(h_vals)[0])
