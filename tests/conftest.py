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
    ParameterError,
    SolverParams,
    SpectralField,
    newton_solve,
    sample_cutoffs,
)


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
