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
    from spiral_euler import ModeProfile

    rng = np.random.default_rng(seed)
    grid = params.grid
    cuts = sample_cutoffs(grid)
    b = grid.nodes
    modes = {}
    for n in [int(x) for x in params.mode_indices]:
        ncoef = 8
        co = (rng.standard_normal(ncoef) + 1j * rng.standard_normal(ncoef)) * np.exp(
            -decay * np.arange(ncoef)
        )
        smooth = np.polynomial.chebyshev.chebval(1.0 - 2.0 * grid.s_of_beta(b), co)
        vals = amplitude * smooth * b / (1.0 + b) * np.exp(-b / 4.0)
        if n == 0:
            vals = vals.real.astype(complex)
        modes[n] = ModeProfile.from_values(n, vals, 0.0, cuts)
    return SpectralField(params=params, modes=modes)
