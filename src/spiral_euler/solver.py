"""Frozen-Jacobian Newton iteration and the initial-data match.

The inner solve fixes the angular factor Omega and iterates

    psi_{k+1} = psi_k - A^{-1} residual(psi_k, Omega)

with A the linearization at the radial base state, so each step costs one
residual evaluation and one block-diagonal solve.  Near the base state the
iteration contracts at least linearly; convergence is declared on the
weighted preimage aggregate of the residual.

The match attains a prescribed angular profile g of the initial vorticity.
The angular factor the solved stream profile induces at time zero,

    h(Omega)(theta) = ( dbeta_bar psi(0,theta) /
                        (-mu dvarphi_bar psi(0,theta)) )^(1/(2 mu)) Omega(theta),

is exactly mu^(-1/(2 mu)) Omega: at beta = 0 the terms beta d/dbeta and
i n beta of D(n, s) vanish, so dbeta_bar psi = -(2 mu - 1) psi(0) =
-dvarphi_bar psi for every profile.  The match is therefore a rescaling and
one inner solve: the target is normalized so its mean matches the base
value, by lambda = mean(g)/base, and Omega = mu^(1/(2 mu)) g/lambda.  The
caller recovers the requested amplitude through the time-scaling symmetry
factor lambda recorded in the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, ParameterError, SignConditionError
from .grid_space import AngularSignal, SolverParams, SpectralField
from .nonlinear import NonlinearWorkspace, eval_residual
from .operators import apply_linearization_inverse, dense_solve, derived_fields

__all__ = [
    "SolveReport",
    "base_vorticity_factor",
    "angular_initial_vorticity",
    "bounds_check",
    "newton_solve",
    "match_initial_data",
]


def base_vorticity_factor(mu: float) -> float:
    """Angular factor of the base initial vorticity, mu^(-1/2mu) (2 - 1/mu)."""
    return mu ** (-1.0 / (2.0 * mu)) * (2.0 - 1.0 / mu)


@dataclass
class SolveReport:
    """Outcome of a solve: history, admissibility margins, amplitudes."""

    converged: bool
    iterations: int
    residual_history: list[float]
    bounds_ok: bool
    epsilon_used: float
    time_scale: float = 1.0
    margins: dict = field(default_factory=dict)


_BOUND_TABLE = (
    # name, derived field, lower(mu), upper(mu)
    ("dbeta_bar(psi)", "db", lambda mu: -1.5, lambda mu: -0.5),
    ("dvarphi_bar(psi)", "dv", lambda mu: 0.5, lambda mu: 1.5),
    ("(dvarphi_bar+1)dbeta_bar(psi)", "lg", lambda mu: -3.0 * mu, lambda mu: -mu),
    ("dphi(psi)", "dp", lambda mu: -1.0, lambda mu: 1.0),
    ("dphi_dbeta_bar(psi)", "dpdb", lambda mu: -1.0, lambda mu: 1.0),
    ("psi", "psi", lambda mu: 1.0 / (4.0 * mu - 2.0), lambda mu: 3.0 / (4.0 * mu - 2.0)),
)


def bounds_check(stream: SpectralField) -> tuple[bool, dict]:
    """Admissibility window for the stream profile's derivatives.

    Samples all six bounded quantities on the lattice of nodes and at least
    128 angles, plus the point at infinity, and reports the worst margin of
    each (positive means inside the window).
    """
    params = stream.params
    ws = NonlinearWorkspace(params, n_angles=max(128, 4 * params.harmonics + 1))
    mu = params.mu
    fields = derived_fields(stream)
    margins = {}
    ok = True
    for name, key, lo_fn, hi_fn in _BOUND_TABLE:
        vals = ws.synth(fields[key])
        lo, hi = lo_fn(mu), hi_fn(mu)
        vmin, vmax = float(np.min(vals)), float(np.max(vals))
        margin = min(vmin - lo, hi - vmax)
        margins[name] = {
            "lower": lo,
            "upper": hi,
            "observed_min": vmin,
            "observed_max": vmax,
            "margin": margin,
        }
        ok = ok and margin >= 0.0
    return ok, margins


def _omega_gate(omega: AngularSignal, params: SolverParams, epsilon_cap: float) -> None:
    """Enforce the smallness hypothesis on the angular factor.

    Raises when the mean is far from the base value or the weighted seminorm
    of the perturbation exceeds the trust cap, which is the practical
    stand-in for the radius in which the fixed-point map is known to
    contract.
    """
    mean = omega.modes[0]
    base = params.base_omega
    if abs(mean - base) > 0.25 * abs(base):
        raise ConvergenceError(
            f"mean angular factor {mean:.6g} is not near the base value {base:.6g}; "
            "normalize the data first (see match_initial_data)"
        )
    semi = omega.seminorm()
    if semi > epsilon_cap * abs(mean):
        raise ConvergenceError(
            f"angular perturbation seminorm {semi:.3e} exceeds the trust region "
            f"{epsilon_cap:.3g}*|mean| = {epsilon_cap * abs(mean):.3e}; "
            "reduce the amplitude"
        )


def newton_solve(
    omega: AngularSignal,
    params: SolverParams,
    tol: float = 1e-10,
    max_iter: int = 100,
    backend: str = "chord",
    epsilon_cap: float = 0.1,
    ws: NonlinearWorkspace | None = None,
) -> tuple[SpectralField, SolveReport]:
    """Solve the nonlinear problem for the stream profile at fixed Omega.

    backend "chord" freezes the base-state linearization, kept by ws; "fd"
    refreshes the Jacobian by finite differences each step (small grids only).
    Raises ConvergenceError carrying the report on failure, and
    ParameterError on a negative max_iter, a tol that is not positive or an
    omega with modes off the lattice of params.
    """
    if max_iter < 0:
        raise ParameterError(f"max_iter must be non-negative, got {max_iter}")
    if not tol > 0.0:  # the stop message measures the residual in tol
        raise ParameterError(f"tol must be positive, got {tol}")
    omega = omega.on(params, "the angular factor")
    if ws is None:
        ws = NonlinearWorkspace(params)
    if backend not in ("chord", "fd"):
        raise ParameterError(f"unknown backend {backend!r}")
    _omega_gate(omega, params, epsilon_cap)
    eps_used = omega.plus(AngularSignal.base(params).scaled(-1.0)).a_norm(-0.5)

    # the chord's operators, assembled once per workspace; the gauge keeps none
    linearization = ws.linearization if backend == "chord" else None
    stream = SpectralField.base_state(params)
    history: list[float] = []
    report = SolveReport(
        converged=False,
        iterations=0,
        residual_history=history,
        bounds_ok=False,
        epsilon_used=eps_used,
    )
    for it in range(max_iter + 1):
        try:
            res = eval_residual(stream, omega, ws)
        except SignConditionError as exc:
            raise ConvergenceError(f"iterate left the admissible region: {exc}", report=report)
        history.append(res.aggregate)
        report.iterations = it
        if res.aggregate < tol:
            report.converged = True
            break
        if it >= 1 and history[-1] > history[-2]:
            last = history[-4:]
            ratios = ", ".join(f"{b / a:.3g}" for a, b in zip(last, last[1:]))
            raise ConvergenceError(
                f"residual grew from {history[-2]:.3e} to {history[-1]:.3e}; last step ratios "
                f"r[k+1]/r[k] {ratios}; previous residual {history[-2] / tol:.3g} x tol {tol:.1e}",
                report=report,
            )
        if it == max_iter:
            raise ConvergenceError(f"no convergence in {max_iter} iterations", report=report)
        if backend == "chord":
            update = apply_linearization_inverse(linearization, res.field)
        else:
            update = _fd_newton_update(stream, omega, res, ws)
        stream = stream.plus(update.scaled(-1.0))

    report.bounds_ok, report.margins = bounds_check(stream)
    return stream, report


def _fd_newton_update(stream, omega, res, ws: NonlinearWorkspace):
    """Full-Jacobian update by finite differences on the field's values.

    The real coordinates are the real parts of the rows and, past mode 0 of
    the real field, their imaginary parts, row by row.  Builds the Jacobian
    column by column; meant for small grids where the frozen-Jacobian path
    needs a cross-check.
    """
    M1 = ws.grid.size + 1

    def pack(values: np.ndarray) -> np.ndarray:
        rest = np.stack([values[1:].real, values[1:].imag], axis=1)
        return np.concatenate([values[0].real, rest.ravel()])

    def unpack(vec: np.ndarray) -> SpectralField:
        pairs = vec[M1:].reshape(-1, 2, M1)
        return SpectralField(ws.params, np.vstack([vec[:M1], pairs[:, 0] + 1j * pairs[:, 1]]))

    x0 = pack(stream.values)
    f0 = pack(res.field.values)
    h = 1e-7 * max(1.0, float(np.max(np.abs(x0))))
    J = np.zeros((len(x0), len(x0)))
    for j in range(len(x0)):
        xp = x0.copy()
        xp[j] += h
        probe = eval_residual(unpack(xp), omega, ws, preimage_norms=False)
        J[:, j] = (pack(probe.field.values) - f0) / h
    return unpack(dense_solve(J, f0))


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


def match_initial_data(
    g: AngularSignal,
    params: SolverParams,
    tol: float = 1e-10,
    max_iter: int = 100,
    backend: str = "chord",
    epsilon_cap: float = 0.1,
) -> tuple[AngularSignal, SpectralField, SolveReport]:
    """Find the angular factor whose solution attains initial vorticity g.

    g is normalized so its mean equals the base factor; the time-scaling
    ratio lambda = mean(g)/base is stored in the report, and the physical
    solution for the original g is lambda * w(x, lambda * t).  tol,
    max_iter, backend and epsilon_cap are newton_solve's, handed to the one
    inner solve on Omega = mu^(1/(2 mu)) g/lambda (see the module
    docstring), whose report, with time_scale = lambda, is returned; its
    failures raise as newton_solve's.  A g with modes off the lattice of
    params raises ParameterError, as do the controls newton_solve refuses.
    """
    g = g.on(params, "the target angular profile")
    g0_hat = g.modes[0]
    if g0_hat == 0.0:
        raise ParameterError("the target angular profile must have a nonzero mean")
    mu = params.mu
    w_base = base_vorticity_factor(mu)
    lam = complex(g0_hat) / w_base
    if abs(lam.imag) > 1e-12 * abs(lam):
        raise ParameterError("the target mean must be real for a real flow")
    lam = lam.real
    if lam <= 0.0:
        raise ParameterError(
            "a negative-mean target belongs to the negated-circulation branch, "
            "which this solver does not construct"
        )
    omega = g.scaled(mu ** (1.0 / (2.0 * mu)) / lam)
    stream, report = newton_solve(omega, params, tol, max_iter, backend, epsilon_cap)
    report.time_scale = lam
    return omega, stream, report
