"""Differential operators of the adapted coordinates, mode by mode.

Every operator used by the solver is a polynomial in two primitives acting
on a single radial mode with index n:

    Q         beta * d/dbeta                    (kills constants)
    i n beta  multiplication                    (the angular coupling)

The workhorse family is the shifted mode operator

    D(n, shift) = beta * (d/dbeta - i n) - shift,

whose kernel beta^shift * exp(i n beta) never stays bounded on [0, inf) for
a nonzero shift, so a bounded inverse is unique.  Two independent
realizations of that inverse are kept: a collocation solve on the extended
grid (the solver default) and direct evaluation of the explicit integral

    u(beta) = -beta^s e^{i n beta} int_beta^inf  x^{-s-1} e^{-i n x} f(x) dx   (s > 0)
    u(beta) =  beta^s e^{i n beta} int_0^beta    x^{-s-1} e^{-i n x} f(x) dx   (s < 0)

by adaptive oscillation-aware panel quadrature (the verification oracle).

On the extended vector [values at nodes; value at infinity], multiplication
by beta uses the finite-part rule (beta*f)(inf) := -scale * f'(s=1), which is
the exact limit whenever f vanishes at infinity; composed operators then
impose the correct far-field balance on bounded solutions through their last
row.  The per-mode linearization of the nonlinear problem at the base state
is

    (1/2 mu^2) * ( D(n, s+) D(n, s-) (Q + 1) + (2 mu - 1) * i n beta ),

with shifts s+- = (2 +- n) mu - 1.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (
    AccuracyError,
    ConvergenceError,
    DegenerateShiftError,
    ParameterError,
    SingularOperatorError,
)
from .grid_space import (
    CutoffSamples,
    ModeProfile,
    RadialGrid,
    SolverParams,
    SpectralField,
    sample_cutoffs,
    xi_far,
    xi_near,
)

__all__ = [
    "LinearModeOperator",
    "shift_plus",
    "shift_minus",
    "mode_operator_matrix",
    "mode_operator",
    "apply_mode_operator",
    "invert_mode_operator",
    "derived_fields",
    "apply_bar_derivative",
    "assemble_linearization",
    "linearization_set",
    "apply_linearization_inverse",
]


def shift_plus(mu: float, n: int) -> float:
    return (2.0 + n) * mu - 1.0


def shift_minus(mu: float, n: int) -> float:
    return (2.0 - n) * mu - 1.0


# ---------------------------------------------------------------------------
# Extended-vector primitives
# ---------------------------------------------------------------------------


def beta_mult_matrix(grid: RadialGrid, n: int) -> np.ndarray:
    """Matrix of multiplication by i*n*beta with the finite-part last row."""
    M = grid.size
    B = np.zeros((M + 1, M + 1), dtype=complex)
    B[np.arange(M), np.arange(M)] = 1j * n * grid.nodes
    B[-1, :] = -1j * n * grid.map_scale * grid.diff_s[-1, :]
    return B


def apply_beta_mult(grid: RadialGrid, n: int, ext: np.ndarray) -> np.ndarray:
    """Apply i*n*beta to an extended vector, finite-part rule at infinity."""
    out = np.empty(len(ext), dtype=complex)
    out[:-1] = 1j * n * grid.nodes * ext[:-1]
    out[-1] = 1j * n * grid.limit_beta_times(ext)
    return out


def mode_operator_matrix(grid: RadialGrid, n: int, shift: float) -> np.ndarray:
    """Collocation matrix of D(n, shift) on the extended vector."""
    M = grid.size
    return (
        grid.radial.astype(complex)
        - beta_mult_matrix(grid, n)
        - shift * np.eye(M + 1, dtype=complex)
    )


def mode_operator(grid: RadialGrid, n: int, shift: float) -> LinearModeOperator:
    """D(n, shift) as a dense operator, factored on its first solve."""
    return LinearModeOperator(n=n, fun=mode_operator_matrix(grid, n, shift))


def apply_shifted(grid: RadialGrid, n: int, shift: float, ext: np.ndarray) -> np.ndarray:
    """Apply D(n, shift) to an extended vector."""
    return grid.apply_radial(ext) - apply_beta_mult(grid, n, ext) - shift * ext


# ---------------------------------------------------------------------------
# apply / invert on structured profiles
# ---------------------------------------------------------------------------


def apply_mode_operator(
    n: int, shift: float, f: ModeProfile, cuts: CutoffSamples
) -> ModeProfile:
    """Apply D(n, shift) to a structured profile.

    The cutoff and constant parts are differentiated analytically (their
    derivative is a multiple of the bump), so only the core passes through
    the collocation derivative.  The operator's oscillation index is ``n``;
    the result keeps the profile's own mode label.
    """
    grid = cuts.grid
    b = grid.nodes
    core_ext = grid.extend(f.core, 0.0)
    core_out = apply_shifted(grid, n, shift, core_ext)
    vals = core_out[:-1]
    if f.c0 != 0.0:
        vals = vals + f.c0 * (-b * cuts.eta - 1j * n * cuts.beta_xi0 - shift * cuts.xi0)
    if f.cinf != 0.0:
        vals = vals + f.cinf * (b * cuts.eta - 1j * n * b * cuts.xiinf - shift * cuts.xiinf)
    if f.cconst != 0.0:
        vals = vals + f.cconst * (-1j * n * b - shift)
    # at infinity the bump terms vanish and i*n*beta contributes only its
    # finite part, already carried by the core; the slots add -shift * f(inf)
    v_inf = core_out[-1] - shift * (f.cinf + f.cconst)
    return ModeProfile.from_values(f.n, vals, v_inf, cuts)


def invert_mode_operator(
    n: int,
    shift: float,
    f: ModeProfile,
    cuts: CutoffSamples,
    method: str = "matrix",
    tol: float = 1e-12,
    op: LinearModeOperator | None = None,
) -> ModeProfile:
    """Bounded inverse of D(n, shift) applied to a structured profile.

    Without oscillation every slot inverts diagonally to -1/shift times
    itself (plus core corrections from the bump derivative).  With a nonzero
    oscillation index a far component still has a bounded preimage, but one
    that leaves the slot algebra, so it rides through the extended solve
    with the core.

    ``op`` is D(n, shift) as a LinearModeOperator (``mode_operator``); a
    caller inverting one operator many times passes it so that its LU is
    taken once.  The matrix method builds its own when it is omitted.
    """
    if shift == 0.0:
        raise DegenerateShiftError(f"mode operator with zero shift at n={n} is singular")
    if op is not None and op.n != n:
        raise ParameterError(f"operator for n={op.n} passed to invert at n={n}")
    grid = cuts.grid
    b = grid.nodes
    a_new = -f.c0 / shift

    if n == 0:
        # every slot inverts diagonally; bump corrections go to the core rhs
        binf_new = -f.cinf / shift
        c_new = -f.cconst / shift
        rhs = f.core.astype(complex) - a_new * (-b * cuts.eta) - binf_new * (b * cuts.eta)
        rhs_inf = 0.0
    else:
        # the xi_near slot still inverts diagonally; a far component stays
        # bounded under the inverse but leaves the slot algebra, so it rides
        # along with the core through the extended solve
        binf_new = c_new = 0.0
        rhs = (
            f.core.astype(complex)
            + f.cinf * cuts.xiinf
            + f.cconst
            - a_new * (-b * cuts.eta - 1j * n * cuts.beta_xi0)
        )
        rhs_inf = f.cinf + f.cconst

    if method == "matrix":
        if op is None:
            op = mode_operator(grid, n, shift)
        sol = op.solve_function(grid.extend(rhs, rhs_inf))
        core_vals = sol[:-1]
        core_inf = sol[-1]
    elif method == "quadrature":
        if n != 0 and (f.cinf != 0.0 or f.cconst != 0.0):
            decaying = profile_interpolant(
                ModeProfile(f.n, rhs - f.cinf * cuts.xiinf - f.cconst), cuts
            )
            far_inf, far_const = f.cinf, f.cconst

            def fun(x):
                return decaying(x) + far_inf * xi_far(x) + far_const
        else:
            fun = profile_interpolant(ModeProfile(f.n, rhs), cuts)
        core_vals = _invert_by_quadrature(n, shift, fun, b, tol)
        core_inf = 0.0
    else:
        raise ParameterError(f"unknown inversion method {method!r}")

    values = core_vals + a_new * cuts.xi0 + binf_new * cuts.xiinf + c_new
    v_inf = core_inf + binf_new + c_new
    return ModeProfile.from_values(f.n, values, v_inf, cuts)


def profile_interpolant(f: ModeProfile, cuts: CutoffSamples) -> Callable:
    """Callable evaluating a structured profile at arbitrary beta >= 0."""
    grid = cuts.grid
    coeffs = grid.chebyshev_coefficients(grid.extend(f.core, 0.0))

    def fun(x):
        x = np.asarray(x, dtype=float)
        vals = grid.evaluate_coefficients(coeffs, grid.s_of_beta(x)).astype(complex)
        if f.c0 != 0.0:
            vals = vals + f.c0 * xi_near(x)
        if f.cinf != 0.0:
            vals = vals + f.cinf * xi_far(x)
        if f.cconst != 0.0:
            vals = vals + f.cconst
        return vals

    return fun


_GX, _GW = leggauss(16)


def _panel(fun, a: float, b: float) -> complex:
    x = 0.5 * (b - a) * _GX + 0.5 * (a + b)
    return 0.5 * (b - a) * complex(np.sum(_GW * fun(x)))


def _adaptive(fun, a: float, b: float, tol: float, depth: int = 0, whole=None) -> complex:
    if whole is None:
        whole = _panel(fun, a, b)
    m = 0.5 * (a + b)
    left = _panel(fun, a, m)
    right = _panel(fun, m, b)
    err = abs(left + right - whole)
    if err < tol:
        return left + right
    if depth >= 20:
        raise AccuracyError(f"panel quadrature stalled on [{a:.3g}, {b:.3g}]", err)
    return _adaptive(fun, a, m, tol, depth + 1, left) + _adaptive(
        fun, m, b, tol, depth + 1, right
    )


def _invert_zero_mode(shift: float, fun, betas: np.ndarray) -> np.ndarray:
    """Oscillation-free inverse: cumulative Gauss panels over node intervals.

    The requested radii are the panel edges, so every value is a prefix or
    suffix sum; the singular end panels are subdivided geometrically and the
    tail beyond the last edge freezes the integrand at its sampled value.
    """
    edges = [float(b) for b in betas if b > 0.0]
    if shift > 0.0:
        # extend upward for the suffix integrals; the analytic frozen tail
        # covers everything beyond
        all_edges = np.array(edges + [edges[-1] * 2.0**j for j in range(1, 60)])
    else:
        # refine downward for the x^(-shift-1) singularity at the origin
        all_edges = np.array([edges[0] * 2.0 ** (-j) for j in range(44, 0, -1)] + edges)
    a = all_edges[:-1]
    b = all_edges[1:]
    xg = 0.5 * (b - a)[:, None] * _GX[None, :] + 0.5 * (a + b)[:, None]
    kern = xg ** (-shift - 1.0) * fun(xg.ravel()).reshape(xg.shape)
    panel = 0.5 * (b - a) * np.sum(_GW[None, :] * kern, axis=1)
    f0 = complex(fun(np.array([0.0]))[0])
    ffar = complex(fun(np.array([all_edges[-1]]))[0])
    out = np.zeros(len(betas), dtype=complex)
    if shift > 0.0:
        suffix = np.concatenate([np.cumsum(panel[::-1])[::-1], [0.0]])
        tail = ffar * all_edges[-1] ** (-shift) / shift
        lookup = {edge: suffix[i] + tail for i, edge in enumerate(all_edges)}
        for i, beta in enumerate(betas):
            out[i] = -f0 / shift if beta == 0.0 else -(beta**shift) * lookup[float(beta)]
    else:
        prefix = np.concatenate([[0.0], np.cumsum(panel)])
        head = f0 * all_edges[0] ** (-shift) / (-shift)
        lookup = {edge: prefix[i] + head for i, edge in enumerate(all_edges)}
        for i, beta in enumerate(betas):
            out[i] = -f0 / shift if beta == 0.0 else (beta**shift) * lookup[float(beta)]
    return out


def _invert_by_quadrature(n: int, shift: float, fun, betas: np.ndarray, tol: float) -> np.ndarray:
    """Integral-formula inverse evaluated at the given radii.

    Without oscillation the integral collapses to cumulative panel sums over
    the node intervals.  Otherwise panels never exceed half an oscillation
    wavelength 2*pi/|n| in the integration variable, and for shift > 0 the
    tail beyond the last panel is summed by integration by parts with the
    integrand frozen at its far value.
    """
    if n == 0:
        return _invert_zero_mode(shift, fun, betas)
    out = np.zeros(len(betas), dtype=complex)
    wave = 2.0 * np.pi / abs(n)
    bmax = max(float(np.max(betas)), 1.0)
    scan = np.geomspace(1e-8, 10.0 * bmax, 400)
    scan_abs = np.abs(fun(scan))
    fscale = max(float(np.max(scan_abs)), float(np.abs(fun(np.array([0.0]))[0])), 1e-300)

    def fmax_beyond(x: float) -> float:
        m = scan >= x
        return float(np.max(scan_abs[m])) if np.any(m) else float(scan_abs[-1])

    def kern(x):
        return x ** (-shift - 1.0) * np.exp(-1j * n * x) * fun(x)

    for i, beta in enumerate(betas):
        if beta == 0.0:
            out[i] = -complex(fun(np.array([0.0]))[0]) / shift
            continue
        # tolerance on the raw integral, sized so the beta^shift prefactor
        # brings the error back to tol relative to the answer's scale
        raw = fscale * max(beta ** (-shift), 1.0) / abs(shift)
        tol_i = tol * max(raw, fscale)
        if shift > 0.0:
            total = 0.0 + 0.0j
            x0 = beta
            fprev = complex(fun(np.array([x0]))[0])
            step = min(max(beta, 1.0), 0.5 * wave)
            while True:
                x1 = x0 + step
                total += _adaptive(kern, x0, x1, tol_i)
                fval = complex(fun(np.array([x1]))[0])
                flat_tail = fmax_beyond(x1) * x1 ** (-shift) / shift
                # integration-by-parts remainder after two explicit terms
                slope = abs(fval - fprev) / step
                rem = (
                    fmax_beyond(x1) * (shift + 1.0) * (shift + 2.0) * x1 ** (-shift - 3.0) / abs(n) ** 3
                    + slope * x1 ** (-shift - 1.0) / n**2
                )
                if rem < tol_i or flat_tail < tol_i:
                    t1 = np.exp(-1j * n * x1) * x1 ** (-shift - 1.0) / (1j * n)
                    t2 = (
                        -(shift + 1.0)
                        * np.exp(-1j * n * x1)
                        * x1 ** (-shift - 2.0)
                        / (1j * n) ** 2
                    )
                    total += fval * (t1 + t2)
                    break
                if x1 > 1e14:
                    raise AccuracyError(
                        "tail of the inverse integral did not settle", flat_tail
                    )
                fprev = fval
                x0 = x1
                step = min(1.6 * step, 0.5 * wave)
            out[i] = -(beta**shift) * np.exp(1j * n * beta) * total
        else:
            total = 0.0 + 0.0j
            hi = beta
            # drop the upper part of (0, beta] wherever it is provably negligible
            while hi > 1e-13 * beta:
                cand = 0.5 * hi
                dropped = fmax_beyond(cand) * (hi ** (-shift) - cand ** (-shift)) / (-shift)
                if dropped >= 0.05 * tol_i:
                    break
                hi = cand
            while hi > 1e-13 * beta:
                lo = max(hi / 2.0, hi - 0.5 * wave)
                total += _adaptive(kern, lo, hi, tol_i)
                hi = lo
            total += complex(fun(np.array([0.0]))[0]) * hi ** (-shift) / (-shift)
            out[i] = (beta**shift) * np.exp(1j * n * beta) * total
    return out


# ---------------------------------------------------------------------------
# Adapted-coordinate derivatives
# ---------------------------------------------------------------------------


def dvarphi_bar_ext(
    grid: RadialGrid, mu: float, n: int, ext: np.ndarray, q: np.ndarray | None = None
) -> np.ndarray:
    """dvarphi_bar = -(Q - i n beta) + (2 mu - 1) on an extended mode vector.

    ``q`` is Q ext = beta d/dbeta ext when the caller already has it.
    """
    if q is None:
        q = grid.apply_radial(ext)
    return -(q - apply_beta_mult(grid, n, ext)) + (2.0 * mu - 1.0) * ext


def derived_fields(field_: SpectralField, cuts: CutoffSamples) -> dict:
    """The stream profile and its five adapted-coordinate derivatives.

    Returns (2K+1, M+1) arrays of extended mode vectors, one row per mode
    n = N k, k = -K..K, keyed by name:

        psi   the profile itself
        db    dbeta_bar psi = (Q + 1 - 2 mu) psi
        dv    dvarphi_bar psi
        dp    dphi psi = i n psi
        dpdb  dphi dbeta_bar psi
        lg    (dvarphi_bar + 1) dbeta_bar psi
    """
    grid, mu = field_.grid, field_.params.mu
    nvec = [int(n) for n in field_.params.mode_indices]
    psi = np.array([field_.modes[n].extended(cuts) for n in nvec])
    db, dv, dp, dpdb, lg = (np.empty_like(psi) for _ in range(5))
    # row by row through the per-vector primitives, which a stacked matrix
    # product would not reproduce bit for bit
    for i, n in enumerate(nvec):
        q = grid.apply_radial(psi[i])
        db[i] = q + (1.0 - 2.0 * mu) * psi[i]
        dv[i] = dvarphi_bar_ext(grid, mu, n, psi[i], q)
        dp[i] = 1j * n * psi[i]
        dpdb[i] = 1j * n * db[i]
        lg[i] = dvarphi_bar_ext(grid, mu, n, db[i]) + db[i]
    return {"psi": psi, "db": db, "dv": dv, "dp": dp, "dpdb": dpdb, "lg": lg}


# public kind names of the derivatives and their derived_fields keys
_BAR_KINDS = {
    "dbeta_bar": "db",
    "dvarphi_bar": "dv",
    "dphi": "dp",
    "dphi_dbeta_bar": "dpdb",
    "dvarphi1_dbeta_bar": "lg",
}


def apply_bar_derivative(kind: str, field_: SpectralField) -> SpectralField:
    """Apply one of the adapted-coordinate derivatives to a whole field.

    Kinds: dbeta_bar, dvarphi_bar, dphi, dphi_dbeta_bar, dvarphi1_dbeta_bar.
    """
    if kind not in _BAR_KINDS:
        raise ParameterError(
            f"unknown bar-derivative kind {kind!r}; choose from {tuple(_BAR_KINDS)}"
        )
    cuts = sample_cutoffs(field_.grid)
    rows = derived_fields(field_, cuts)[_BAR_KINDS[kind]]
    modes = {
        int(n): ModeProfile.from_values(int(n), row[:-1], row[-1], cuts)
        for n, row in zip(field_.params.mode_indices, rows)
    }
    return SpectralField(params=field_.params, grid=field_.grid, modes=modes)


# ---------------------------------------------------------------------------
# Linearization at the base state
# ---------------------------------------------------------------------------


@dataclass
class LinearModeOperator:
    """Dense per-mode operator ``fun`` on [values at nodes; value at inf].

    Every solve with a mode operator goes through here: the LU is taken on
    the first solve and kept with the operator, so it lives as long as its
    owner.
    """

    n: int
    fun: np.ndarray

    def __post_init__(self):
        self._lu = None

    def lu_solve(self, ext_rhs: np.ndarray) -> np.ndarray:
        """Solve with the LU factors alone, without refinement.

        Raises SingularOperatorError on an exactly zero pivot.
        """
        # scipy.linalg loads only for a command that factors a matrix
        import scipy.linalg as sla

        if self._lu is None:
            with warnings.catch_warnings():
                # an exactly zero pivot warns here and raises below
                warnings.simplefilter("ignore", sla.LinAlgWarning)
                lu, piv = sla.lu_factor(self.fun)
            if not np.all(np.diagonal(lu)):
                raise SingularOperatorError(
                    f"mode operator at n={self.n} is singular (exactly zero pivot)"
                )
            self._lu = (lu, piv)
        return sla.lu_solve(self._lu, ext_rhs)

    def solve_function(self, ext_rhs: np.ndarray) -> np.ndarray:
        """Solve with one step of iterative refinement."""
        sol = self.lu_solve(ext_rhs)
        sol += self.lu_solve(ext_rhs - self.fun @ sol)
        return sol

    def apply_function(self, ext: np.ndarray) -> np.ndarray:
        return self.fun @ ext


def assemble_linearization(n: int, params: SolverParams, grid: RadialGrid) -> LinearModeOperator:
    """Per-mode linearization at the base state.

    (1/2 mu^2) ( D(n,s+) D(n,s-) (Q+1) + (2 mu - 1) i n beta ) with shifts
    s+- = (2 +- n) mu - 1.
    """
    mu = params.mu
    sp = shift_plus(mu, n)
    sm = shift_minus(mu, n)
    if sp == 0.0 or sm == 0.0:
        raise DegenerateShiftError(f"degenerate shift at (mu={mu}, n={n})")
    M = grid.size
    Dp = mode_operator_matrix(grid, n, sp)
    Dm = mode_operator_matrix(grid, n, sm)
    Q1 = grid.radial.astype(complex) + np.eye(M + 1)
    fun = (Dp @ Dm @ Q1 + (2.0 * mu - 1.0) * beta_mult_matrix(grid, n)) / (2.0 * mu * mu)
    return LinearModeOperator(n=n, fun=fun)


def linearization_set(params: SolverParams, grid: RadialGrid) -> dict[int, LinearModeOperator]:
    return {int(n): assemble_linearization(int(n), params, grid) for n in params.mode_indices}


def apply_linearization_inverse(
    opset: Mapping[int, LinearModeOperator],
    rhs: SpectralField,
    method: str = "direct",
    tol: float = 1e-12,
    max_terms: int = 64,
) -> SpectralField:
    """Solve the block-diagonal linearized system for every mode.

    direct   dense LU per mode.
    neumann  x = 2 mu^2 * sum_k (-(M^-1 E))^k M^-1 z with M = D+ D- (Q+1)
             inverted by three chained shifted-operator inversions and
             E = (2 mu - 1) i n beta; stops once the increment falls below
             tol relative to the partial sum, errors out if it grows.
    """
    params = rhs.params
    grid = rhs.grid
    cuts = sample_cutoffs(grid)
    mu = params.mu

    if method == "direct":

        def one(prof: ModeProfile) -> ModeProfile:
            op = opset[prof.n]
            sol = op.solve_function(prof.extended(cuts))
            return ModeProfile.from_values(prof.n, sol[:-1], sol[-1], cuts)

        return rhs.map_modes(one)

    if method != "neumann":
        raise ParameterError(f"unknown linear-solve method {method!r}")

    def chained_inverse(prof: ModeProfile) -> ModeProfile:
        n = prof.n
        u = invert_mode_operator(n, shift_plus(mu, n), prof, cuts)
        u = invert_mode_operator(n, shift_minus(mu, n), u, cuts)
        # Q+1 carries no oscillation whatever the profile's mode label
        return invert_mode_operator(0, -1.0, u, cuts)

    def one(prof: ModeProfile) -> ModeProfile:
        n = prof.n
        term = chained_inverse(prof)
        acc = term
        prev = np.inf
        grew = 0
        for _ in range(max_terms):
            inc = float(np.max(np.abs(term.extended(cuts))))
            base = max(float(np.max(np.abs(acc.extended(cuts)))), 1e-300)
            if inc <= tol * base:
                break
            grew = grew + 1 if inc > prev else 0
            if grew >= 3:
                raise ConvergenceError(
                    "perturbation series for the linearized solve diverged; the "
                    "contraction constant likely exceeds one at these parameters"
                )
            prev = inc
            evals = (2.0 * mu - 1.0) * 1j * n * grid.nodes * term.values(cuts)
            einf = (2.0 * mu - 1.0) * 1j * n * grid.limit_beta_times(term.extended(cuts))
            eterm = ModeProfile.from_values(n, evals, einf, cuts)
            term = chained_inverse(eterm).scaled(-1.0)
            acc = acc.plus(term)
        return acc.scaled(2.0 * mu * mu)

    return rhs.map_modes(one)
