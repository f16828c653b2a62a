"""Differential operators of the adapted coordinates, mode by mode.

Every operator used by the solver is a polynomial in two primitives acting
on a single radial mode with index n:

    Q         beta * d/dbeta                    (kills constants)
    i n beta  multiplication                    (the angular coupling)

The workhorse family is the shifted mode operator

    D(n, shift) = beta * (d/dbeta - i n) - shift,

whose kernel beta^shift * exp(i n beta) never stays bounded on [0, inf) for
a nonzero shift, so a bounded inverse is unique.  mode_operator_apply
applies D to an extended vector, mode_operator_solve its bounded inverse,
and mode_operator_matrix forms D's matrix; nothing else does any of them.
The adapted derivatives are D's: dbeta_bar = D(0, 2 mu - 1), dvarphi_bar =
-D(n, 2 mu - 1), (dvarphi_bar + 1) dbeta_bar = dbeta_bar - D(n, 2 mu - 1)
dbeta_bar, and Q + 1 = D(0, -1).  apply_mode_operator and
invert_mode_operator wrap the two for a structured profile, acting on its
extended values.  The inverse has two independent realizations: a
collocation solve on the extended grid (the solver default) and direct
evaluation of the explicit integral

    u(beta) = -beta^s e^{i n beta} int_beta^inf  x^{-s-1} e^{-i n x} f(x) dx   (s > 0)
    u(beta) =  beta^s e^{i n beta} int_0^beta    x^{-s-1} e^{-i n x} f(x) dx   (s < 0)

by Gauss panel quadrature on one shared panel set, with f the Chebyshev
interpolant of the extended values (the verification oracle).

On the extended vector [values at nodes; value at infinity], multiplication
by beta uses the finite-part rule (beta*f)(inf) := -scale * f'(s=1), which is
the exact limit whenever f vanishes at infinity; composed operators then
impose the correct far-field balance on bounded solutions through their last
row.  The rule is written here only: apply_beta_mult applies it and
_beta_mult_parts gives its matrix row.  The per-mode linearization of the
nonlinear problem at the base state is

    (1/2 mu^2) * ( D(n, s+) D(n, s-) (Q + 1) + (2 mu - 1) * i n beta ),

with shifts s+- = (2 +- n) mu - 1.  linearization_set stacks these operators
over the stored modes n = N k into one (K+1, M+1, M+1) array, row k the
operator of the field's row k, and every dense solve, the whole stack's
included, is one dense_solve call.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .errors import (
    AccuracyError,
    DegenerateShiftError,
    NonFiniteError,
    ParameterError,
    SingularOperatorError,
)
from .grid_space import (
    CutoffSamples, ModeProfile, RadialGrid, SolverParams, SpectralField, gauss_legendre
)

__all__ = [
    "dense_solve",
    "shift_plus",
    "shift_minus",
    "mode_operator_matrix",
    "mode_operator_apply",
    "mode_operator_solve",
    "apply_mode_operator",
    "invert_mode_operator",
    "derived_fields",
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


def _beta_mult_parts(grid: RadialGrid, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The nonzero parts of B, the matrix of i*n*beta with the finite-part last
    row: the diagonal above the last row, the last row."""
    return 1j * n * grid.nodes, -1j * n * grid.map_scale * grid.diff_s_inf


def apply_beta_mult(grid: RadialGrid, n: int, ext: np.ndarray) -> np.ndarray:
    """Apply i*n*beta to an extended vector, finite-part rule at infinity:
    lim beta f = -scale f'(s=1) for f = ext - ext[-1], by l'Hopital on the map."""
    out = np.empty(len(ext), dtype=complex)
    out[:-1] = 1j * n * grid.nodes * ext[:-1]
    out[-1] = 1j * n * (-grid.map_scale * (grid.diff_s_inf @ (ext - ext[-1])))
    return out


def mode_operator_apply(grid: RadialGrid, n: int, shift: float, ext: np.ndarray) -> np.ndarray:
    """D(n, shift) ext, the matrix-free twin of mode_operator_matrix.

    Q is applied to ext - ext[-1]: beta d/dbeta kills constants, and
    subtracting the far value keeps the annihilation exact in floats.
    """
    return grid.radial @ (ext - ext[-1]) - apply_beta_mult(grid, n, ext) - shift * ext


def mode_operator_matrix(
    grid: RadialGrid, n: int, shift: float, out: np.ndarray | None = None
) -> np.ndarray:
    """Collocation matrix of D(n, shift) on the extended vector.

    Formed in one buffer, ``out`` when given, entry by entry as
    radial - B - shift * I: only the diagonal and the
    finite-part last row take the i n beta and shift terms.
    """
    M = grid.size
    j = np.arange(M)
    b_diag, b_last = _beta_mult_parts(grid, n)
    unit = np.zeros(M + 1, dtype=complex)  # the last row of I
    unit[-1] = 1.0
    diag = grid.radial[j, j] - b_diag - shift
    last = grid.radial[-1] - b_last - shift * unit
    # off the diagonal shift * I holds zeros signed as the shift, which turn
    # radial's -0.0 entries into +0.0 when the shift is negative
    out = np.subtract(grid.radial, math.copysign(0.0, shift), out=out, dtype=complex)
    out[j, j] = diag
    out[-1] = last
    return out


def dense_solve(ops: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve with one dense operator or a stack of them, in one numpy.linalg.solve call.

    ``ops`` is one (m, m) operator or a stack (..., m, m); ``rhs`` holds one
    vector per operator, shape ops.shape[:-1], or a block of them as columns,
    shape ops.shape[:-1] + (c,), which share their operator's LU
    factorization (LAPACK gesv, afresh on every call).  Raises NonFiniteError
    on an inf or NaN in an operator or the right-hand side, and
    SingularOperatorError on an exactly zero pivot.

    Each block is solved next to one zero column: with more than one BLAS
    thread OpenBLAS's gesv rounds a lone right-hand side differently, and a
    column must get the same bits alone as in a batch.
    """
    for name, a in (("operator", ops), ("right-hand side", rhs)):
        if not np.isfinite(a).all():
            raise NonFiniteError(f"dense solve: non-finite {name}")
    cols = rhs.reshape(ops.shape[:-1] + (-1,))
    zero = np.zeros(cols.shape[:-1] + (1,), dtype=cols.dtype)
    try:
        sol = np.linalg.solve(ops, np.concatenate([cols, zero], axis=-1))
    except np.linalg.LinAlgError:
        raise SingularOperatorError("dense operator is singular (exactly zero pivot)") from None
    return sol[..., :-1].reshape(rhs.shape)


def mode_operator_solve(
    grid: RadialGrid, n: int, shift: float, ext: np.ndarray, method: str = "matrix",
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Bounded inverse D(n, shift)^-1 of an extended vector, or of a block of them as columns.

    Each column of a block gets the bits it gets alone.  At n = 0 the
    operator maps a constant c to exactly -shift * c, so the far value is
    split off first and inverted by division: constants invert exactly.  A
    far value at n != 0 has a bounded preimage that vanishes at infinity,
    and it goes through the solve with the rest.  "matrix" solves with
    mode_operator_matrix, formed in ``out`` when given, all columns with one
    factorization; "quadrature" evaluates the integral formula on the
    Chebyshev interpolant of each column.
    """
    if shift == 0.0:
        raise DegenerateShiftError(f"mode operator with zero shift at n={n} is singular")
    far = ext[-1] if n == 0 else 0.0
    rhs = ext - far
    if method == "matrix":
        sol = dense_solve(mode_operator_matrix(grid, n, shift, out=out), rhs)
    elif method == "quadrature":
        sol = np.zeros(rhs.shape, dtype=complex)
        cols = sol.reshape(len(sol), -1)  # a view of sol, one column per vector
        for j, r in enumerate(rhs.reshape(len(rhs), -1).T):
            coeffs = grid.chebyshev_coefficients(r)
            fun = lambda x: grid.evaluate_coefficients(coeffs, grid.s_of_beta(x)).astype(complex)
            cols[:-1, j] = _invert_by_quadrature(n, shift, fun, grid.nodes, 1e-12)
    else:
        raise ParameterError(f"unknown inversion method {method!r}")
    sol -= far / shift
    return sol


# ---------------------------------------------------------------------------
# apply / invert on structured profiles
# ---------------------------------------------------------------------------


def apply_mode_operator(
    n: int, shift: float, f: ModeProfile, cuts: CutoffSamples
) -> ModeProfile:
    """Apply D(n, shift) to a structured profile.

    The operator acts on the profile's extended values through
    mode_operator_apply, as the solver's derived fields do.  The
    operator's oscillation index is ``n``; the result keeps the profile's
    own mode label.
    """
    out = mode_operator_apply(cuts.grid, n, shift, f.extended(cuts))
    return ModeProfile.from_values(f.n, out[:-1], out[-1], cuts)


def invert_mode_operator(
    n: int, shift: float, f: ModeProfile, cuts: CutoffSamples, method: str = "matrix"
) -> ModeProfile:
    """Bounded inverse of D(n, shift) applied to a structured profile.

    The inverse acts on the profile's extended values through
    mode_operator_solve; the result keeps the profile's own mode label.
    """
    out = mode_operator_solve(cuts.grid, n, shift, f.extended(cuts), method)
    return ModeProfile.from_values(f.n, out[:-1], out[-1], cuts)


_HALVINGS = 48  # geometric panels below the smallest radius (shift < 0)
_DOUBLINGS = 60  # candidate tail cut points above the largest radius (shift > 0)
_MAX_DEPTH = 45  # bisections of an initial panel
_MAX_PANELS = 1 << 17
_CHUNK = 1 << 13  # panels per integrand evaluation, which bounds memory


def _gauss_sums(n: int, shift: float, fun, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """16-point Gauss-Legendre integral of x^(-shift-1) e^(-i n x) f(x) on each panel."""
    gx, gw = gauss_legendre(16)
    out = np.empty(len(a), dtype=complex)
    for i in range(0, len(a), _CHUNK):
        lo, hi = a[i : i + _CHUNK], b[i : i + _CHUNK]
        t = 0.5 * (hi - lo)[:, None] * (gx + 1.0)
        x = lo[:, None] + t
        # the phase is split at the left edge, so that rounding a node far
        # out does not shift its phase by |n| ulp(x)
        kern = x ** (-shift - 1.0) * np.exp(-1j * n * t) * fun(x.ravel()).reshape(x.shape)
        out[i : i + _CHUNK] = 0.5 * (hi - lo) * np.exp(-1j * n * lo) * (kern @ gw)
    return out


def _invert_by_quadrature(n: int, shift: float, fun, betas: np.ndarray, tol: float) -> np.ndarray:
    """Integral-formula inverse evaluated at the given radii.

    One panel set serves every radius: the positive radii are panel edges,
    so each value is a suffix sum (shift > 0) or a prefix sum (shift < 0) of
    panel integrals.  Below the smallest radius the panels halve
    geometrically towards the origin, where the integrand is frozen at f(0);
    above the largest they double up to a cut point X, beyond which f is
    frozen at f(X) and the tail is summed in closed form (two integration by
    parts terms when n != 0).  With n != 0 no panel is wider than half a
    wavelength pi/|n|.  Panels are checked in vectorized rounds, the 16-point
    Gauss-Legendre rule on the whole panel against its two halves, and the
    failing ones are bisected.

    ``tol`` bounds the estimated error of every returned value relative to
    the sup-norm bound F/|shift| of the inverse, F the largest |f| sampled at
    0, at the radii and at the tail cut candidates.  Half of it is shared
    among the panels in proportion to their integral of F x^(-shift-1), the
    other half goes to the frozen tail.  Raises AccuracyError when a panel
    needs more than _MAX_DEPTH bisections, the panel set outgrows
    _MAX_PANELS or the tail does not settle.
    """
    betas = np.asarray(betas, dtype=float)
    edges = np.unique(betas[betas > 0.0])
    top = edges[-1] * 2.0 ** np.arange(_DOUBLINGS + 1) if shift > 0.0 and len(edges) else []
    scan = fun(np.concatenate([[0.0], edges, top]))
    f0 = complex(scan[0])
    fscale = max(float(np.max(np.abs(scan))), np.finfo(float).tiny)
    out = np.full(len(betas), -f0 / shift, dtype=complex)
    if not len(edges):
        return out

    if shift > 0.0:
        # freezing f at X misses var * X^-s / s at n = 0, var the sampled
        # variation of f beyond X; at n != 0 it misses the next integration
        # by parts terms, f'(X) X^(-s-1) / n^2 with f'(X) ~ var / X and
        # f (s+1)(s+2) X^(-s-3) / |n|^3.  Cut at the first doubling where
        # that is within half of tol * F / s at the largest radius.
        ft = scan[-len(top) :]
        var = np.max(np.triu(np.abs(ft[None, :] - ft[:, None])), axis=1)
        var[-1] = np.inf
        if n == 0:
            err = var * top ** (-shift) / shift
        else:
            fmax = np.maximum.accumulate(np.abs(ft)[::-1])[::-1]
            err = top ** (-shift) * (
                var / (top * n) ** 2
                + fmax * (shift + 1.0) * (shift + 2.0) / (top * abs(n)) ** 3
            )
        ok = np.flatnonzero(err <= 0.5 * tol * fscale * edges[-1] ** (-shift) / shift)
        if not len(ok):
            raise AccuracyError("tail of the inverse integral did not settle", float(err.min()))
        knots = np.concatenate([edges, top[1 : ok[0] + 1]])
        X, fX = knots[-1], ft[ok[0]]
        if n == 0:
            tail = fX * X ** (-shift) / shift
        else:
            tail = fX * np.exp(-1j * n * X) * (
                X ** (-shift - 1.0) / (1j * n)
                - (shift + 1.0) * X ** (-shift - 2.0) / (1j * n) ** 2
            )
    else:
        knots = np.concatenate([edges[0] * 2.0 ** -np.arange(_HALVINGS, 0, -1), edges])
        head = f0 * knots[0] ** (-shift) / (-shift)

    # split every interval to at most half a wavelength
    lo, hi = knots[:-1], knots[1:]
    parts = np.maximum(np.ceil((hi - lo) * abs(n) / np.pi), 1).astype(int)
    if parts.sum() > _MAX_PANELS:
        raise AccuracyError("inverse integral needs too many panels", float(parts.sum()))
    knots = np.append(
        np.concatenate([np.linspace(l, h, k, endpoint=False) for l, h, k in zip(lo, hi, parts)]),
        hi[-1],
    )

    a, b = knots[:-1], knots[1:]
    whole = _gauss_sums(n, shift, fun, a, b)
    done_a, done_v = [], []
    for depth in range(_MAX_DEPTH + 1):
        m = 0.5 * (a + b)
        left, right = np.split(
            _gauss_sums(n, shift, fun, np.concatenate([a, m]), np.concatenate([m, b])), 2
        )
        halves = left + right
        # half of tol * F * int_a^b x^(-shift-1) dx, written to keep its digits
        # on narrow panels
        budget = (
            0.5 * tol * fscale * a ** (-shift)
            * np.abs(np.expm1(-shift * np.log1p((b - a) / a))) / abs(shift)
        )
        good = np.abs(halves - whole) <= budget
        done_a.append(a[good])
        done_v.append(halves[good])
        bad = ~good
        if not np.any(bad):
            break
        if depth == _MAX_DEPTH:
            worst = float(np.max(np.abs(halves - whole)[bad]))
            raise AccuracyError(f"panel quadrature stalled near beta = {a[bad][0]:.6g}", worst)
        count = sum(map(len, done_a)) + 2 * np.count_nonzero(bad)
        if count > _MAX_PANELS:
            raise AccuracyError("inverse integral needs too many panels", float(count))
        a, b = np.concatenate([a[bad], m[bad]]), np.concatenate([m[bad], b[bad]])
        whole = np.concatenate([left[bad], right[bad]])

    a = np.concatenate(done_a)
    order = np.argsort(a)
    v = np.concatenate(done_v)[order]
    # every edge is a panel's left end: idx panels lie left of it
    idx = np.searchsorted(a[order], edges)
    if shift > 0.0:
        raw = -(np.append(np.cumsum(v[::-1])[::-1], 0.0)[idx] + tail)
    else:
        raw = np.append(0.0, np.cumsum(v))[idx] + head
    vals = edges**shift * np.exp(1j * n * edges) * raw
    pos = betas > 0.0
    out[pos] = vals[np.searchsorted(edges, betas[pos])]
    return out


# ---------------------------------------------------------------------------
# Adapted-coordinate derivatives
# ---------------------------------------------------------------------------


def derived_fields(field_: SpectralField) -> dict:
    """The stream profile and its five adapted-coordinate derivatives.

    Returns (K+1, M+1) arrays of extended mode vectors, one row per stored
    mode n = N k, k = 0..K, like the field's values, keyed by name:

        psi   the profile itself
        db    dbeta_bar psi = D(0, 2 mu - 1) psi
        dv    dvarphi_bar psi = -D(n, 2 mu - 1) psi
        dp    dphi psi = i n psi
        dpdb  dphi dbeta_bar psi = i n db
        lg    (dvarphi_bar + 1) dbeta_bar psi = db - D(n, 2 mu - 1) db

    Every D is applied by mode_operator_apply.
    """
    grid, s = field_.grid, 2.0 * field_.params.mu - 1.0
    nvec = [int(n) for n in field_.params.mode_indices]
    psi = np.array(field_.values)
    db, dv, dp, dpdb, lg = (np.empty_like(psi) for _ in range(5))
    # row by row through the per-vector kernel, which a stacked matrix
    # product would not reproduce bit for bit
    for i, n in enumerate(nvec):
        db[i] = mode_operator_apply(grid, 0, s, psi[i])
        dv[i] = -mode_operator_apply(grid, n, s, psi[i])
        dp[i] = 1j * n * psi[i]
        dpdb[i] = 1j * n * db[i]
        lg[i] = db[i] - mode_operator_apply(grid, n, s, db[i])
    return {"psi": psi, "db": db, "dv": dv, "dp": dp, "dpdb": dpdb, "lg": lg}


# ---------------------------------------------------------------------------
# Linearization at the base state
# ---------------------------------------------------------------------------


def assemble_linearization(n: int, params: SolverParams) -> np.ndarray:
    """Per-mode linearization at the base state.

    (1/2 mu^2) ( D(n,s+) D(n,s-) (Q+1) + (2 mu - 1) i n beta ) with shifts
    s+- = (2 +- n) mu - 1.
    """
    mu = params.mu
    sp = shift_plus(mu, n)
    sm = shift_minus(mu, n)
    if sp == 0.0 or sm == 0.0:
        raise DegenerateShiftError(f"degenerate shift at (mu={mu}, n={n})")
    grid = params.grid
    # (Dp Dm (Q + I) + (2 mu - 1) B) / (2 mu^2), entry by entry
    # as that expression, with at most three operators alive at a time;
    # Q + I is D(0, -1)
    fun = mode_operator_matrix(grid, n, sp) @ mode_operator_matrix(grid, n, sm)
    fun = fun @ mode_operator_matrix(grid, 0, -1.0)
    c = 2.0 * mu - 1.0
    b_diag, b_last = _beta_mult_parts(grid, n)
    j = np.arange(grid.size)
    diag = fun[j, j] + c * b_diag
    last = fun[-1] + c * b_last
    # elsewhere c * B holds +0.0 (c > 0), which turns -0.0 into +0.0
    fun += 0.0
    fun[j, j] = diag
    fun[-1] = last
    fun /= 2.0 * mu * mu
    return fun


def linearization_set(params: SolverParams) -> np.ndarray:
    """The linearization at the base state as one stack of operators.

    Row k of the (K+1, M+1, M+1) array is the operator of stored mode
    n = N k, as row k of a field's values is that mode's extended vector.
    """
    size = params.grid.size + 1
    ops = np.empty((len(params.mode_indices), size, size), dtype=complex)
    # on a grid too wide for the products, the operators overflow quietly
    # and dense_solve refuses them as non-finite
    with np.errstate(over="ignore", invalid="ignore"):
        for k, n in enumerate(params.mode_indices):
            ops[k] = assemble_linearization(int(n), params)
    return ops


def apply_linearization_inverse(ops: np.ndarray, rhs: SpectralField) -> SpectralField:
    """Solve the block-diagonal linearized system, one gesv per mode in one call."""
    return replace(rhs, values=dense_solve(ops, rhs.values))
