"""Chart maps and reconstruction of the physical vorticity, velocity, stream.

The chart (beta, phi) covers the punctured plane through

    z = e^a (cos theta, sin theta),   theta = beta + phi,
    a = (1/2) log(-psi_beta / mu),    psi_beta = beta^(-2 mu) dbeta_bar psi,

and the self-similar fields at time t > 0 follow from the profile values at
the preimage of z = x * t^(-mu):

    w(x, t)   = (beta/t) * (dvarphi_bar psi)^(-1/(2 mu)) * Omega(phi)
    psi(x, t) = (beta/t)^(1-2 mu) * psi(beta, phi)
    u(x, t)   = |x|^(1-1/mu) (-dbeta_bar psi/mu)^(1/(2 mu)-1)
                * (2 dbeta_bar psi / ((dvarphi_bar+1) dbeta_bar psi))
                * ( (dphi dbeta_bar psi * dvarphi_bar psi
                     - (dvarphi_bar+1) dbeta_bar psi * dphi psi)
                    / (2 dbeta_bar psi) * e_r  +  dvarphi_bar psi * e_theta )

Inversion of the chart runs along the lines theta = const, where the map's
radius is strictly monotone in beta, so a safeguarded Newton iteration is
safe.  The vanishing set of the vorticity organizes into the curves
t^mu * T(line phi = phi0) over the zeros phi0 of Omega; each is squeezed
between algebraic spirals with radii sqrt(1/(2 mu)) and sqrt(3/(2 mu)) times
(t/beta)^mu.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import InversionError, NonFiniteError, ParameterError
from .grid_space import AngularSignal, SpectralField, bump
from .operators import derived_fields

__all__ = [
    "SpiralCurve",
    "FieldEvaluator",
    "to_plane",
    "to_chart",
    "eval_fields_batch",
    "initial_data",
    "spiral_extract",
    "verify",
    "VERIFY_SUITES",
    "VERIFY_THRESHOLDS",
    "verdicts",
    "export_samples_csv",
    "export_spirals_csv",
    "render_spirals_svg",
]


@dataclass(frozen=True)
class SpiralCurve:
    """Zero-set curve of the vorticity at one time."""

    phi0: float
    beta: np.ndarray
    points: np.ndarray  # (len(beta), 2)
    t: float


def _standard_chop(coeffs: np.ndarray, tol: float) -> int:
    """Number of leading Chebyshev coefficients to keep.

    The plateau rule of Aurentz & Trefethen, "Chopping a Chebyshev series",
    ACM TOMS 43 (2017); a series without a plateau keeps its full length.
    """
    n = len(coeffs)
    if tol >= 1.0:
        return 1
    if n < 17:
        return n
    env = np.maximum.accumulate(np.abs(coeffs)[::-1])[::-1]
    if env[0] == 0.0:
        return 1
    env = env / env[0]
    # indices below are the paper's, one-based
    for j in range(2, n + 1):
        j2 = int(np.floor(1.25 * j + 5.5))
        if j2 > n:
            return n
        e1, e2 = env[j - 1], env[j2 - 1]
        if e1 == 0.0 or e2 / e1 > 3.0 * (1.0 - np.log(e1) / np.log(tol)):
            plateau = j - 1
            break
    if env[plateau - 1] == 0.0:
        return plateau
    j3 = int(np.count_nonzero(env >= tol ** (7.0 / 6.0)))
    if j3 < j2:
        j2 = j3 + 1
        env[j2 - 1] = tol ** (7.0 / 6.0)
    cc = np.log10(env[:j2]) + np.linspace(0.0, -np.log10(tol) / 3.0, j2)
    return max(int(np.argmin(cc)), 1)


class FieldEvaluator:
    """Vectorized evaluation of the derived profile fields at chart points.

    A field is Re sum_k d_k e^{i n_k phi} over the stored modes k = 0..K,
    with d_0 = Re a_0 and d_k = 2 a_k for the mode rows a_k of
    operators.derived_fields (mode -n_k is conj(a_k)).  It is stored as real
    Chebyshev rows Re d_0, Re d_k, Im d_k (k = 1..K).  Each d_k is chopped at
    its plateau with the tolerance eps * max|field| / max|row|, that is eps
    relative to the whole field; the plateau rule also accepts a flat tail
    up to about tol^(2/3).  A row without a plateau (differentiation noise)
    ends after its last coefficient above the field's noise floor, the
    largest coefficient the plateau chops of the same field discard.
    The rows db_y and db_phi are db's kept series differentiated in
    y = 1 - 2 s and in phi: chart_fields forms from them the exact slope of
    the log radius, which the chart Newton and the area element share.

    The evaluator is the one handle on a solved stream: it holds no angular
    factor, and each function that forms the vorticity takes Omega beside it.
    A stream whose derived fields overflow raises NonFiniteError.
    """

    # the keys of operators.derived_fields
    FIELDS = ("psi", "db", "dv", "dp", "dpdb", "lg")

    def __init__(self, stream: SpectralField):
        self.params = stream.params
        self.grid = stream.grid
        self.mu = self.params.mu
        self.nvec = self.params.mode_indices
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite row raises below
            values = derived_fields(stream)
            rows = {k: np.concatenate([v[:1].real, 2.0 * v[1:]]) for k, v in values.items()}
        # mode 0 of dbeta_bar psi at beta = inf: the chart inversion's start
        self.db_inf = float(values["db"][0, -1].real)
        eps = np.finfo(float).eps
        self._rows = {}
        for name in self.FIELDS:
            d = rows[name]
            off = self.nvec[~np.isfinite(d).all(axis=1)]
            if off.size:
                raise NonFiniteError(f"derived field {name} of modes {off.tolist()} is not finite")
            coef = self.grid.chebyshev_coefficients(d)
            scale = float(np.max(np.sum(np.abs(d), axis=0)))
            floor, noise = 0.0, []
            for row in coef:
                top = float(np.max(np.abs(row)))
                if top == 0.0:
                    continue
                keep = _standard_chop(row, eps * scale / top)
                if keep == len(row):
                    noise.append(row)
                else:
                    floor = max(floor, float(np.max(np.abs(row[keep:]))))
                    row[keep:] = 0.0
            for row in noise:
                above = np.flatnonzero(np.abs(row) > floor)
                row[above[-1] + 1 if above.size else 0 :] = 0.0
            self._rows[name] = np.concatenate([coef.real, coef[1:].imag])
        db, K, n = self._rows["db"], len(self.nvec) - 1, self.nvec[1:, None]
        self._rows["db_y"] = np.pad(np.polynomial.chebyshev.chebder(db, axis=1), ((0, 0), (0, 1)))
        self._rows["db_phi"] = np.concatenate([0.0 * db[:1], -n * db[K + 1 :], n * db[1 : K + 1]])

    def field(self, names, beta, phi):
        """Synthesize derived fields at chart points (arrays broadcast).

        A single name returns one array; a tuple of names returns one array
        per name, all from a single Clenshaw pass over the stacked rows.
        The radial recurrence runs on beta as passed and the angular weights
        on phi as passed; the two meet only in the final sum, so a grid given
        as beta[:, None], phi[None, :] costs one recurrence per beta.
        """
        single = isinstance(names, str)
        if single:
            names = (names,)
        beta = np.asarray(beta, dtype=float)
        phi = np.asarray(phi, dtype=float)
        stack = np.concatenate([self._rows[name] for name in names])
        vals = self.grid.evaluate_coefficients(stack, self.grid.s_of_beta(beta))
        vals = vals.reshape((len(names), -1) + beta.shape)
        ang = self.nvec[1:].reshape((-1,) + (1,) * phi.ndim) * phi
        weights = np.concatenate([np.ones((1,) + phi.shape), np.cos(ang), -np.sin(ang)])
        out = np.einsum("fr...,r...->f...", vals, weights)
        return out[0] if single else tuple(out)

    def chart_fields(self, names, beta, phi, slope):
        """Fields (one array per name), log radius a and its slope a' at chart points.

        a' = (d_beta db - slope d_phi db) / (2 db) - mu / beta, with d_beta =
        -2 c / (c + beta)^2 d_y (c the map scale) on db's kept series, is the
        exact derivative of a along phi = phi0 - slope * beta; at slope 1
        (theta = const) the area element is dz = e^(2a) |a'| dbeta dphi.
        One Clenshaw pass.
        """
        want = tuple(names) + tuple(n for n in ("db", "db_y", "db_phi") if n not in names)
        vals = dict(zip(want, self.field(want, beta, phi)))
        db, c = vals["db"], self.grid.map_scale
        a = self._log_radius(db, beta)
        db_beta = -2.0 * c / (c + beta) ** 2 * vals["db_y"]
        da = (db_beta - slope * vals["db_phi"]) / (2.0 * db) - self.mu / beta
        return tuple(vals[n] for n in names), a, da

    def log_radius(self, beta, phi):
        """a(beta, phi) = 0.5 log(-beta^(-2 mu) dbeta_bar psi / mu)."""
        return self._log_radius(self.field("db", beta, phi), beta)

    def _log_radius(self, db, beta):
        """The log radius from dbeta_bar psi values already at hand."""
        if np.any(db >= 0):
            raise InversionError("the radial derivative lost its sign; run bounds_check")
        return 0.5 * np.log(-db / self.mu) - self.mu * np.log(beta)


def to_plane(ev: FieldEvaluator, beta, phi) -> np.ndarray:
    """Chart map of the evaluator's stream: (beta, phi) with beta > 0 to the plane."""
    beta = np.asarray(beta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if np.any(beta <= 0):
        raise ParameterError("the chart map needs beta > 0")
    a = ev.log_radius(beta, phi)
    theta = beta + phi
    r = np.exp(a)
    return np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)


def _chart_newton(
    ev: FieldEvaluator, r: np.ndarray, phi0: np.ndarray, slope: float, what: str
) -> np.ndarray:
    """Solve a(beta, phi0 - slope * beta) = log r for beta, point by point.

    r and phi0 are flat arrays.  F and its Newton slope, the exact
    derivative of the log radius along the line, come from one chart_fields
    call a step.  Along theta = const (slope 1) and phi = const (slope 0)
    alike the log radius is strictly decreasing in beta, so the safeguard
    keeps the iteration safe.  Newton starts at
    beta0 = (-db_inf/mu)^(1/(2 mu)) r^(-1/mu), the exact preimage for the
    base flow (db_inf is mode 0 of dbeta_bar psi at beta = inf).  The
    safeguard, narrowed by the sign of F at every iterate, starts as the
    admissibility envelope widened 2^9-fold at each end; a start or step
    outside it goes to its geometric midpoint.  A point is done once its
    misfit |F| is below 1e-13; it still takes the Newton step computed at
    that iterate, unless the step leaves the safeguard.  A root beyond the
    safeguard stalls, and a stall above 1e-10 after 80 steps raises
    InversionError naming what.  So does a point out of reach, before any
    step: one whose safeguard's upper end squared, a bound on the product of
    two iterates, overflows, or whose lower end underflows to zero.
    """
    target = np.log(r)
    mu = ev.mu
    with np.errstate(over="ignore", under="ignore"):  # out of reach raises below
        base = r ** (-1.0 / mu)
        lo = 2.0**-9 * (1.0 / (2.0 * mu)) ** (1.0 / (2.0 * mu)) * base
        hi = 2.0**9 * (3.0 / (2.0 * mu)) ** (1.0 / (2.0 * mu)) * base
        reach = np.isfinite(hi * hi) & (lo > 0.0)
    if not np.all(reach):
        raise InversionError(f"{what} cannot reach |z| = {r[~reach][0]:.3e}")
    beta = np.sqrt(lo * hi)
    if ev.db_inf < 0.0:
        start = (-ev.db_inf / mu) ** (1.0 / (2.0 * mu)) * base
        beta = np.where((start > lo) & (start < hi), start, beta)
    # Newton on the unconverged points only; a converged point keeps its beta
    act = np.arange(beta.size)
    for _ in range(80):
        b = beta[act]
        _, a, deriv = ev.chart_fields((), b, phi0[act] - slope * b, slope)
        F = a - target[act]
        lo_a = np.where(F > 0, b, lo[act])
        hi_a = np.where(F <= 0, b, hi[act])
        cand = b - F / deriv  # deriv is strictly negative on the window
        inside = (cand > lo_a) & (cand < hi_a)
        done = np.abs(F) < 1e-13
        # a done point keeps its last Newton step, or its iterate if that step
        # leaves the safeguard; only an unfinished point takes the midpoint
        fallback = np.where(done, b, np.sqrt(lo_a * hi_a))
        lo[act], hi[act] = lo_a, hi_a
        beta[act] = np.where(inside, cand, fallback)
        act = act[~done]
        if act.size == 0:
            break
    else:
        b = beta[act]
        F = ev.log_radius(b, phi0[act] - slope * b) - target[act]
        if not np.max(np.abs(F)) <= 1e3 * 1e-13:  # a NaN misfit fails too
            raise InversionError(f"{what} stalled at |F| = {np.max(np.abs(F)):.2e}")
    return beta


def to_chart(ev: FieldEvaluator, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Invert the evaluator's chart map at nonzero plane points.

    Along the line beta + phi = arg(z) the log-radius is strictly decreasing
    in beta; _chart_newton solves it to a misfit below 1e-13.  Returns
    (beta, phi) arrays matching z[..., 2].
    """
    z = np.asarray(z, dtype=float)
    r = np.hypot(z[..., 0], z[..., 1])
    if np.any(r == 0.0):
        raise ParameterError("the chart does not cover the origin")
    shape = r.shape
    theta = np.arctan2(z[..., 1], z[..., 0]).ravel()
    beta = _chart_newton(ev, r.ravel(), theta, 1.0, "chart inversion").reshape(shape)
    phi = np.mod(theta.reshape(shape) - beta, 2.0 * np.pi)
    return beta, phi


def _velocity(scale, mu, theta, db, dv, dp, dpdb, lg):
    """Cartesian velocity components, radial factor ``scale``, at angle theta."""
    radial_part = (dpdb * dv - lg * dp) / (2.0 * db)
    pref = scale * (-db / mu) ** (1.0 / (2.0 * mu) - 1.0) * (2.0 * db / lg)
    return (
        pref * (radial_part * np.cos(theta) - dv * np.sin(theta)),
        pref * (radial_part * np.sin(theta) + dv * np.cos(theta)),
    )


def eval_fields_batch(
    ev: FieldEvaluator, omega: AngularSignal, x: np.ndarray, t: np.ndarray
) -> dict:
    """Reconstruct w, u, psi at arrays of space-time points (t > 0).

    The evaluator's stream gives u and psi; w takes the angular factor omega
    too.  A nonzero x that t^-mu scales to zero raises InversionError, an
    omega with modes off the evaluator's lattice ParameterError and a w that
    overflows NonFiniteError.
    """
    omega = omega.on(ev.params, "the angular factor")
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    mu = ev.mu
    z = x * (t ** (-mu))[..., None]
    # a point the time scale takes to the origin is out of the chart's reach;
    # the origin itself is not in its domain (to_chart raises ParameterError)
    lost = ~np.any(z, axis=-1) & np.any(x, axis=-1)
    if np.any(lost):
        raise InversionError("chart inversion cannot reach |z| = 0: |x| t^-mu underflows")
    beta, phi = to_chart(ev, z)
    psiv, db, dv, dp, dpdb, lg = ev.field(ev.FIELDS, beta, phi)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite w raises below
        w = (beta / t) * dv ** (-1.0 / (2.0 * mu)) * omega.values(phi)
    if bad := np.count_nonzero(~np.isfinite(w)):
        raise NonFiniteError(f"the vorticity overflows at {bad} of {w.size} points")
    psi = (beta / t) ** (1.0 - 2.0 * mu) * psiv
    rmag = np.hypot(x[..., 0], x[..., 1])
    u1, u2 = _velocity(rmag ** (1.0 - 1.0 / mu), mu, beta + phi, db, dv, dp, dpdb, lg)
    return {
        "w": w,
        "u1": u1,
        "u2": u2,
        "psi": psi,
        "beta": beta,
        "phi": phi,
    }


def initial_data(ev: FieldEvaluator, omega: AngularSignal, theta) -> dict:
    """Angular factors of the time-zero limits.

    w(x, 0)   = |x|^(-1/mu) * w0(theta)
    u(x, 0)   = |x|^(1-1/mu) * u0(theta)           (2-vector factor)
    psi(x, 0) = |x|^(2-1/mu) * psi0(theta)

    The values at beta = 0 are the evaluator's chopped series at s = 0, at
    the angles theta; only w0 takes the angular factor omega, whose modes
    must lie on the evaluator's lattice (ParameterError otherwise).
    """
    omega = omega.on(ev.params, "the angular factor")
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    mu = ev.mu
    zero = np.zeros_like(theta)
    psi0, db0, dv0, dp0, dpdb0, lg0 = ev.field(ev.FIELDS, zero, theta)
    w0 = (db0 / (-mu * dv0)) ** (1.0 / (2.0 * mu)) * omega.values(theta)
    psi0_factor = (-db0 / mu) ** (1.0 / (2.0 * mu) - 1.0) * psi0
    u0 = np.stack(_velocity(1.0, mu, theta, db0, dv0, dp0, dpdb0, lg0), axis=-1)
    return {"w0": w0, "u0": u0, "psi0": psi0_factor}


def _omega_zeros(omega: AngularSignal) -> np.ndarray:
    """All zeros of the angular factor on [0, 2 pi), by scan and bisection.

    A zero on a scan node is kept as it is; the sign changes between nodes
    of one period (its end point takes the value at 0) are bisected at once.
    The scan runs on omega scaled by the power of two that brings its
    largest coefficient part into [1/2, 1): the scaling is exact, so the
    signs and zeros are omega's own, and a huge or tiny omega neither
    overflows nor underflows in the sign tests.
    """
    parts = omega.modes.view(float)  # (re, im) of each mode
    if top := float(np.max(np.abs(parts))):
        omega = replace(omega, modes=np.ldexp(parts, -math.frexp(top)[1]).view(complex))
    n_scan = 16384
    period = omega.params.period
    phis = period * np.arange(n_scan + 1) / n_scan
    vals = omega.values(phis[:-1])
    vals = np.append(vals, vals[0])
    on_node = phis[:-1][vals[:-1] == 0.0]
    cross = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
    a, b, fa = phis[cross], phis[cross + 1], vals[cross]
    for _ in range(60):
        m = 0.5 * (a + b)
        fm = omega.values(m)
        left = fa * fm <= 0.0
        a, b, fa = np.where(left, a, m), np.where(left, m, b), np.where(left, fa, fm)
    zeros = np.concatenate([on_node, 0.5 * (a + b)])
    all_zeros = np.concatenate([zeros + j * period for j in range(omega.params.N)])
    return np.sort(np.mod(all_zeros, 2.0 * np.pi))


def spiral_extract(
    ev: FieldEvaluator, omega: AngularSignal, t: float, n_beta: int = 160
) -> list[SpiralCurve]:
    """Zero-set curves of the vorticity at time t.

    One curve per zero of the angular factor omega, the evaluator's chart
    image of the line phi = phi0, sampled at n_beta radii geometric in
    [0.05, 40]; an angular factor without zeros gives an empty list.  A
    curve point past the float range raises InversionError, and an omega
    with modes off the evaluator's lattice ParameterError: the zero scan
    covers one period of the evaluator's N.
    """
    omega = omega.on(ev.params, "the angular factor")
    zeros = _omega_zeros(omega)
    if len(zeros) == 0:
        return []
    beta = np.geomspace(0.05, 40.0, n_beta)
    # the broadcast shapes keep one Clenshaw recurrence per beta, and put
    # curve j's points in the contiguous block points[j]; a float64 scalar
    # power is libm's pow, as Python's is (np.power's SIMD loop may differ)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite point raises below
        points = np.float64(t) ** ev.mu * to_plane(ev, beta[None, :], zeros[:, None])
    if not np.all(np.isfinite(points)):
        raise InversionError(f"the zero-set curves at t = {t:.3e} leave the float range")
    return [
        SpiralCurve(phi0=float(phi0), beta=beta.copy(), points=points[j], t=float(t))
        for j, phi0 in enumerate(zeros)
    ]


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------


def _gauss(n, a, b):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def _gauss_power(n, g):
    """Gauss rule for the weight v^g (g > -1) on [0, 1]: Golub & Welsch
    (Math. Comp. 23, 1969) on the Jacobi weight (1 + x)^g, v = (1 + x) / 2."""
    k = np.arange(1.0, n)
    s = 2.0 * k + g
    diag = np.concatenate([[g / (g + 2.0)], g * g / (s * (s + 2.0))])
    off = 2.0 * k * (k + g) / (s * np.sqrt(s * s - 1.0))
    x, vec = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return 0.5 * (1.0 + x), vec[0] ** 2 / (g + 1.0)


def _lp_chart_norms(
    ev: FieldEvaluator, omega: AngularSignal, ps: Sequence[float], R: float, t: float
) -> list[float]:
    """L^p norms of w(., t) over the centered ball of radius R via the chart.

    The ball pulls back to beta >= beta*(phi); beta = beta*/v maps it to
    v in [0, 1], where the integrand is v^(2 mu - p - 1) times a smooth
    factor, integrated by the Gauss rule of that weight.  Every p in ps
    shares the radius solve; one that stalls raises InversionError.
    """
    n_phi, n_rad = 512, 32
    mu = ev.mu
    # the chart fields are 2 pi / N periodic; sampling one period makes the
    # trapezoid sum exact and immune to aliasing at high periodicity
    phis = ev.params.period * np.arange(n_phi) / n_phi
    # solve |z(beta, phi)| = R t^(-mu) per angle along the lines phi = const
    what = f"lp radius solve at R = {R}, t = {t}"
    beta = _chart_newton(ev, np.full(n_phi, R * t ** (-mu)), phis, 0.0, what)
    om = np.abs(omega.values(phis))
    norms = []
    for p in ps:
        v, wv = _gauss_power(n_rad, 2.0 * mu - p - 1.0)
        B = beta[None, :] / v[:, None]
        (dv,), a, da = ev.chart_fields(("dv",), B, phis[None, :], 1.0)
        area = np.exp(2.0 * a) * np.abs(da)
        integ = area * B ** (2.0 * mu + 1.0) * dv ** (-p / (2.0 * mu)) * om**p
        total = float(np.sum(wv[:, None] * integ * beta ** (p - 2.0 * mu)) * (2.0 * np.pi / n_phi))
        norms.append((total * t ** (2.0 * mu - p)) ** (1.0 / p))
    return norms


def _columns(ev, r0, r1, t, phis):
    """Per time t, the beta column [lo, hi] that holds r0 <= |x| <= r1 at every angle.

    |x| falls strictly in beta along phi = const, so lo and hi are the
    extreme preimages of r1 and r0, all from one _chart_newton call.
    """
    zr = np.multiply.outer(t ** (-ev.mu), [r1, r0]).repeat(len(phis))
    what = f"annulus solve at r = {r0:.3f}..{r1:.3f}"
    pre = _chart_newton(ev, zr, np.tile(phis, 2 * len(t)), 0.0, what).reshape(len(t), 2, -1)
    return pre[:, 0].min(axis=1), pre[:, 1].max(axis=1)


def _annulus(ev, omega, r0, r1, t, n_rad, n_phi):
    """Fields and weights of a chart quadrature over r0 < |x| < r1 at times t.

    Each time's column (_columns) carries n_rad Gauss nodes in v = lo / beta,
    shared by n_phi angles of one 2 pi / N period: one Clenshaw recurrence
    per beta, and the weight of N periods (the test functions are radial).
    Returns |x|, w (its angular factor omega), u_r, u_theta and t^(2 mu)
    area dbeta dphi, each of shape (len(t), n_rad, n_phi).
    """
    mu, tt = ev.mu, t[:, None, None]
    phis = ev.params.period * np.arange(n_phi) / n_phi
    lo, hi = _columns(ev, r0, r1, t, phis)
    v, wv = _gauss(n_rad, (lo / hi)[:, None], 1.0)
    beta = (lo[:, None] / v)[..., None]
    (db, dv, dp, dpdb, lg), a, da = ev.chart_fields(ev.FIELDS[1:], beta, phis, 1.0)
    r = tt**mu * np.exp(a)
    w = (beta / tt) * dv ** (-1.0 / (2.0 * mu)) * omega.values(phis)
    ur, uth = _velocity(r ** (1.0 - 1.0 / mu), mu, 0.0, db, dv, dp, dpdb, lg)
    area = np.exp(2.0 * a) * np.abs(da)
    # dbeta = lo dv / v^2 = beta dv / v
    wq = tt ** (2.0 * mu) * area * beta * (wv / v)[..., None] * (2.0 * np.pi / n_phi)
    return r, w, ur, uth, wq


VERIFY_SUITES = ("selfsim", "lp", "weak", "divfree", "poisson")

# Verdict thresholds: the largest accepted selfsim defect and relative
# weak/divfree/poisson residual.  Each lp row carries its own verdict
# against the analytic bound.
VERIFY_THRESHOLDS = {"selfsim": 1e-10, "weak": 1e-5, "divfree": 1e-5, "poisson": 1e-5}
_WEAK_T_NODES = 40  # Gauss nodes in t per weak test window


def verdicts(report: dict) -> dict:
    """Pass or fail of each suite a verify report holds, in VERIFY_SUITES order."""
    verdict = {}
    for name in VERIFY_SUITES:
        if name not in report:
            continue
        if name == "lp":
            verdict[name] = all(row["ok"] for row in report["lp"])
        elif name == "selfsim":
            verdict[name] = report["selfsim"]["max_rel_defect"] <= VERIFY_THRESHOLDS[name]
        else:
            verdict[name] = all(row["rel"] <= VERIFY_THRESHOLDS[name] for row in report[name])
    return verdict


def verify(
    ev: FieldEvaluator, omega: AngularSignal, suite: Sequence[str] = VERIFY_SUITES, seed: int = 42
) -> dict:
    """Run the physical-space verification suites on the evaluator's stream
    and the angular factor omega; returns a value report.

    selfsim  scaling identity w(lambda^mu x, lambda t) = w(x, t)/lambda
    lp       time-independent L^p bound over centered balls
    weak     weak form of the vorticity transport, initial term included
    divfree  weak divergence-freeness of the velocity
    poisson  weak form of the vorticity-stream coupling

    An omega with modes off the evaluator's lattice raises ParameterError.
    """
    omega = omega.on(ev.params, "the angular factor")
    unknown = set(suite) - set(VERIFY_SUITES)
    if unknown:
        raise ParameterError(f"unknown verification suites: {sorted(unknown)}")
    mu = ev.mu
    rng = np.random.default_rng(seed)
    report: dict = {"suite": list(suite), "seed": seed}

    if "selfsim" in suite:
        P = 1000
        r = rng.uniform(0.5, 2.0, P)
        ang = rng.uniform(0.0, 2.0 * np.pi, P)
        x = np.stack([r * np.cos(ang), r * np.sin(ang)], axis=-1)
        t = rng.uniform(0.2, 1.0, P)
        lam = rng.uniform(0.5, 2.0, P)
        f1 = eval_fields_batch(ev, omega, x, t)
        xs = x * (lam**mu)[:, None]
        f2 = eval_fields_batch(ev, omega, xs, lam * t)
        scale = np.max(np.abs(f1["w"]))
        defect = np.max(np.abs(lam * f2["w"] - f1["w"])) / scale
        report["selfsim"] = {"samples": P, "max_rel_defect": float(defect)}

    if "lp" in suite:
        ps = [p for p in (1.0, 1.5) if p < 2.0 * mu]
        times, radii = (0.01, 0.1, 1.0), (0.5, 1.0, 2.0)
        norms = {(t, R): _lp_chart_norms(ev, omega, ps, R, t) for t in times for R in radii}
        rows = []
        for i, p in enumerate(ps):
            for t in times:
                for R in radii:
                    left = norms[t, R][i]
                    bound = ((6.0 * mu / (2.0 * mu - p)) ** (1.0 / p) * mu ** (-1.0 / (2.0 * mu))
                             * omega.lp_norm(p) * R ** (2.0 / p - 1.0 / mu))
                    rows.append({"p": p, "t": t, "R": R, "norm": left, "bound": bound,
                                 "ok": bool(left <= bound * (1.0 + 1e-9))})
        report["lp"] = rows

    if "weak" in suite or "divfree" in suite or "poisson" in suite:
        # bump test functions on annuli x time windows, from a generator of
        # their own so that they do not depend on the suites run before
        rng = np.random.default_rng(seed)
        tests = []
        for i in range(5):
            r0 = rng.uniform(0.5, 0.9)
            r1 = r0 + rng.uniform(0.8, 1.6)
            if i < 2:
                # window open at t = 0: half of a bump centered there
                b = rng.uniform(0.8, 1.4)
                tests.append((r0, r1, -b, b))
            else:
                a = rng.uniform(0.1, 0.3)
                b = a + rng.uniform(0.6, 1.2)
                tests.append((r0, r1, a, b))

    if "weak" in suite:
        rows = []
        for r0, r1, a, b in tests:
            tq, wt = _gauss(_WEAK_T_NODES, max(a, 0.0), b)
            r, W, Ur, _, wq = _annulus(ev, omega, r0, r1, tq, 32, 80)
            g, gp = bump(r, r0, r1)
            # h and h' carry the t rule's weights; u . grad(g h) = g' h u_r
            h, hp = (f[:, None, None] * wt[:, None, None] for f in bump(tq, a, b))
            dt, adv = W * g * hp, W * gp * Ur * h
            term_t, term_adv = float(np.sum(dt * wq)), float(np.sum(adv * wq))
            mass_t, mass_adv = float(np.sum(np.abs(dt) * wq)), float(np.sum(np.abs(adv) * wq))
            term_init = 0.0
            if a < 0.0:
                # initial term: w(., 0) = |x|^(-1/mu) w0(theta), radii by their own rule
                h0 = float(bump(0.0, a, b)[0])
                rq, wr = _gauss(32, r0, r1)
                th = ev.params.period * np.arange(80) / 80
                w0 = initial_data(ev, omega, th)["w0"]
                rad = float(np.sum(wr * rq ** (1.0 - 1.0 / mu) * bump(rq, r0, r1)[0]))
                term_init = h0 * rad * float(np.sum(w0) * (2.0 * np.pi / 80))
            resid = term_init + term_t + term_adv
            scale = max(mass_t, mass_adv, abs(term_init), 1e-300)
            rows.append({"support": (r0, r1, max(a, 0.0), b), "residual": resid,
                         "scale": scale, "rel": abs(resid) / scale})
        report["weak"] = rows

    if "divfree" in suite or "poisson" in suite:
        # both suites integrate the same quadrature at the window's mid time
        divfree, poisson = [], []
        for r0, r1, a, b in tests[:3]:
            tval = 0.5 * (max(a, 0.05) + b)
            r, W, Ur, Uth, wq = _annulus(ev, omega, r0, r1, np.array([tval]), 48, 128)
            g, gp = bump(r, r0, r1)
            val = float(np.sum(gp * Ur * wq))
            scale = float(np.sum(np.hypot(Ur, Uth) * np.abs(gp) * wq)) or 1.0
            divfree.append({"t": tval, "integral": val, "scale": scale, "rel": abs(val) / scale})
            # grad psi = u rotated by -pi/2, so grad psi . grad g = g' u_theta
            lhs = -float(np.sum(gp * Uth * wq))
            rhs = float(np.sum(W * g * wq))
            scale = max(abs(lhs), abs(rhs), 1e-300)
            poisson.append({"t": tval, "lhs": lhs, "rhs": rhs, "rel": abs(lhs - rhs) / scale})
        if "divfree" in suite:
            report["divfree"] = divfree
        if "poisson" in suite:
            report["poisson"] = poisson

    return report


# ---------------------------------------------------------------------------
# Artifact export
# ---------------------------------------------------------------------------


def export_samples_csv(path, x: np.ndarray, t: float, fields: dict) -> None:
    """Rows x1,x2,t,w,u1,u2,psi, one per sample, in csv.writer's dialect.

    ``x`` is the (n, 2) array of sample points at the one time ``t`` and
    ``fields`` the eval_fields_batch result for them.  Every value is written
    as the repr of a Python float, which round-trips exactly and needs no
    quoting, so the whole table is one % format.
    """
    cols = np.column_stack(
        [x, np.full(len(x), t), fields["w"], fields["u1"], fields["u2"], fields["psi"]]
    )
    with open(path, "w", newline="") as fh:
        fh.write("x1,x2,t,w,u1,u2,psi\r\n")
        fh.write("%r,%r,%r,%r,%r,%r,%r\r\n" * len(cols) % tuple(cols.reshape(-1).tolist()))


def export_spirals_csv(path, curves: Sequence[SpiralCurve]) -> None:
    """Rows phi0,t,beta,x1,x2, one per curve point, in csv.writer's dialect.

    No float repr needs quoting, so each curve is written by one % format.
    The beta column's reprs are formed once and re-formed only when a
    curve's beta differs from the previous curve's.
    """
    beta_key = cells = None
    tail = ",%r,%r\r\n"
    with open(path, "w", newline="") as fh:
        fh.write("phi0,t,beta,x1,x2\r\n")
        for c in curves:
            key = (c.beta.dtype, c.beta.shape, c.beta.tobytes())
            if key != beta_key:
                beta_key, cells = key, list(map(repr, c.beta.tolist()))
            head = "%r,%r," % (float(c.phi0), float(c.t))
            template = head + (tail + head).join(cells) + tail if cells else ""
            fh.write(template % tuple(c.points.reshape(-1).tolist()))


def render_spirals_svg(path, curves: Sequence[SpiralCurve]) -> None:
    """Standalone 640 x 640 SVG with the sampled zero-set curves and annotated axes."""
    size = 640
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
        xy = np.stack([xs, ys], axis=-1).ravel().tolist()
        pts = " ".join(["%.2f,%.2f"] * len(xs)) % tuple(xy)
        hue = (137 * i) % 360
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="hsl({hue},60%,40%)" '
            f'stroke-width="1.2"/>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
