"""Machine-checkable reproduction of the explicit invertibility constants.

The linearization at the base state splits per mode into an isometric part
and the perturbation (2 mu - 1) * i n beta.  Its operator norm, measured
between the solution space and the target space, is bounded by an explicit
two-bracket product K(mu, N) built from seven cutoff-norm constants and the
interval-distance bounds below; K < 1 certifies invertibility for every
retained mode.  For N above the simplification threshold the bound collapses
to

    K <= (2 mu - 1)/<N> * (397 + 1090/mu + 1264/mu^2 + 999/mu^3 + 42/mu^4),

so the right-hand side of N > (2 mu - 1)(397 + ...) is the periodicity
threshold the certificate compares against.

All checks are floating point with stated tolerances; discrepancies are
reported, never silently corrected.  In particular the quoted lower bound
for the minus-branch interval distance can exceed the exact distance at the
smallest admissible periodicities, and such rows are flagged.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ParameterError
from .grid_space import (
    ModeProfile,
    RadialGrid,
    SolverParams,
    bracket,
    bump,
    cutoff_normalization,
    delta_of,
    mode_norm,
    sample_cutoffs,
    xi_far,
)
from .operators import (
    apply_beta_mult,
    invert_mode_operator,
    shift_minus,
    shift_plus,
)

__all__ = [
    "Certificate",
    "delta_of",
    "dist_gap",
    "cutoff_norm_table",
    "contraction_and_threshold",
    "certify",
    "CUTOFF_BOUNDS",
]

# quoted bounds for the seven cutoff suprema, keyed by what is measured
CUTOFF_BOUNDS = {
    "beta_dbeta_xi0": 5.0,
    "beta_xi0": 2.83,
    "dbeta_xiinf": 3.5,
    "xiinf_over_beta": 1.0,
    "beta2_dbeta_xi0": 7.5,
    "beta2_dbeta2_xi0": 42.0,
    "plain_sup_mixed": 1.42,
}


@dataclass(frozen=True)
class DistRow:
    """One interval-distance comparison for a retained mode."""

    n: int
    branch: str
    exact: float
    quoted_lower: float
    quoted_upper: float
    flagged: bool


@dataclass(frozen=True)
class SpotRow:
    """One sampled perturbation norm against the contraction bound."""

    n: int
    ratio: float
    bound: float
    ok: bool


def dist_gap(mu: float, N: int, n: int, branch: str) -> DistRow:
    """Distance from the weight interval to the mode shift, with quoted bounds.

    exact = dist([-delta, delta], (2 +- n) mu - 1); the quoted bounds are
    ((N - 2) mu + 5/6)/<N> * <n> from below and ((N + 2) mu - 3/2)/<N> * <n>
    from above.  A row where the exact distance undershoots the quoted lower
    bound is flagged, not corrected.
    """
    if N < 4:
        raise ParameterError(f"distance bounds need N >= 4, got {N}")
    if abs(n) < N:
        raise ParameterError(f"distance bounds need |n| >= N, got n={n}")
    if branch not in ("plus", "minus"):
        raise ParameterError(f"branch must be 'plus' or 'minus', got {branch!r}")
    d = delta_of(mu)
    shift = shift_plus(mu, n) if branch == "plus" else shift_minus(mu, n)
    exact = max(abs(shift) - d, 0.0)
    lower = ((N - 2) * mu + 5.0 / 6.0) / bracket(N) * bracket(n)
    upper = ((N + 2) * mu - 1.5) / bracket(N) * bracket(n)
    return DistRow(
        n=n,
        branch=branch,
        exact=float(exact),
        quoted_lower=float(lower),
        quoted_upper=float(upper),
        flagged=bool(exact < lower - 1e-12),
    )


def cutoff_norm_table(grid: RadialGrid) -> dict:
    """Compute the seven cutoff suprema and compare with the quoted bounds.

    Sampling: 4096 log-spaced radii on [1e-6, 1e6] plus the cutoff support
    refined 16 times, and the grid nodes themselves.  The six weighted norms
    are maximized over the admissible weight exponents delta in (1/6, 1/2]:
    the weight max(b^d, b^-d) = max(b, 1/b)^d never decreases in d, so each
    supremum sits at delta = 1/2 and is evaluated there alone.  The mixed
    plain supremum is not monotone in delta and is scanned over the range.
    """
    base = np.geomspace(1e-6, 1e6, 4096)
    support = np.linspace(0.5, 2.5, 16 * 4096)
    beta = np.unique(np.concatenate([base, support, grid.nodes[grid.nodes > 0]]))
    deltas = np.linspace(1.0 / 6.0 + 1e-9, 0.5, 23)
    weight = np.maximum(beta**0.5, beta**-0.5)

    def weighted_sup(values: np.ndarray) -> float:
        return float(np.max(weight * np.abs(values)))

    C = cutoff_normalization()
    y, yp = bump(beta)
    eta, eta_p = C * y, C * yp
    xf = xi_far(beta)
    x0 = 1.0 - xf  # xi_near

    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite supremum raises below
        computed = {
            "beta_dbeta_xi0": weighted_sup(beta * eta),
            "beta_xi0": weighted_sup(beta * x0),
            "dbeta_xiinf": weighted_sup(eta),
            "xiinf_over_beta": weighted_sup(xf / beta),
            "beta2_dbeta_xi0": weighted_sup(beta * beta * eta),
            "beta2_dbeta2_xi0": weighted_sup(beta * beta * eta_p),
            "plain_sup_mixed": max(
                max(float(np.max(beta**d * x0)), float(np.max(beta**-d * xf))) for d in deltas
            ),
        }
    off = [name for name, val in computed.items() if not np.isfinite(val)]
    if off:  # beta^2 overflows at the nodes of a wide grid
        raise ParameterError(f"cutoff suprema {off} overflow on the grid of scale {grid.map_scale}")
    table = {}
    for name, bound in CUTOFF_BOUNDS.items():
        val = computed[name]
        table[name] = {"computed": val, "bound": bound, "ok": bool(val <= bound)}
    return table


def contraction_and_threshold(mu: float, N: int) -> tuple[float, float]:
    """Contraction constant K(mu, N) and the periodicity threshold.

    K is the two-bracket product with the quoted cutoff constants
    substituted; it is evaluated directly for any N >= 4 (the simplified
    closed form assumes N > 2000 and is what the threshold encodes).
    """
    delta_of(mu)  # checks mu > 2/3
    if N < 4:
        raise ParameterError(f"contraction bound needs N >= 4, got {N}")
    Nb = float(bracket(N))
    denom = (N - 2) * mu + 5.0 / 6.0
    first = (
        Nb / denom * ((5.0 + 2.83 * Nb) / denom + 2.0)
        + 1.05 / denom * (3.5 + 2.0 * mu)
        + Nb * mu / denom
        + 1.05
    )
    second = (1.42 * Nb / denom + 2.42 / denom + 31.95) * (
        10.33 * Nb / denom + 52.0 / denom + 6.0
    ) + 2.83 * Nb / denom
    K = (2.0 * mu - 1.0) / Nb * first * second
    try:  # mu**2 overflows before 2 mu - 1 in K does
        threshold = (2.0 * mu - 1.0) * (
            397.0 + 1090.0 / mu + 1264.0 / mu**2 + 999.0 / mu**3 + 42.0 / mu**4
        )
    except OverflowError as exc:
        raise ParameterError(f"the periodicity threshold at mu = {mu} overflows") from exc
    return float(K), float(threshold)


@dataclass(frozen=True)
class Certificate:
    """All explicit constants with pass/fail verdicts."""

    mu: float
    N: int
    delta: float
    dist_rows: tuple
    cutoff_norms: dict
    contraction: float
    threshold: float
    passes: bool
    notes: tuple
    spot_checks: tuple = ()

    def __post_init__(self):
        want = bool(self.N > self.threshold and self.contraction < 1.0)
        if self.passes != want:
            raise ParameterError("certificate verdict must equal its two conditions")

    def to_json(self) -> dict:
        return asdict(self)

    def table(self) -> str:
        lines = [
            f"invertibility certificate  mu={self.mu}  N={self.N}",
            f"  delta                 {self.delta:.6f}",
            f"  contraction constant  {self.contraction:.6f}  (must be < 1)",
            f"  periodicity threshold {self.threshold:.2f}  (must be < N)",
            f"  verdict               {'PASS' if self.passes else 'FAIL'}",
            "  cutoff suprema (computed <= bound):",
        ]
        for name, row in self.cutoff_norms.items():
            mark = "ok" if row["ok"] else "VIOLATED"
            lines.append(
                f"    {name:<18} {row['computed']:10.4f} <= {row['bound']:6.2f}  {mark}"
            )
        if self.dist_rows:
            lines.append("  interval distances (exact vs quoted bounds):")
            for r in self.dist_rows:
                mark = "FLAGGED" if r.flagged else "ok"
                lines.append(
                    f"    n={r.n:<8} {r.branch:<5} exact={r.exact:12.4f} "
                    f"lower={r.quoted_lower:12.4f} upper={r.quoted_upper:12.4f}  {mark}"
                )
        if self.spot_checks:
            lines.append("  sampled perturbation norms (ratio <= K):")
            for r in self.spot_checks:
                lines.append(
                    f"    n={r.n:<8} ratio={r.ratio:10.6f} <= {r.bound:10.6f}  "
                    f"{'ok' if r.ok else 'VIOLATED'}"
                )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def _random_core_profile(rng: np.random.Generator, n: int, cuts, delta: float) -> ModeProfile:
    """Random smooth profile with the decay the weighted core norm demands."""
    grid = cuts.grid
    b = grid.nodes
    ncoef = 10
    co = rng.standard_normal(ncoef) + 1j * rng.standard_normal(ncoef)
    co *= np.exp(-0.5 * np.arange(ncoef))
    smooth = np.polynomial.chebyshev.chebval(1.0 - 2.0 * grid.s_of_beta(b), co)
    envelope = np.zeros_like(b)
    pos = b > 0
    envelope[pos] = np.minimum(b[pos] ** delta, b[pos] ** -delta) * np.exp(-0.05 * b[pos])
    return ModeProfile(n, smooth * envelope)


def _perturbation_spot_check(params: SolverParams, K: float, seed: int) -> tuple:
    """Sampled norm of the perturbation against the contraction bound.

    Draws eight random weighted-core profiles g per mode, forms the
    solution-space element psi = (Q+1)^-1 D(n,s-)^-1 g, applies
    (2 mu - 1) i n beta, and measures
    the image back in the target space through the D(n,s+) preimage.  Every
    sampled ratio must stay below K.  Each mode's samples pass D(n,s-) and
    D(n,s+) as one batch; (Q+1)^-1 = D(0,-1) does not depend on the mode,
    so all modes' samples pass it as one batch.
    """
    cuts = sample_cutoffs(params.grid)
    mu = params.mu
    delta = params.delta
    rng = np.random.default_rng(seed)
    modes = [k * params.N for k in (1, 2, 3)]
    gs = {n: [_random_core_profile(rng, n, cuts, delta) for _ in range(8)] for n in modes}
    if not all(g.core.any() for n in modes for g in gs[n]):  # exp(-beta/20) underflowed
        raise ParameterError(f"spot-check profiles vanish on the grid of scale {params.grid_scale}")
    stage1 = [h for n in modes for h in invert_mode_operator(n, shift_minus(mu, n), gs[n], cuts)]
    psis = invert_mode_operator(0, -1.0, stage1, cuts)
    rows = []
    for i, n in enumerate(modes):
        perts = []
        for psi in psis[8 * i : 8 * (i + 1)]:
            pert = (2.0 * mu - 1.0) * apply_beta_mult(cuts.grid, n, psi.extended(cuts))
            perts.append(ModeProfile.from_values(n, pert[:-1], pert[-1], cuts))
        pres = invert_mode_operator(n, shift_plus(mu, n), perts, cuts)
        worst = max(
            mode_norm(pre, delta, cuts) / mode_norm(g, delta, cuts) for g, pre in zip(gs[n], pres)
        )
        rows.append(SpotRow(int(n), float(worst), float(K), bool(worst <= K)))
    return tuple(rows)


def certify(params: SolverParams, seed: int = 42) -> Certificate:
    """Assemble the full certificate for one parameter set."""
    mu, N = params.mu, params.N
    delta = delta_of(mu)
    notes: list[str] = []

    dist_rows: list[DistRow] = []
    if N >= 4:
        for k in (1, 2, 3):
            for branch in ("plus", "minus"):
                row = dist_gap(mu, N, k * N, branch)
                dist_rows.append(row)
                if row.flagged:
                    notes.append(
                        f"quoted lower distance bound exceeds the exact distance at "
                        f"n={row.n} ({row.branch} branch): "
                        f"{row.quoted_lower:.6f} > {row.exact:.6f}"
                    )
    else:
        notes.append("interval-distance rows skipped: they require N >= 4")

    cutoffs = cutoff_norm_table(params.grid)
    for name, row in cutoffs.items():
        if not row["ok"]:
            notes.append(
                f"cutoff supremum {name} = {row['computed']:.4f} exceeds its "
                f"quoted bound {row['bound']}"
            )

    K, threshold = contraction_and_threshold(mu, max(N, 4))
    if N < 4:
        notes.append("contraction constant evaluated at N=4, the smallest admissible value")

    spots: tuple = ()
    if N >= 4:
        spots = _perturbation_spot_check(params, K, seed)
        for r in spots:
            if not r.ok:
                notes.append(
                    f"sampled perturbation norm {r.ratio:.6f} at n={r.n} exceeds K={r.bound:.6f}"
                )

    passes = bool(N > threshold and K < 1.0)
    return Certificate(
        mu=mu,
        N=N,
        delta=delta,
        dist_rows=tuple(dist_rows),
        cutoff_norms=cutoffs,
        contraction=K,
        threshold=threshold,
        passes=passes,
        notes=tuple(notes),
        spot_checks=spots,
    )
