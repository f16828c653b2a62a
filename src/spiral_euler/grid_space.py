"""Radial grids, cutoff functions, fields and their layered norm.

The radial coordinate beta lives on [0, inf).  We discretize it with
Chebyshev-Lobatto points in the compactified variable s in [0, 1],

    beta = scale * s / (1 - s),

keeping the s = 1 endpoint as an explicit "point at infinity" slot rather
than a grid node.  A field is its extended values: per stored mode, the
values at the finite nodes followed by the value at infinity.  The operators,
the solver and field.json hold these values and nothing else.

Where a mode is measured it splits into a ModeProfile: a core that
vanishes at both ends plus the coefficients of three functions, the cutoff
xi_near (equal to 1 near the origin), the cutoff xi_far (equal to 1 near
infinity) and the constant function.  Constants therefore split exactly into
xi_near + xi_far.

One norm is computed, the direct sum

    C_b^delta + C xi_near + C xi_far + C

whose core term is the sup of max(beta^delta, beta^-delta) |core| and whose
slot terms are the moduli of the three coefficients.  The paper's layered
spaces W_-, W_0 and W_+ are the subspaces where some slots vanish, and on
them this is their norm.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace
from functools import cached_property, lru_cache

import numpy as np

from .errors import ParameterError, StructureError

__all__ = [
    "SolverParams",
    "RadialGrid",
    "CutoffSamples",
    "ModeProfile",
    "SpectralField",
    "AngularSignal",
    "bracket",
    "delta_of",
    "mode_weight",
    "build_grid",
    "sample_cutoffs",
    "cutoff_normalization",
    "bump",
    "mollifier_bump",
    "gauss_legendre_16",
    "xi_far",
    "xi_near",
    "mode_norm",
    "field_to_json",
    "field_from_json",
]


def bracket(n) -> np.ndarray | float:
    """Japanese bracket <n> = (1 + n^2)^(1/2)."""
    return np.hypot(np.asarray(n, dtype=float), 1.0)


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------


def delta_of(mu: float) -> float:
    """Weight exponent of the C_b^delta core norm: 0.5 * min(2*mu - 1, 1)."""
    if not mu > 2.0 / 3.0:
        raise ParameterError(f"mu must exceed 2/3, got {mu}")
    return 0.5 * min(2.0 * mu - 1.0, 1.0)


@dataclass(frozen=True)
class SolverParams:
    """Scalar parameters of the self-similar spiral problem.

    mu          similarity exponent, mu > 2/3
    N           angular periodicity (profiles live on the mode lattice N*Z)
    harmonics   number of retained harmonics K; modes n = N*k, |k| <= K
    grid_points number of finite radial nodes M
    grid_scale  scale of the algebraic map beta = scale*s/(1-s)

    The weight exponent delta of the core norm (see delta_of) and the radial
    grid follow from these fields and are read-only.
    """

    mu: float
    N: int
    harmonics: int = 3
    grid_points: int = 257
    grid_scale: float = 1.0

    def __post_init__(self):
        delta_of(self.mu)  # checks mu > 2/3
        if self.N < 2:
            raise ParameterError(f"N must be at least 2, got {self.N}")
        if self.harmonics < 1:
            raise ParameterError("harmonics must be positive")
        if self.N * self.harmonics > np.iinfo(np.int64).max:
            # the mode indices n = N*k are int64
            raise ParameterError(
                f"N * harmonics = {self.N * self.harmonics} exceeds the largest mode index 2^63 - 1"
            )
        if self.grid_points < 16:
            raise ParameterError("grid_points must be at least 16")
        if not self.grid_scale > 0:
            raise ParameterError("grid_scale must be positive")

    @property
    def delta(self) -> float:
        """Weight exponent of the C_b^delta core norm, delta_of(mu)."""
        return delta_of(self.mu)

    @cached_property
    def grid(self) -> "RadialGrid":
        """The radial grid of these parameters, built once per instance."""
        return build_grid(self.grid_points, self.grid_scale)

    @property
    def mode_indices(self) -> np.ndarray:
        """Stored mode indices of a real field, n = N*k for k = 0..K.

        Mode -n of a real field is conj(mode n), so it is never stored.
        """
        return self.N * np.arange(self.harmonics + 1)

    @property
    def period(self) -> float:
        """Angular period 2 pi / N of every field on the mode lattice."""
        return 2.0 * np.pi / self.N

    @property
    def base_omega(self) -> float:
        """Constant angular factor of the radial base solution, 2 - 1/mu."""
        return 2.0 - 1.0 / self.mu

    @property
    def base_stream_constant(self) -> float:
        """Constant value of the rescaled base stream profile, 1/(2*mu - 1)."""
        return 1.0 / (2.0 * self.mu - 1.0)


# ---------------------------------------------------------------------------
# Radial grid
# ---------------------------------------------------------------------------


def _dct1(x: np.ndarray) -> np.ndarray:
    """Unnormalized DCT-I along the last axis.

    For x_0..x_L it returns y_j = x_0 + (-1)^j x_L + 2 sum_{0<k<L} x_k
    cos(pi k j / L), j = 0..L.  It is the real FFT of the even extension;
    the real and imaginary parts of complex input are transformed
    separately, which is what scipy.fft.dct(type=1) does, bit for bit.
    """
    x = np.asarray(x)

    def real_dct1(v):
        return np.fft.rfft(np.concatenate([v, v[..., -2:0:-1]], axis=-1), axis=-1).real

    if not np.iscomplexobj(x):
        return real_dct1(x)
    y = np.empty(x.shape, dtype=complex)
    y.real = real_dct1(x.real)
    y.imag = real_dct1(x.imag)
    return y


@dataclass(frozen=True)
class RadialGrid:
    """Chebyshev-Lobatto grid for [0, inf) under beta = scale*s/(1-s).

    nodes       finite beta nodes, ascending, nodes[0] = 0
    map_scale   the scale of the algebraic map
    diff_s_inf  row of the s-differentiation matrix at s = 1
    radial      (M+1)^2 matrix of beta*d/dbeta = s(1-s) d/ds
    """

    nodes: np.ndarray
    map_scale: float
    diff_s_inf: np.ndarray
    radial: np.ndarray

    @property
    def size(self) -> int:
        return len(self.nodes)

    def s_of_beta(self, beta):
        beta = np.asarray(beta, dtype=float)
        return beta / (self.map_scale + beta)

    def extend(self, values: np.ndarray, value_at_inf: complex = 0.0) -> np.ndarray:
        """Append the infinity-slot value to a finite-node vector."""
        out = np.empty(self.size + 1, dtype=np.result_type(values, complex))
        out[:-1] = values
        out[-1] = value_at_inf
        return out

    def apply_radial(self, ext: np.ndarray) -> np.ndarray:
        """Apply beta*d/dbeta to an extended vector.

        The infinity-slot value is subtracted first; beta*d/dbeta kills
        constants, and the shift keeps the annihilation exact in floats.
        """
        return self.radial @ (ext - ext[-1])

    def limit_beta_times(self, ext: np.ndarray) -> complex:
        """lim beta*f(beta) as beta -> inf for a function with f(inf) = 0.

        Equals -scale * f'(s) at s = 1 by l'Hopital on the algebraic map.
        """
        return -self.map_scale * (self.diff_s_inf @ (ext - ext[-1]))

    def chebyshev_coefficients(self, ext: np.ndarray) -> np.ndarray:
        """Chebyshev coefficients of the interpolant through the M+1 points."""
        # values ordered by s ascending correspond to y = 1 - 2s descending,
        # i.e. y_j = cos(pi j / M); DCT-I gives T_k(y) coefficients directly
        c = _dct1(ext) / self.size
        c[..., 0] *= 0.5
        c[..., -1] *= 0.5
        return c

    def evaluate_coefficients(self, coeffs: np.ndarray, s) -> np.ndarray:
        """Clenshaw evaluation at s in [0, 1] of DCT coefficients.

        coeffs may carry leading batch axes; the result has shape
        coeffs.shape[:-1] + s.shape.  Each row's all-zero tail is skipped:
        the recurrence starts at the longest row's last nonzero coefficient,
        and with the rows sorted by length, step k updates only the rows
        longer than k.  The skipped updates would have kept exact zeros, so
        the result is bit-identical to the dense recurrence.
        """
        y = 1.0 - 2.0 * np.asarray(s, dtype=float)
        rows = coeffs.reshape(-1, coeffs.shape[-1])
        nonzero = rows != 0
        length = np.where(
            nonzero.any(axis=1), rows.shape[1] - np.argmax(nonzero[:, ::-1], axis=1), 0
        )
        order = np.argsort(-length, kind="stable")
        longest = max(int(length.max(initial=0)), 1)
        rows = rows[order, :longest]
        active = np.count_nonzero(length[:, None] > np.arange(longest), axis=0).tolist()
        cols = rows.T[(...,) + (None,) * y.ndim]
        y2 = 2.0 * y

        # step k writes only the active prefix [:m], and m never shrinks as k
        # falls, so the rows past it stay zero in all three rotating buffers
        b1, b2, t = (np.zeros((len(rows),) + y.shape, dtype=coeffs.dtype) for _ in range(3))
        for k in range(longest - 1, 0, -1):
            m = active[k]
            np.multiply(y2, b1[:m], out=t[:m])
            t[:m] += cols[k, :m]
            t[:m] -= b2[:m]
            b1, b2, t = t, b1, b2
        out = np.empty_like(b1)
        out[order] = cols[0] + y * b1 - b2
        return out.reshape(coeffs.shape[:-1] + y.shape)


def build_grid(points: int, scale: float) -> RadialGrid:
    """Build the radial grid with `points` finite nodes under the given scale."""
    if points < 16:
        raise ParameterError(f"need at least 16 radial nodes, got {points}")
    if not scale > 0:
        raise ParameterError(f"grid scale must be positive, got {scale}")
    M = points
    j = np.arange(M + 1)
    s = 0.5 * (1.0 - np.cos(np.pi * j / M))
    with np.errstate(over="ignore"):
        nodes = scale * s[:-1] / (1.0 - s[:-1])
    if not np.isfinite(nodes[-1]):
        raise ParameterError(f"grid scale {scale} overflows the largest radial node")
    # pairwise differences via the product identity keeps corner entries exact
    ii, kk = np.meshgrid(j, j, indexing="ij")
    diff = np.sin((ii + kk) * (np.pi / (2 * M))) * np.sin((ii - kk) * (np.pi / (2 * M)))
    w = np.ones(M + 1)
    w[0] = w[-1] = 0.5
    w *= (-1.0) ** j
    with np.errstate(divide="ignore", invalid="ignore"):
        D = np.where(ii != kk, (w[None, :] / w[:, None]) / np.where(ii != kk, diff, 1.0), 0.0)
    D[j, j] = 0.0
    D[j, j] = -D.sum(axis=1)
    for _ in range(3):  # pin row sums to zero under matmul as well
        D[j, j] -= D @ np.ones(M + 1)
    radial = (s * (1.0 - s))[:, None] * D
    for _ in range(3):
        radial[j, j] -= radial @ np.ones(M + 1)
    return RadialGrid(nodes=nodes, map_scale=float(scale), diff_s_inf=D[-1].copy(), radial=radial)


# ---------------------------------------------------------------------------
# Cutoff functions
# ---------------------------------------------------------------------------


def _bump_values(x, lo: float, hi: float):
    """bump(x, lo, hi)[0], with the mask of (lo, hi) and u, q on it."""
    x = np.asarray(x, dtype=float)
    m = (x > lo) & (x < hi)
    u = (x[m] - lo) / (hi - lo) - 0.5
    q = u * u - 0.25
    # exp(1/q) is formed in y's own buffer, with no temporary of x's size
    y = np.zeros_like(x)
    y[m] = q
    np.divide(1.0, y, out=y, where=m)
    np.exp(y, out=y, where=m)
    return y, m, u, q


def bump(x, lo: float = 1.0, hi: float = 2.0) -> tuple[np.ndarray, np.ndarray]:
    """The bump exp(1/q), q = u^2 - 1/4, u = (x - lo)/(hi - lo) - 1/2, and its derivative.

    Both vanish outside (lo, hi).  On the default (1, 2), u is beta - 3/2
    exactly, which makes this the bump the cutoffs integrate.
    """
    y, m, u, q = _bump_values(x, lo, hi)
    yp = np.zeros_like(y)
    yp[m] = y[m] * (-2.0 * u / (q * q)) / (hi - lo)
    return y, yp


def mollifier_bump(beta) -> np.ndarray:
    """The cutoffs' bump exp(1/((beta-3/2)^2 - 1/4)) on (1, 2), bump(beta)[0]."""
    return _bump_values(beta, 1.0, 2.0)[0]


def cutoff_normalization() -> float:
    """Constant C making the bump integrate to one over (1, 2).

    The correctly rounded value of 1 / int_1^2 exp(1/((b-3/2)^2 - 1/4)) db,
    computed once to 40 digits (142.2503757770958681...); adaptive
    quadrature in double precision gives the same float.
    """
    return 142.25037577709585


_XI_BLOCK = 1 << 11  # points per bump quadrature in xi_far, which bounds memory


@lru_cache(maxsize=1)
def gauss_legendre_16() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the 16-point Gauss-Legendre rule on [-1, 1], formed once."""
    return np.polynomial.legendre.leggauss(16)


@lru_cache(maxsize=1)
def _bump_cumulative_table():
    """Cumulative integral of the normalized bump on a fine grid over [1, 2]."""
    n_cells = 4096
    edges = 1.0 + np.arange(n_cells + 1) / n_cells
    half = 0.5 / n_cells
    mid = edges[:-1] + half
    gx, gw = gauss_legendre_16()
    x = mid[:, None] + half * gx[None, :]
    cell = half * np.sum(mollifier_bump(x) * gw[None, :], axis=1)
    cum = np.concatenate([[0.0], np.cumsum(cell)])
    return edges, cum * cutoff_normalization()


def xi_far(beta) -> np.ndarray:
    """Cutoff equal to 0 on [0, 1] and 1 on [2, inf); integral of the bump."""
    beta = np.asarray(beta, dtype=float)
    edges, cum = _bump_cumulative_table()
    gx, gw = gauss_legendre_16()
    out = np.zeros_like(beta)
    out[beta >= 2.0] = 1.0
    inside = (beta > 1.0) & (beta < 2.0)
    b = beta[inside]
    vals = np.empty_like(b)
    for i in range(0, len(b), _XI_BLOCK):
        bb = b[i : i + _XI_BLOCK]
        idx = np.minimum(((bb - 1.0) * 4096).astype(int), 4095)
        lo = edges[idx]
        half = 0.5 * (bb - lo)
        x = (lo + half)[:, None] + half[:, None] * gx[None, :]
        rest = half * np.sum(mollifier_bump(x) * gw[None, :], axis=1)
        vals[i : i + _XI_BLOCK] = cum[idx] + rest * cutoff_normalization()
    out[inside] = vals
    return out


def xi_near(beta) -> np.ndarray:
    """Cutoff equal to 1 near the origin: 1 - xi_far."""
    return 1.0 - xi_far(beta)


@dataclass(frozen=True)
class CutoffSamples:
    """The cutoffs xi_near and xi_far sampled at the grid nodes."""

    grid: RadialGrid
    xi0: np.ndarray  # xi_near
    xiinf: np.ndarray  # xi_far


def sample_cutoffs(grid: RadialGrid) -> CutoffSamples:
    """Sample the cutoff pair at the nodes."""
    xf = xi_far(grid.nodes)
    return CutoffSamples(grid=grid, xi0=1.0 - xf, xiinf=xf)


# ---------------------------------------------------------------------------
# Mode profiles and fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModeProfile:
    """One Fourier mode of a radial function in structured form.

    The represented function is

        f(beta) = core(beta) + c0*xi_near(beta) + cinf*xi_far(beta) + cconst.

    The constant slot is reserved for mode zero.
    """

    n: int
    core: np.ndarray
    c0: complex = 0.0
    cinf: complex = 0.0
    cconst: complex = 0.0

    def __post_init__(self):
        if self.n != 0 and self.cconst != 0.0:
            raise StructureError(f"constant component forbidden at mode n={self.n}")
        object.__setattr__(self, "core", np.asarray(self.core, dtype=complex))

    @classmethod
    def from_values(
        cls, n: int, values: np.ndarray, value_at_inf: complex, cuts: CutoffSamples
    ) -> "ModeProfile":
        """Canonical split of node values plus an infinity value.

        The far value goes to the constant slot at mode zero and to the
        xi_far slot otherwise; the remaining value at beta = 0 goes to the
        xi_near slot, leaving a core that vanishes at both ends.
        """
        values = np.asarray(values, dtype=complex)
        cconst = complex(value_at_inf) if n == 0 else 0.0
        cinf = 0.0 if n == 0 else complex(value_at_inf)
        c0 = complex(values[0]) - cconst
        core = values - c0 * cuts.xi0 - cinf * cuts.xiinf - cconst
        core[0] = 0.0  # exact by construction; kill the rounding residue
        return cls(n=n, core=core, c0=c0, cinf=cinf, cconst=cconst)

    def values(self, cuts: CutoffSamples) -> np.ndarray:
        return self.core + self.c0 * cuts.xi0 + self.cinf * cuts.xiinf + self.cconst

    @property
    def value_at_inf(self) -> complex:
        return self.cinf + self.cconst

    def extended(self, cuts: CutoffSamples) -> np.ndarray:
        return cuts.grid.extend(self.values(cuts), self.value_at_inf)


def _refined_s(grid: RadialGrid, factor: int) -> np.ndarray:
    """Cosine-uniform refinement of the s-points, endpoints excluded."""
    M = grid.size
    t = np.arange(1, factor * M) / (factor * M)
    return 0.5 * (1.0 - np.cos(np.pi * t))


def _refined_values(grid: RadialGrid, ext: np.ndarray, factor: int) -> np.ndarray:
    """The interpolant through ext at _refined_s(grid, factor), by one FFT.

    The refined points are y_j = cos(pi j / L) with L = factor * M, so the
    values sum_k c_k cos(pi k j / L) are (dct1_j + c_0) / 2 for the DCT-I of
    the coefficients zero-padded from M+1 to L+1.
    """
    M = grid.size
    padded = np.zeros(factor * M + 1, dtype=np.result_type(ext, float))
    padded[: M + 1] = grid.chebyshev_coefficients(ext)
    return 0.5 * (_dct1(padded)[1:-1] + padded[0])


def mode_norm(f: ModeProfile, delta: float, cuts: CutoffSamples) -> float:
    """Direct-sum norm of a mode profile: the core in C_b^delta plus the slots.

    Returns sup max(beta^delta, beta^-delta) |core| + |c0| + |cinf| + |cconst|.
    The supremum is taken over the node values and a four-times denser
    sample of the core's interpolant, taken by one zero-padded DCT-I; a
    core that does not vanish at beta = 0 has an infinite weighted norm.
    """
    grid = cuts.grid
    sref = _refined_s(grid, 4)
    core_ref = _refined_values(grid, grid.extend(f.core, 0.0), 4)
    beta_ref = grid.map_scale * sref / (1.0 - sref)
    wgt = np.maximum(beta_ref**delta, beta_ref**-delta)
    sup = float(np.max(wgt * np.abs(core_ref)))
    b = grid.nodes[1:]
    wnode = np.maximum(b**delta, b**-delta)
    sup = max(sup, float(np.max(wnode * np.abs(f.core[1:]))))
    if abs(f.core[0]) > 0.0:
        return math.inf
    return sup + abs(f.c0) + abs(f.cinf) + abs(f.cconst)


def mode_weight(n):
    """How many lattice modes a stored mode n stands for: 1 at n = 0, else 2.

    A stored mode n > 0 of a real field also stands for its conjugate -n.
    """
    return np.where(np.asarray(n) == 0, 1.0, 2.0)


@dataclass(frozen=True)
class SpectralField:
    """A real scalar field on the chart, stored as its extended mode values.

    values has shape (harmonics + 1, M + 1): row k is mode n_k = N*k at the
    M finite nodes followed by its value at infinity.  The field is
    Re sum_k w_k row_k(beta) e^{i n_k phi} with w_0 = 1 and w_k = 2: the
    modes -n = conj(mode n) of a real field are implied, not stored.
    """

    params: SolverParams
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        want = (self.params.harmonics + 1, self.grid.size + 1)
        if values.shape != want:
            raise StructureError(f"field values have shape {values.shape}, not {want}")
        object.__setattr__(self, "values", values)

    @property
    def grid(self) -> RadialGrid:
        return self.params.grid

    @classmethod
    def base_state(cls, params: SolverParams) -> "SpectralField":
        """The radial power-law base solution: constant profile at mode zero."""
        values = np.zeros((params.harmonics + 1, params.grid.size + 1), dtype=complex)
        values[0] = params.base_stream_constant
        return cls(params=params, values=values)

    def plus(self, other: "SpectralField") -> "SpectralField":
        return replace(self, values=self.values + other.values)

    def scaled(self, a: complex) -> "SpectralField":
        return replace(self, values=a * self.values)


def _few(indices: list) -> str:
    """indices as a list of at most five, with the count of the rest."""
    return f"{indices[:5]} and {len(indices) - 5} more" if len(indices) > 5 else f"{indices}"


@dataclass(frozen=True)
class AngularSignal:
    """A real angular function on the mode lattice N*Z, e.g. the vorticity factor.

    modes has shape (harmonics + 1,): entry k is mode n_k = N*k, and the
    function is Re sum_k w_k a_k e^{i n_k phi} with w_0 = 1 and w_k = 2, as
    for a SpectralField row.  The modes -n = conj(mode n) are implied:
    from_entries reads the two-sided coefficients c_n, entries writes them.
    """

    params: SolverParams
    modes: np.ndarray

    def __post_init__(self):
        modes = np.array(self.modes, dtype=complex)  # its own contiguous copy
        want = (self.params.harmonics + 1,)
        if modes.shape != want:
            raise StructureError(f"angular modes have shape {modes.shape}, not {want}")
        object.__setattr__(self, "modes", modes)

    @classmethod
    def from_entries(cls, params: SolverParams, entries, what: str = "omega") -> "AngularSignal":
        """The factor Re sum c_n e^{i n phi} of two-sided entries (n, c_n).

        A pair n, -n gives a_k = c_n, a lone n c_n / 2 and a lone -n
        conj(c_-n) / 2; no pair is summed.  StructureError, naming `what`,
        refuses a mode off the lattice n = N k, |k| <= harmonics, a non-finite
        coefficient, a mode listed twice, an imaginary mode 0 or a -n entry
        that is not the conjugate of the n entry.
        """
        N = params.N
        entries = [(n, complex(c)) for n, c in entries]
        if off := sorted(n for n, _ in entries if n % N != 0 or abs(n) > N * params.harmonics):
            raise StructureError(f"{what} has modes {_few(off)} off the lattice of N={N}")
        if bad := sorted(n for n, c in entries if not np.isfinite(c)):
            raise StructureError(f"{what} has non-finite coefficients at modes {_few(bad)}")
        coeffs: dict[int, complex] = {}
        for n, c in entries:
            if int(n) in coeffs:
                raise StructureError(f"{what} lists mode {int(n)} twice")
            coeffs[int(n)] = c
        if coeffs.get(0, 0j).imag != 0.0:
            raise StructureError(f"{what} mode 0 must be real, got {coeffs[0]}")
        modes = np.zeros(params.harmonics + 1, dtype=complex)
        for n, c in coeffs.items():
            if -n not in coeffs:  # a lone entry is half of its real part
                modes[abs(n) // N] = (c if n > 0 else c.conjugate()) / 2
            elif n > 0 and coeffs[-n] != c.conjugate():
                raise StructureError(f"{what} mode {-n} must be the conjugate of mode {n} for a "
                                     f"real angular factor: {coeffs[-n]} != {c.conjugate()}")
            elif n >= 0:
                modes[n // N] = c
        return cls(params, modes + 0.0)  # + 0.0 drops the sign of a zero, as from a conjugate

    def entries(self) -> list[tuple[int, complex]]:
        """The nonzero two-sided coefficients (n, c_n) ascending in n, c_0 = Re a_0,
        c_n = a_k and c_-n = conj(a_k): from_entries gives the factor back."""
        pos = [(n, a) for n, a in zip(self.params.mode_indices.tolist(), self.modes.tolist()) if a]
        # 0.0 - im, not -im: the conjugate of a real mode is written with +0.0
        neg = [(-n, complex(a.real, 0.0 - a.imag)) for n, a in reversed(pos) if n]
        return neg + [(n, complex(a.real) if n == 0 else a) for n, a in pos]

    def on(self, params: SolverParams, what: str) -> "AngularSignal":
        """This factor on params' lattice, or ParameterError naming its modes off it."""
        n = self.params.mode_indices[self.modes != 0]
        if off := n[(n % params.N != 0) | (n > params.N * params.harmonics)].tolist():
            both = sorted([-m for m in off] + off)
            raise ParameterError(f"{what} has modes {_few(both)} off the lattice of N={params.N}")
        modes = np.zeros(params.harmonics + 1, dtype=complex)
        modes[n // params.N] = self.modes[self.modes != 0]
        return AngularSignal(params, modes)

    @classmethod
    def base(cls, params: SolverParams) -> "AngularSignal":
        return cls(params, np.r_[params.base_omega, np.zeros(params.harmonics)])

    @classmethod
    def constant_plus_cosine(
        cls, params: SolverParams, amplitude: float, harmonic: int | None = None
    ) -> "AngularSignal":
        """base constant + amplitude*cos(harmonic*phi)."""
        h, N, K = params.N if harmonic is None else int(harmonic), params.N, params.harmonics
        if h % N != 0 or h == 0 or abs(h) > N * K:
            raise ParameterError(f"harmonic {h} is not a nonzero multiple of N={N} up to N*{K}")
        modes = cls.base(params).modes
        modes[abs(h) // N] = amplitude / 2.0
        return cls(params, modes)

    def values(self, phi) -> np.ndarray:
        phi = np.asarray(phi, dtype=float)
        out = np.full(phi.shape, self.modes[0].real)
        for n, a in zip(self.params.mode_indices[1:].tolist(), self.modes[1:].tolist()):
            if a:
                out += (2.0 * a * np.exp(1j * n * phi)).real
        return out

    def seminorm(self) -> float:
        """A^(-1/2) sum excluding the mean mode."""
        return replace(self, modes=np.r_[0.0, self.modes[1:]]).a_norm(-0.5)

    def a_norm(self, s: float) -> float:
        n = self.params.mode_indices
        return float(np.sum(mode_weight(n) * bracket(n) ** s * np.abs(self.modes)))

    def lp_norm(self, p: float) -> float:
        """L^p norm over the circle by dense quadrature on 4096 points of one period."""
        phi = self.params.period * np.arange(4096) / 4096
        return float((2.0 * np.pi * np.mean(np.abs(self.values(phi)) ** p)) ** (1.0 / p))

    def plus(self, other: "AngularSignal") -> "AngularSignal":
        return replace(self, modes=self.modes + other.modes)

    def scaled(self, a: complex) -> "AngularSignal":
        return replace(self, modes=a * self.modes)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def field_to_json(field_: SpectralField) -> dict:
    """JSON document for a spectral field, grid nodes included.

    Each stored mode n carries its row of extended values as [re, im] pairs:
    the M finite nodes, then the value at infinity.
    """
    return {
        **asdict(field_.params),
        "grid_nodes": [float(b) for b in field_.grid.nodes],
        "modes": [
            {"n": int(n), "values": np.stack([row.real, row.imag], axis=-1).tolist()}
            for n, row in zip(field_.params.mode_indices, field_.values)
        ],
    }


def _finite(values: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(values).all():
        raise ValueError(f"{what} hold a non-finite number")
    return values


def field_from_json(doc: dict) -> SpectralField:
    """The spectral field of a field_to_json document; other keys are ignored.

    The rows are read back unchanged.  It raises ValueError when the saved
    grid_nodes are not its own grid's, to 1e-12 relative, when the modes are
    not the stored ones, each listed once, or when a row is not M+1 finite
    [re, im] pairs.  The node and mode counts are checked against the
    document's sizes before anything of those sizes is formed.
    """
    for key in ("N", "harmonics", "grid_points"):
        if type(doc[key]) is not int:
            raise ValueError(f"{key} is not an integer")
    params = SolverParams(**{f.name: doc[f.name] for f in fields(SolverParams)})
    nodes = _finite(np.asarray(doc["grid_nodes"], dtype=float), "grid_nodes")
    if nodes.shape != (params.grid_points,):
        raise ValueError(f"{nodes.size} grid_nodes for grid.points = {params.grid_points}")
    modes = doc["modes"]
    if len(modes) != params.harmonics + 1:
        raise StructureError(
            f"{len(modes)} modes for harmonics = {params.harmonics}, "
            f"which stores {params.harmonics + 1}"
        )
    grid = params.grid
    if not np.allclose(nodes, grid.nodes, rtol=1e-12, atol=0.0):
        raise ValueError(
            f"grid_nodes are not those of grid.points = {params.grid_points}, "
            f"grid.scale = {params.grid_scale}"
        )
    # with len(modes) entries, none is missing only if each is listed once
    missing = len(set(params.mode_indices.tolist()) - {int(entry["n"]) for entry in modes})
    if missing:
        raise StructureError(
            f"the modes are not the stored n = N k, k = 0..{params.harmonics}, each once: "
            f"{missing} of them are missing"
        )
    values = np.empty((len(modes), grid.size + 1), dtype=complex)
    for entry in modes:
        n = int(entry["n"])
        pairs = np.array(entry["values"], dtype=float)
        if pairs.shape != (grid.size + 1, 2):
            raise StructureError(
                f"mode {n} values are not {grid.size + 1} [re, im] pairs, "
                f"one per grid point and one at infinity"
            )
        values[n // params.N] = _finite(pairs, f"mode {n} values").view(complex)[:, 0]
    return SpectralField(params=params, values=values)
