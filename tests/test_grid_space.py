import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spiral_euler import (
    AngularSignal,
    ModeProfile,
    ParameterError,
    SolverParams,
    SpectralField,
    StructureError,
    bracket,
    build_grid,
    cutoff_normalization,
    field_from_json,
    field_to_json,
    mode_norm,
    xi_far,
    xi_near,
)
from spiral_euler.grid_space import (
    _XI_BLOCK,
    _bump_cumulative_table,
    bump,
    gauss_legendre,
    mollifier_bump,
)


def test_grid_basic_shape():
    grid = build_grid(257, 1.0)
    assert grid.nodes[0] == 0.0
    assert np.all(np.diff(grid.nodes) > 0)
    assert np.isfinite(grid.nodes[-1])


def test_grid_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        build_grid(8, 1.0)
    with pytest.raises(ParameterError):
        build_grid(64, 0.0)
    with pytest.raises(ParameterError):
        build_grid(64, -2.0)


def test_params_validation():
    with pytest.raises(ParameterError):
        SolverParams(mu=0.5, N=8)
    with pytest.raises(ParameterError):
        SolverParams(mu=1.0, N=1)
    p = SolverParams(mu=0.7, N=8)
    assert p.delta == pytest.approx(0.5 * min(2 * 0.7 - 1, 1), abs=1e-15)


def test_cutoff_support(desk_cuts):
    assert xi_near(np.array([0.5]))[0] == 1.0
    assert xi_near(np.array([3.0]))[0] == 0.0
    assert xi_far(np.array([0.5]))[0] == 0.0
    assert xi_far(np.array([3.0]))[0] == 1.0


def test_cutoff_normalization_constant():
    assert abs(cutoff_normalization() - 142.25034) < 1e-4


def test_cutoff_normalization_literal_matches_quadrature():
    # the stored literal against the double-precision quadrature it replaced
    # and the 40-digit integral, correctly rounded
    import mpmath
    from scipy.integrate import quad

    C = cutoff_normalization()
    total, _ = quad(lambda b: float(mollifier_bump(b)), 1.0, 2.0, epsabs=1e-15, epsrel=1e-14)
    assert C == 1.0 / total
    with mpmath.workdps(40):
        bump = lambda b: mpmath.exp(1 / ((b - mpmath.mpf(3) / 2) ** 2 - mpmath.mpf(1) / 4))
        exact = 1 / mpmath.quad(bump, [1, 1.5, 2])
        assert abs(mpmath.mpf(C) - exact) <= np.spacing(C)


def test_cutoff_bump_maximum():
    peak = cutoff_normalization() * float(mollifier_bump(np.array([1.5]))[0])
    assert abs(peak - 2.60541) < 1e-4


def test_bump_matches_former_closed_forms():
    # the closed forms the cutoffs were built from before the one bump:
    # exp(1/q) and its derivative, q = (beta - 3/2)^2 - 1/4 on (1, 2)
    beta = np.concatenate(
        [np.linspace(0.5, 2.5, 40001), np.nextafter([1.0, 1.0, 2.0, 2.0], [0.0, 2.0, 1.0, 3.0])]
    )
    assert np.any(beta == 1.0) and np.any(beta == 2.0)
    m = (beta > 1.0) & (beta < 2.0)
    x = beta[m] - 1.5
    q = x * x - 0.25
    value, deriv = np.zeros_like(beta), np.zeros_like(beta)
    value[m] = np.exp(1.0 / q)
    deriv[m] = np.exp(1.0 / q) * (-2.0 * x / (q * q))
    y, yp = bump(beta)
    assert np.array_equal(y, value)
    assert np.array_equal(yp, deriv)
    assert np.array_equal(mollifier_bump(beta), value)


def _xi_far_in_one_call(beta):
    """The former xi_far: every point's bump quadrature in one call."""
    beta = np.asarray(beta, dtype=float)
    edges, cum = _bump_cumulative_table()
    gx, gw = gauss_legendre(16)
    out = np.zeros_like(beta)
    out[beta >= 2.0] = 1.0
    m = (beta > 1.0) & (beta < 2.0)
    if np.any(m):
        b = beta[m]
        idx = np.minimum(((b - 1.0) * 4096).astype(int), 4095)
        lo = edges[idx]
        half = 0.5 * (b - lo)
        x = (lo + half)[:, None] + half[:, None] * gx[None, :]
        rest = half * np.sum(mollifier_bump(x) * gw[None, :], axis=1)
        out[m] = cum[idx] + rest * cutoff_normalization()
    return out


def test_blocked_xi_far_equals_one_call(prod_grid):
    # the cutoff table's sample, whose support points span many blocks, and
    # supports that end one point before, at and one point after a block edge
    beta = np.unique(
        np.concatenate(
            [
                np.geomspace(1e-6, 1e6, 4096),
                np.linspace(0.5, 2.5, 16 * 4096),
                prod_grid.nodes[prod_grid.nodes > 0],
            ]
        )
    )
    support = beta[(beta > 1.0) & (beta < 2.0)]
    assert len(support) > 4 * _XI_BLOCK
    edge = [support[: k * _XI_BLOCK + d] for k in (1, 2) for d in (-1, 0, 1)]
    for sample in [beta] + edge:
        new, old = xi_far(sample), _xi_far_in_one_call(sample)
        assert np.array_equal(new, old)
        assert np.array_equal(new.view(np.uint64), old.view(np.uint64))


def test_cutoff_partition_of_unity(desk_cuts):
    assert np.max(np.abs(desk_cuts.xi0 + desk_cuts.xiinf - 1.0)) < 1e-12


def test_cutoff_bump_integral_is_one():
    # integral of the normalized bump over its support
    x, w = gauss_legendre(200)
    xs = 1.5 + 0.5 * x
    total = 0.5 * np.sum(w * cutoff_normalization() * mollifier_bump(xs))
    assert abs(total - 1.0) < 1e-8


def test_gauss_legendre_rule_is_formed_once_and_read_only():
    # every quadrature shares one rule per n, so no caller may write to it
    from numpy.polynomial.legendre import leggauss

    x, w = gauss_legendre(40)
    assert gauss_legendre(40)[0] is x
    assert not x.flags.writeable and not w.flags.writeable
    for ours, theirs in zip((x, w), leggauss(40)):
        assert np.array_equal(ours, theirs)


def test_mode_norm_pure_slot_components(desk_cuts):
    M = desk_cuts.grid.size
    f = ModeProfile(0, np.zeros(M), c0=2.0 + 0.0j)
    assert mode_norm(f, 0.5, desk_cuts) == pytest.approx(2.0)
    g = ModeProfile(0, np.zeros(M), cconst=1.0)
    assert mode_norm(g, 0.5, desk_cuts) == pytest.approx(1.0)


def test_mode_norm_weighted_core_against_dense_oracle(desk_cuts):
    grid = desk_cuts.grid
    delta = 0.5
    b = grid.nodes
    core = b**delta * np.exp(-b)
    f = ModeProfile(3, core.astype(complex))
    reported = mode_norm(f, delta, desk_cuts)
    # independent dense-sampling supremum of the weighted interpolant; the
    # two sample sets may disagree by the documented 1% sampling factor
    sdense = np.linspace(1e-6, 1.0 - 1e-9, 20001)
    bdense = grid.map_scale * sdense / (1.0 - sdense)
    coeffs = grid.chebyshev_coefficients(grid.extend(core, 0.0))
    vals = grid.evaluate_coefficients(coeffs, grid.s_of_beta(bdense))
    oracle = np.max(np.maximum(bdense**delta, bdense**-delta) * np.abs(vals))
    node_sup = np.max(
        np.maximum(b[1:] ** delta, b[1:] ** -delta) * np.abs(core[1:])
    )
    assert reported >= node_sup - 1e-12
    assert oracle <= 1.01 * reported
    assert reported <= 1.01 * oracle


def test_mode_norm_refinement_invariant(desk_cuts):
    # 10x refined sampling never beats the reported value by more than 1%
    grid = desk_cuts.grid
    delta = 0.4
    rng = np.random.default_rng(5)
    t = np.arange(1, 10 * grid.size) / (10 * grid.size)
    sref = 0.5 * (1.0 - np.cos(np.pi * t))
    bref = grid.map_scale * sref / (1.0 - sref)
    wref = np.maximum(bref**delta, bref**-delta)
    for trial in range(5):
        co = rng.standard_normal(6) * np.exp(-np.arange(6))
        b = grid.nodes
        core = np.polynomial.chebyshev.chebval(1 - 2 * grid.s_of_beta(b), co)
        env = np.zeros_like(b)
        env[b > 0] = np.minimum(b[b > 0] ** delta, b[b > 0] ** -delta)
        core = core * env
        f = ModeProfile(0, core.astype(complex))
        reported = mode_norm(f, delta, desk_cuts)
        coeffs = grid.chebyshev_coefficients(grid.extend(core, 0.0))
        vals = grid.evaluate_coefficients(coeffs, grid.s_of_beta(bref))
        refined = float(np.max(wref * np.abs(vals)))
        assert refined <= 1.01 * reported


def test_mode_profile_constant_slot_reserved():
    with pytest.raises(StructureError):
        ModeProfile(8, np.zeros(4), cconst=1.0)


def test_a_norm_single_coefficient(desk_params):
    sig = AngularSignal.from_entries(desk_params, {desk_params.N: 1.0}.items())
    expected = bracket(desk_params.N) ** 0.5
    assert sig.a_norm(0.5) == pytest.approx(expected)


def test_base_angular_seminorm_is_zero(desk_params):
    assert AngularSignal.base(desk_params).seminorm() == 0.0


@st.composite
def _two_sided_entries(draw):
    """Params with K <= 8 and the two-sided entries (n, c_n) of a real factor
    on their lattice: conjugate pairs, lone n and lone -n, in any order."""
    K = draw(st.integers(1, 8))
    params = SolverParams(mu=1.0, N=draw(st.sampled_from([2, 8, 4000])), harmonics=K)
    part = st.floats(-1e3, 1e3)
    entries = [(0, complex(draw(part)))] if draw(st.booleans()) else []
    for k in range(1, K + 1):
        n, c = params.N * k, complex(draw(part), draw(part))
        entries += draw(st.sampled_from([[], [(n, c), (-n, c.conjugate())], [(n, c)], [(-n, c)]]))
    draw(st.randoms()).shuffle(entries)
    return params, entries


@settings(max_examples=200, deadline=None, derandomize=True)
@given(drawn=_two_sided_entries())
def test_angular_factor_matches_the_two_sided_sums(drawn):
    # the former dict form summed over every entry (n, c_n); the stored modes
    # k >= 0 give the same function and norms to a few ulp of sum |c_n|
    params, entries = drawn
    x = AngularSignal.from_entries(params, entries)
    eps = np.finfo(float).eps
    phi = np.linspace(0.0, 2.0 * np.pi, 97)
    want = sum((c * np.exp(1j * n * phi) for n, c in entries), np.zeros(97, complex)).real
    scale = sum(abs(c) for _, c in entries)
    assert np.max(np.abs(x.values(phi) - want), initial=0.0) <= 8 * eps * scale
    semi = sum(abs(c) / math.sqrt(bracket(n)) for n, c in entries if n != 0)
    assert abs(x.seminorm() - semi) <= 8 * eps * semi
    for s in (-0.5, 0.5):
        norm = sum(bracket(n) ** s * abs(c) for n, c in entries)
        assert abs(x.a_norm(s) - norm) <= 8 * eps * norm
    # entries() gives the factor back, bit for bit
    y = AngularSignal.from_entries(params, x.entries())
    assert y.params == x.params and y.modes.tobytes() == x.modes.tobytes()


def test_lone_entries_fold_without_overflow(desk_params):
    N = desk_params.N
    pair = AngularSignal.from_entries(desk_params, [(N, 1e308), (-N, 1e308)])
    lone = AngularSignal.from_entries(desk_params, [(-N, 1e308 + 2e307j)])
    assert pair.modes.tolist() == [0.0, 1e308, 0.0, 0.0]
    assert lone.modes.tolist() == [0.0, 5e307 - 1e307j, 0.0, 0.0]
    assert lone.entries() == [(-N, 5e307 + 1e307j), (N, 5e307 - 1e307j)]


@pytest.mark.parametrize("entries, message", [
    ([(3, 1.0)], "omega has modes [3] off the lattice of N=8"),
    ([(32, 1.0), (-32, 1.0)], "omega has modes [-32, 32] off the lattice of N=8"),
    ([(8 * k + 1, 1.0) for k in range(2000)],
     "omega has modes [1, 9, 17, 25, 33] and 1995 more off the lattice of N=8"),
    ([(8, float("nan"))] * 2000,
     "omega has non-finite coefficients at modes [8, 8, 8, 8, 8] and 1995 more"),
    ([(8, 1.0), (8.0, 1.0)], "omega lists mode 8 twice"),
    ([(0, 1j)], "omega mode 0 must be real, got 1j"),
    ([(8, 1j), (-8, 1j)], "omega mode -8 must be the conjugate of mode 8"),
])
def test_from_entries_refuses_what_is_no_real_factor(desk_params, entries, message):
    with pytest.raises(StructureError) as err:
        AngularSignal.from_entries(desk_params, entries)
    assert str(err.value).startswith(message)


def test_angular_factor_moves_to_a_finer_lattice():
    # an N = 4 factor whose modes sit on the N = 8 lattice is re-indexed there
    P4, P8 = SolverParams(mu=1.0, N=4), SolverParams(mu=1.0, N=8)
    on = AngularSignal.constant_plus_cosine(P4, 0.01, harmonic=8).on(P8, "omega")
    assert on.params == P8 and on.modes.tolist() == [1.0, 0.005, 0.0, 0.0]
    with pytest.raises(ParameterError, match=r"omega has modes \[-4, 4\] off the lattice of N=8"):
        AngularSignal.constant_plus_cosine(P4, 0.01).on(P8, "omega")


def test_angular_l2_of_cosine(desk_params):
    # || cos(N phi) ||_{L^2} over the circle equals sqrt(pi)
    sig = AngularSignal.from_entries(desk_params, {desk_params.N: 0.5, -desk_params.N: 0.5}.items())
    assert sig.lp_norm(2.0) == pytest.approx(math.sqrt(math.pi), rel=1e-10)


def _profile(field, k, cuts):
    """Row k of a field split into its ModeProfile slots."""
    row = field.values[k]
    return ModeProfile.from_values(int(field.params.mode_indices[k]), row[:-1], row[-1], cuts)


def test_mode_norm_homogeneity_and_triangle(desk_params, desk_cuts):
    from conftest import random_field

    rng = np.random.default_rng(11)
    delta = desk_params.delta
    for trial in range(3):
        F = random_field(desk_params, seed=trial)
        G = random_field(desk_params, seed=trial + 50)
        a = float(rng.uniform(0.1, 3.0))
        for k in range(len(desk_params.mode_indices)):
            norm = lambda field: mode_norm(_profile(field, k, desk_cuts), delta, desk_cuts)
            nF, nG = norm(F), norm(G)
            scaled = norm(F.scaled(a))
            assert scaled == pytest.approx(a * nF, rel=1e-12)
            assert norm(F.plus(G)) <= (nF + nG) * (1 + 1e-12)


def test_serialization_round_trip(desk_params):
    from conftest import random_field

    F = random_field(desk_params, seed=9)
    doc = field_to_json(F)
    G = field_from_json(doc)
    assert np.array_equal(F.values, G.values)
    assert field_to_json(G) == doc
    assert doc["grid_nodes"][0] == 0.0


@pytest.mark.parametrize("solution", ["desk_solution", "prod_solution"])
def test_field_json_round_trip_of_a_solved_field(request, solution):
    # field.json stores each row's extended values: a solved field comes
    # back bit for bit
    F = request.getfixturevalue(solution)[0]
    G = field_from_json(json.loads(json.dumps(field_to_json(F))))
    assert np.array_equal(G.values, F.values)


def test_one_grid_per_parameter_set(desk_params, desk_grid, prod_params, prod_grid):
    # the grid is built once per SolverParams; equality, hashing and asdict
    # still see only the five fields
    assert desk_grid is desk_params.grid and prod_grid is prod_params.grid
    assert SpectralField.base_state(desk_params).grid is desk_params.grid
    twin = SolverParams(mu=1.0, N=8, grid_points=96)
    assert twin == desk_params and hash(twin) == hash(desk_params)
    assert twin.grid is not desk_params.grid
    assert np.array_equal(twin.grid.nodes, desk_params.grid.nodes)
    assert set(asdict(desk_params)) == {"mu", "N", "harmonics", "grid_points", "grid_scale"}


def test_field_json_round_trip_keeps_a_scaled_grid():
    from conftest import random_field

    params = SolverParams(mu=1.5, N=8, grid_points=64, grid_scale=2.0)
    F = random_field(params, seed=4)
    G = field_from_json(json.loads(json.dumps(field_to_json(F))))
    assert G.params == params
    assert np.array_equal(G.grid.nodes, F.grid.nodes)
    assert np.array_equal(G.values, F.values)
    assert field_to_json(G) == field_to_json(F)


def test_field_json_off_its_own_grid_is_rejected(desk_params):
    # a field solved on one grid and saved with another grid's parameters
    # would reload onto the wrong nodes
    from conftest import random_field

    doc = field_to_json(random_field(desk_params, seed=9))
    with pytest.raises(ValueError, match="grid.points = 96, grid.scale = 2.0"):
        field_from_json({**doc, "grid_scale": 2.0})
    with pytest.raises(ValueError, match="grid_nodes"):
        field_from_json({**doc, "grid_nodes": doc["grid_nodes"][:-1]})
    # rounding below 1e-12 relative still loads
    field_from_json({**doc, "grid_nodes": [b * (1.0 + 1e-14) for b in doc["grid_nodes"]]})


def test_field_json_carrying_p_still_loads(desk_params):
    # field_to_json writes no integrability exponent "p"; a file that
    # carries one, even outside [1, 2 mu), loads the same field
    from conftest import random_field

    F = random_field(desk_params, seed=9)
    doc = field_to_json(F)
    assert "p" not in doc
    G = field_from_json({**doc, "p": 2.5})
    assert G.params == F.params
    assert np.array_equal(G.values, F.values)


def test_base_state_values(desk_params, desk_cuts):
    base = SpectralField.base_state(desk_params)
    prof = _profile(base, 0, desk_cuts)
    assert prof.cconst == pytest.approx(1.0 / (2 * desk_params.mu - 1))
    assert np.all(prof.core == 0)
    vals = prof.values(desk_cuts)
    assert np.max(np.abs(vals - prof.cconst)) == 0.0


def _dense_clenshaw(coeffs, s):
    """The plain Clenshaw recurrence over every coefficient of every row."""
    y = 1.0 - 2.0 * np.asarray(s, dtype=float)
    lead = coeffs.shape[:-1]
    yb = y[(None,) * len(lead) + (...,)]
    b1 = np.zeros(lead + y.shape, dtype=coeffs.dtype)
    b2 = np.zeros(lead + y.shape, dtype=coeffs.dtype)
    for k in range(coeffs.shape[-1] - 1, 0, -1):
        ck = coeffs[..., k][(...,) + (None,) * y.ndim]
        b1, b2 = ck + 2.0 * yb * b1 - b2, b1
    return coeffs[..., 0][(...,) + (None,) * y.ndim] + yb * b1 - b2


@settings(max_examples=80, deadline=None)
@given(
    lead=st.lists(st.integers(1, 4), max_size=2),
    width=st.integers(1, 40),
    points=st.lists(st.integers(1, 6), max_size=2),
    complex_rows=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_ragged_clenshaw_bit_identical_to_dense(
    desk_grid, lead, width, points, complex_rows, seed, data
):
    # zero-padded stacks: every row gets its own nonzero length, 0 included
    rng = np.random.default_rng(seed)
    shape = tuple(lead) + (width,)
    coeffs = rng.standard_normal(shape)
    if complex_rows:
        coeffs = coeffs + 1j * rng.standard_normal(shape)
    rows = int(np.prod(lead))
    lengths = data.draw(st.lists(st.integers(0, width), min_size=rows, max_size=rows))
    mask = np.arange(width) >= np.reshape(lengths, tuple(lead) + (1,))
    coeffs[mask] = 0.0
    s = rng.uniform(0.0, 1.0, tuple(points))
    got = desk_grid.evaluate_coefficients(coeffs, s)
    want = _dense_clenshaw(coeffs, s)
    assert got.shape == want.shape == tuple(lead) + tuple(points)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


_DCT_GRIDS = {}


@settings(max_examples=60, deadline=None)
@given(
    M=st.sampled_from([16, 17, 33, 96, 257, 513, 1024]),
    lead=st.lists(st.integers(1, 3), max_size=2),
    complex_values=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_chebyshev_coefficients_equal_scipy_dct(M, lead, complex_values, seed):
    # the numpy transform against scipy's DCT-I, which it replaced
    from scipy.fft import dct

    if M not in _DCT_GRIDS:
        _DCT_GRIDS[M] = build_grid(M, 1.0)
    rng = np.random.default_rng(seed)
    shape = tuple(lead) + (M + 1,)
    ext = rng.standard_normal(shape) * np.exp(rng.uniform(-10.0, 10.0, shape))
    if complex_values:
        ext = ext + 1j * rng.standard_normal(shape)
    want = dct(ext, type=1, axis=-1) / M
    want[..., 0] *= 0.5
    want[..., -1] *= 0.5
    got = _DCT_GRIDS[M].chebyshev_coefficients(ext)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("M", [96, 257])
def test_refined_values_match_clenshaw(M):
    # the zero-padded DCT-I against the Clenshaw recurrence at the same
    # four-times refined points, on the certificate's random cores
    from spiral_euler.certifier import _random_core
    from spiral_euler.grid_space import _refined_s, _refined_values

    grid = build_grid(M, 1.0)
    rng = np.random.default_rng(3)
    for _ in range(20):
        ext = _random_core(rng, grid, 0.5)
        want = grid.evaluate_coefficients(grid.chebyshev_coefficients(ext), _refined_s(grid, 4))
        got = _refined_values(grid, ext, 4)
        assert got.shape == want.shape == (4 * M - 1,)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_field_json_missing_parameter_names_the_first(desk_params):
    # the parameters load in SolverParams' field order: mu, N, harmonics,
    # grid_points, grid_scale
    from conftest import random_field

    doc = field_to_json(random_field(desk_params, seed=9))
    for key in ("N", "grid_scale"):
        del doc[key]
    with pytest.raises(KeyError, match="'N'"):
        field_from_json(doc)
