"""Evaluation of the full nonlinear operator and its analytic linearization.

The rescaled vorticity-stream equation on the chart reads, written with the
adapted-coordinate derivatives,

    residual = dvarphi_bar( R ) + dphi( S ) + source,

    R = (2 A B / C) (1 + (D / 2A)^2) - D E / (2 A)
    S = (C E - D B) / (2 A)
    source = C * B^(-1/(2 mu)) * Omega(phi) / (2 mu)

where A = dbeta_bar psi, B = dvarphi_bar psi, C = (dvarphi_bar + 1) dbeta_bar
psi, D = dphi dbeta_bar psi, E = dphi psi.  A solution of residual = 0 yields
a genuine self-similar Euler flow after the chart is undone.

The quotients and the fractional power are evaluated pointwise on an angular
collocation circle and re-projected onto the stored modes n = N k, k >= 0,
of a real field; sign conditions A < 0, B > 0, C < 0 are enforced on the
sample first so every branch is real.

Residual size is reported two ways.  The raw report is the per-mode maximum
over nodes.  The convergence gauge inverts the leading factor D(n, s+) of
the linearization first and takes the weighted sum over the whole lattice
|k| <= K of the preimage supremum, the implied modes -n included; this
matches the norm in which the linearization has a unit isometric part, and
it is insensitive to the harmless growth that the raw values of an
off-solution residual show at the far nodes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DroppedMassWarning, ParameterError, SignConditionError
from .grid_space import AngularSignal, SolverParams, SpectralField, bracket, mode_weight
from .operators import (
    beta_mult_matrix,
    dense_solve,
    derived_fields,
    dvarphi_bar_ext,
    linearization_set,
    mode_operator_matrix,
    shift_minus,
    shift_plus,
)

__all__ = [
    "NonlinearWorkspace",
    "ResidualField",
    "eval_residual",
    "linearization_at_base",
    "fd_derivative_check",
]


class NonlinearWorkspace:
    """Angular transforms and the linearization for one setup.

    The linearization is the one operator stack a workspace holds: the
    gauge forms each D(n, s+-) when it solves and lets it go.
    """

    def __init__(self, params: SolverParams, n_angles: int | None = None):
        K = params.harmonics
        if n_angles is None:
            # 64 covers K <= 15; beyond, the least power of two that dealiases
            n_angles = max(64, 1 << (4 * K).bit_length())
        if n_angles < 4 * K + 1:
            raise ParameterError(f"need at least {4 * K + 1} angles for dealiasing")
        self.params = params
        self.grid = params.grid
        self.n_angles = int(n_angles)
        self.mode_list = [int(n) for n in params.mode_indices]
        # reduced circle: fields are 2*pi/N periodic, so sample Phi = N*phi
        self.Phi = 2.0 * np.pi * np.arange(self.n_angles) / self.n_angles
        self.synth_matrix = mode_weight(self.mode_list)[:, None] * np.exp(
            1j * np.outer(np.arange(K + 1), self.Phi)
        )

    def synth(self, rows: np.ndarray) -> np.ndarray:
        """Real angular samples of stacked mode rows k = 0..K.

        rows has shape (K+1, ...); the result has shape (..., n_angles).
        """
        return np.tensordot(rows, self.synth_matrix, axes=(0, 0)).real

    def project(self, values: np.ndarray) -> tuple[np.ndarray, float]:
        """Project real angular samples (last axis) onto the modes k = 0..K.

        The modes come back as rows shaped like synth's input, (K+1, ...).
        Also returns the dropped mass: the largest modulus of every discarded
        bin, each bin above K counted twice for its conjugate, the Nyquist
        bin of an even sample count once.
        """
        c = np.fft.rfft(values, axis=-1) / self.n_angles
        K = self.params.harmonics
        out = np.moveaxis(c[..., : K + 1], -1, 0)
        dropped = 0.0
        for b in range(K + 1, c.shape[-1]):
            twice = 2 * b != self.n_angles
            dropped += (2.0 if twice else 1.0) * float(np.max(np.abs(c[..., b])))
        return out, dropped

    @cached_property
    def linearization(self) -> np.ndarray:
        """The base-state linearization stack, assembled at its first use."""
        return linearization_set(self.params)

    def preimage_sups(self, res: np.ndarray) -> dict[int, float]:
        """The gauge's terms for the stored modes n >= 0 of a real residual.

        res holds the residual's extended values, one row per stored mode.

        Mode n contributes sup|D(n, s+(n))^-1 r_n|.  For n > 0 the implied
        mode -n contributes sup|D(-n, s+(-n))^-1 conj(r_n)|, which equals
        sup|D(n, s-(n))^-1 r_n| because D(-n, s) = conj(D(n, s)) for real s
        and s+(-n) = s-(n).

        The 2K+1 operators are formed in turn in one buffer, which goes when
        the call returns.  A fresh array for each operator would cost more
        in page faults than forming it does.
        """
        mu = self.params.mu
        size = self.grid.size + 1
        buf = np.empty((size, size), dtype=complex)
        terms = {}
        for n, ext in zip(self.mode_list, res):
            shifts = (shift_plus(mu, n),) if n == 0 else (shift_plus(mu, n), shift_minus(mu, n))
            terms[n] = 0.0
            for s in shifts:
                sol = dense_solve(mode_operator_matrix(self.grid, n, s, out=buf), ext)
                terms[n] += float(np.max(np.abs(sol)))
        return terms


@dataclass(frozen=True)
class ResidualField:
    """Residual of the nonlinear operator with its norm report."""

    field: SpectralField
    norm_report: dict

    @property
    def aggregate(self) -> float:
        return self.norm_report["aggregate"]

    @property
    def raw_max(self) -> float:
        return max(self.norm_report["raw"].values())


_SIGN_CONDITIONS = (
    ("dbeta_bar(psi)", "db", -1.0),  # must stay negative
    ("dvarphi_bar(psi)", "dv", 1.0),  # must stay positive
    ("(dvarphi_bar+1) dbeta_bar(psi)", "lg", -1.0),  # must stay negative
)


def _check_signs(ws: NonlinearWorkspace, named: dict) -> None:
    for label, key, sign in _SIGN_CONDITIONS:
        vals = named[key]
        bad = sign * vals <= 0.0
        if np.any(bad):
            i, a = np.argwhere(bad)[0]
            beta = np.inf if i == ws.grid.size else float(ws.grid.nodes[i])
            raise SignConditionError(label, beta, float(ws.Phi[a] / ws.params.N), float(vals[i, a]))


def eval_residual(
    stream: SpectralField,
    omega: AngularSignal,
    ws: NonlinearWorkspace | None = None,
    preimage_norms: bool = True,
) -> ResidualField:
    """Evaluate the nonlinear operator at (stream profile, angular factor).

    Raises SignConditionError when the iterate leaves the region where the
    quotients and the fractional power are defined.  Harmonics generated
    beyond the retained lattice are dropped; their mass is reported and a
    warning is emitted when it is large relative to the residual.  Without
    preimage_norms the gauge is skipped: the evaluation is a probe, whose
    norms are raw, and it never warns.
    """
    if ws is None:
        ws = NonlinearWorkspace(stream.params)
    params = ws.params
    mu = params.mu
    fields = derived_fields(stream)
    A = ws.synth(fields["db"])
    B = ws.synth(fields["dv"])
    C = ws.synth(fields["lg"])
    D = ws.synth(fields["dpdb"])
    E = ws.synth(fields["dp"])
    _check_signs(ws, {"db": A, "dv": B, "lg": C})

    R = 2.0 * A * B / C * (1.0 + (D / (2.0 * A)) ** 2) - D * E / (2.0 * A)
    S = (C * E - D * B) / (2.0 * A)
    source = C * B ** (-1.0 / (2.0 * mu)) * ws.synth(omega.modes) / (2.0 * mu)

    Rm, dropR = ws.project(R)
    Sm, dropS = ws.project(S)
    Qm, dropQ = ws.project(source)

    res = np.empty_like(fields["psi"])
    for k, n in enumerate(ws.mode_list):
        res[k] = dvarphi_bar_ext(ws.grid, mu, n, Rm[k]) + 1j * n * Sm[k] + Qm[k]

    raw = {n: float(np.max(np.abs(row[:-1]))) for n, row in zip(ws.mode_list, res)}
    if preimage_norms:
        zmode = ws.preimage_sups(res)
    else:
        zmode = {n: float(mode_weight(n)) * raw[n] for n in ws.mode_list}
    aggregate = float(sum(bracket(n) ** 0.5 * zmode[n] for n in ws.mode_list))
    dropped = dropR + dropS + dropQ
    scale = max(aggregate, max(raw.values()), 1e-300)
    # the angular transforms leave a noise floor proportional to the size of
    # the projected fields themselves, so gate the warning on both scales
    input_scale = max(
        float(np.max(np.abs(R))), float(np.max(np.abs(S))), float(np.max(np.abs(source)))
    )
    gate = 1e-8
    if preimage_norms and dropped > gate * scale and dropped > 1e-10 * input_scale:
        warnings.warn(DroppedMassWarning(dropped, gate, scale), stacklevel=2)

    report = {"raw": raw, "preimage": zmode, "aggregate": aggregate, "dropped_mass": dropped}
    return ResidualField(field=SpectralField(params=params, values=res), norm_report=report)


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
