"""Flat dotted-key run configuration: parsing, validation, canonical echo."""

from __future__ import annotations

import hashlib
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, ParameterError, StructureError
from .grid_space import AngularSignal, SolverParams
from .physical import VERIFY_SUITES

__all__ = ["RunConfig", "load_config", "parse_config_text"]

# every key once: its type and its default (None: required, or filled from N)
_KEYS = {
    "mu": (float, None),
    "N": (int, None),
    "harmonics": (int, 3),
    "grid.points": (int, 257),
    "grid.scale": (float, 1.0),
    "seed": (int, 42),
    "omega.kind": (str, "constant_plus_cos"),
    "omega.amplitude": (float, 0.01),
    "omega.harmonic": (int, None),
    "omega.coeffs": (str, ""),
    "target.amplitude": (float, 0.01),
    "target.harmonic": (int, None),
    "solver.tol": (float, 1e-10),
    "solver.max_iter": (int, 100),
    "solver.backend": (str, "chord"),
    "solver.epsilon_cap": (float, 0.1),
    "verify.suites": (str, "selfsim,lp,weak,divfree,poisson"),
    "reconstruct.t": (float, 1.0),
    "reconstruct.samples": (int, 200),
}

# the keys only one omega.kind reads; a file that sets another kind's key is refused
_KIND_KEYS = {
    "constant_plus_cos": ("omega.amplitude", "omega.harmonic"),
    "coeffs": ("omega.coeffs",),
    "match": ("target.amplitude", "target.harmonic"),
}


@dataclass(frozen=True)
class RunConfig:
    """Validated run configuration with all defaults filled.

    Construction validates every value and raises ConfigError on the first
    that is out of range.
    """

    values: dict
    params: SolverParams = field(compare=False, default=None)  # type: ignore[assignment]

    def __post_init__(self):
        values = self.values
        try:
            params = SolverParams(
                mu=values["mu"],
                N=values["N"],
                harmonics=values["harmonics"],
                grid_points=values["grid.points"],
                grid_scale=values["grid.scale"],
            )
        except ParameterError as exc:
            raise ConfigError(f"invalid parameters: {exc}") from exc
        object.__setattr__(self, "params", params)
        top = params.N * params.harmonics
        for key in ("omega.harmonic", "target.harmonic"):
            h = values[key]
            if h % values["N"] != 0 or h == 0:
                raise ConfigError(f"{key} = {h} is not a nonzero multiple of N = {values['N']}")
            if abs(h) > top:
                raise ConfigError(f"{key} = {h} lies past N * harmonics = {top}")
        if values["omega.kind"] not in ("constant_plus_cos", "coeffs", "match"):
            raise ConfigError(f"omega.kind must be constant_plus_cos, coeffs or match")
        if values["solver.backend"] not in ("chord", "fd"):
            raise ConfigError(f"solver.backend must be chord or fd")
        for key in ("seed", "solver.max_iter"):
            if values[key] < 0:
                raise ConfigError(f"{key} must be non-negative, got {values[key]}")
        for key in ("reconstruct.samples", "reconstruct.t", "solver.tol", "solver.epsilon_cap"):
            if not values[key] > 0:  # rejects nan too
                raise ConfigError(f"{key} must be positive, got {values[key]}")
        if (n := values["reconstruct.samples"]) > sys.maxsize // 16:  # an (n, 2) float array
            raise ConfigError(f"reconstruct.samples = {n} is more points than an array holds")
        for key in sorted(k for k, (kind, _) in _KEYS.items() if kind is float):
            # an infinite reconstruct.t would put x * t^(-mu) at the origin,
            # which the chart does not cover
            if not math.isfinite(values[key]):
                raise ConfigError(f"{key} must be finite, got {values[key]}")
        suites = [s for s in values["verify.suites"].split(",") if s]
        if not suites:
            raise ConfigError("verify.suites must name at least one suite")
        unknown = [s for s in suites if s not in VERIFY_SUITES]
        if unknown:
            raise ConfigError(
                f"verify.suites: unknown suites {unknown}; known: {','.join(VERIFY_SUITES)}"
            )
        repeated = sorted({s for s in suites if suites.count(s) > 1})
        if repeated:
            raise ConfigError(f"verify.suites names {repeated} more than once")
        _coeffs_factor(params, values["omega.coeffs"])

    def __getitem__(self, key: str):
        return self.values[key]

    def omega(self) -> AngularSignal:
        kind = self.values["omega.kind"]
        if kind == "constant_plus_cos":
            return AngularSignal.constant_plus_cosine(
                self.params, self.values["omega.amplitude"], self.values["omega.harmonic"]
            )
        if kind == "coeffs":
            return _coeffs_factor(self.params, self.values["omega.coeffs"])
        raise ConfigError("omega.kind = match has no direct angular factor; use solve")

    def target(self) -> AngularSignal:
        from .solver import base_vorticity_factor

        w0 = base_vorticity_factor(self.params.mu)
        h = self.values["target.harmonic"]
        amp = self.values["target.amplitude"] * w0
        return AngularSignal.constant_plus_cosine(self.params, amp, h).plus(
            AngularSignal.from_entries(self.params, [(0, w0 - self.params.base_omega)])
        )

    def effective_text(self) -> str:
        """Canonical echo: sorted key = value lines."""
        lines = [f"{k} = {self.values[k]}" for k in sorted(self.values)]
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        """Hash of the canonical echo.  No key names an output location, so
        identical settings give byte-identical artifacts wherever they land."""
        return hashlib.sha256(self.effective_text().encode()).hexdigest()[:16]


def _coeffs_factor(params: SolverParams, text: str) -> AngularSignal:
    """The angular factor of the comma-separated omega.coeffs entries n:re:im."""
    entries = []
    for chunk in filter(None, (chunk.strip() for chunk in text.split(","))):
        try:
            n_s, re_s, im_s = chunk.split(":")
            entries.append((int(n_s), complex(float(re_s), float(im_s))))
        except ValueError:
            raise ConfigError(f"omega.coeffs entry {chunk!r} is not n:re:im") from None
    try:
        return AngularSignal.from_entries(params, entries, "omega.coeffs")
    except StructureError as exc:
        raise ConfigError(str(exc)) from exc


def parse_config_text(text: str) -> RunConfig:
    raw: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = (lineno, value)

    values = {key: default for key, (_, default) in _KEYS.items()}
    for key, (lineno, value) in raw.items():
        try:
            values[key] = _KEYS[key][0](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc

    for required in ("mu", "N"):
        if values[required] is None:
            raise ConfigError(f"missing required key {required!r}")
    if values["omega.harmonic"] is None:
        values["omega.harmonic"] = values["N"]
    if values["target.harmonic"] is None:
        values["target.harmonic"] = values["N"]

    cfg = RunConfig(values=values)
    kind = values["omega.kind"]
    unread = {key for other, keys in _KIND_KEYS.items() if other != kind for key in keys}
    for key, (lineno, _) in raw.items():
        if key in unread:
            raise ConfigError(f"line {lineno}: {key} is not read when omega.kind = {kind}")
    return cfg


def load_config(path) -> RunConfig:
    """Read and validate a flat key = value configuration file."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"configuration file {path} does not exist")
    try:
        text = p.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read the configuration file {path}: {exc}") from exc
    return parse_config_text(text)
