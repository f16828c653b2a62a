"""Command-line entry points: certify, solve, reconstruct, verify.

Every subcommand takes --config, --out (default out) and --seed; reconstruct
also takes --format (default csv,svg) and --field.  solve alone makes a
field: verify and reconstruct read the one it saved in the output directory,
or reconstruct the one --field names, and never load nonlinear or solver.

Exit codes: 0 success, 1 usage error (unknown flag or subcommand, missing
subcommand, an empty --out or --field, a --format entry outside csv,svg),
configuration problem, an output directory that cannot be written, a saved
field that is missing or does not load or an allocation that fails (out of
memory), 2 certificate failure, 3 solve failure, 4 verification failure, a
failed chart inversion or a field that does not evaluate (verify,
reconstruct).  Codes 1, 3, 4 and a certificate that cannot be formed (2)
print one line to stderr, and a solve that drops harmonic mass above the
gate one summary line, which a failed solve joins to its own; main prints
every such line.  An exit 1 found before a command runs, a saved field that
does not load included, makes no output directory; an allocation that fails
inside a running command exits 1 after the directory and its config.echo
are made, with no artifact of the failed step.  Every JSON artifact embeds
the config digest and the seed; identical configs give identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .config import RunConfig, load_config
from .errors import (
    ConfigError,
    ConvergenceError,
    DroppedMassWarning,
    InversionError,
    NonFiniteError,
    ParameterError,
)
# cli calls no build_grid; the name stays bound for perfbench's tracing test
from .grid_space import AngularSignal, build_grid, field_from_json, field_to_json  # noqa: F401
from .physical import (
    FieldEvaluator,
    eval_fields_batch,
    export_samples_csv,
    export_spirals_csv,
    render_spirals_svg,
    spiral_extract,
    verdicts,
    verify as run_verify,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CERTIFICATE = 2
EXIT_SOLVE = 3
EXIT_VERIFY = 4


def _dump_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


class _Exit(Exception):
    """A command that failed once its artifacts were written; its args are
    the exit code and the stderr line main prints."""


def _prepare(cfg: RunConfig, out: Path) -> dict:
    """Make the output directory with config.echo; the stamp every artifact embeds."""
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / "config.echo").write_text(cfg.effective_text())
    except OSError as exc:
        raise ConfigError(f"cannot write the output directory {out}: {exc}") from exc
    return {"config_hash": cfg.digest(), "seed": cfg["seed"]}


def cmd_certify(cfg: RunConfig, out: Path, stamp: dict) -> int:
    from .certifier import certify

    try:
        cert = certify(cfg.params, seed=cfg["seed"])
    except ParameterError as exc:
        raise _Exit(EXIT_CERTIFICATE, f"certificate failed: {exc}") from exc
    doc = dict(stamp)
    doc["certificate"] = cert.to_json()
    _dump_json(out / "certificate.json", doc)
    (out / "certificate.txt").write_text(cert.table() + "\n")
    print(cert.table())
    return EXIT_OK if cert.passes else EXIT_CERTIFICATE


@contextmanager
def _dropped_mass_recorded(notes: list):
    """Sum up the dropped-harmonic-mass warnings raised inside as one line in notes.

    Other warnings are shown as usual once the block ends.  The recording
    filter is appended, so a filter the caller set (-W, PYTHONWARNINGS)
    still decides first.
    """
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", DroppedMassWarning, append=True)
            yield
    finally:
        dropped = [w.message for w in caught if isinstance(w.message, DroppedMassWarning)]
        for w in caught:
            if not isinstance(w.message, DroppedMassWarning):
                warnings.showwarning(w.message, w.category, w.filename, w.lineno)
        if dropped:
            top = max(dropped, key=lambda w: w.dropped)
            notes.append(
                f"{len(dropped)} residual evaluations dropped harmonic mass above the gate; "
                f"largest {top.dropped:.3e} against the residual scale {top.scale:.3e}"
            )


def cmd_solve(cfg: RunConfig, out: Path, stamp: dict) -> int:
    from .solver import match_initial_data, newton_solve

    controls = {key: cfg[f"solver.{key}"] for key in ("tol", "max_iter", "backend", "epsilon_cap")}
    try:
        if cfg["omega.kind"] == "match":
            omega, stream, report = match_initial_data(cfg.target(), cfg.params, **controls)
        else:
            omega = cfg.omega()
            stream, report = newton_solve(omega, cfg.params, **controls)
    except (ConvergenceError, ParameterError) as exc:
        doc = dict(stamp)
        doc["error"] = str(exc)
        rep = getattr(exc, "report", None)
        if rep is not None:
            doc["residual_history"] = list(rep.residual_history)
        _dump_json(out / "report.json", doc)
        raise _Exit(EXIT_SOLVE, f"solve failed: {exc}") from exc

    field_doc = dict(stamp)
    field_doc.update(field_to_json(stream))
    field_doc["omega"] = [[n, c.real, c.imag] for n, c in omega.entries()]
    _dump_json(out / "field.json", field_doc)
    report_doc = dict(stamp)
    report_doc.update(asdict(report))
    _dump_json(out / "report.json", report_doc)
    print(
        f"solved: {report.iterations} iterations, residual "
        f"{report.residual_history[-1]:.3e}, bounds {'ok' if report.bounds_ok else 'VIOLATED'}"
    )
    return EXIT_OK


def _load_field(path: Path):
    """The stream profile and angular factor saved at path.

    A file that cannot be read, is no field of this format (a non-finite
    number included) or whose omega from_entries refuses or is identically
    zero raises ConfigError.
    """
    try:
        doc = json.loads(path.read_text())
        stream = field_from_json(doc)
        entries = [(n, complex(re, im)) for n, re, im in doc["omega"]]
        omega = AngularSignal.from_entries(stream.params, entries)
        if not omega.modes.any():
            raise ValueError("omega is identically zero")
    except (OSError, ValueError, KeyError, TypeError, OverflowError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise ConfigError(f"cannot load the saved field {path}: {detail}") from exc
    return stream, omega


def _draw_samples(cfg: RunConfig, formats: set) -> np.ndarray:
    """The reconstruct.samples points of samples.csv, none without csv."""
    if "csv" not in formats:
        return np.empty((0, 2))
    n = cfg["reconstruct.samples"]
    rng = np.random.default_rng(cfg["seed"])
    try:
        r, ang = rng.uniform(0.5, 2.0, n), rng.uniform(0.0, 2.0 * np.pi, n)
        return np.stack([r * np.cos(ang), r * np.sin(ang)], axis=-1)
    except MemoryError:
        raise ConfigError(f"out of memory drawing reconstruct.samples = {n} points") from None


def cmd_reconstruct(cfg: RunConfig, out: Path, stamp: dict, formats: set, samples, field) -> int:
    stream, omega = field
    ev = FieldEvaluator(stream)
    n, t = len(samples), cfg["reconstruct.t"]
    if "csv" in formats:
        fields = eval_fields_batch(ev, omega, samples, np.full(n, t))
        export_samples_csv(out / "samples.csv", samples, t, fields)
    curves = spiral_extract(ev, omega, t)
    if "csv" in formats:
        export_spirals_csv(out / "spirals.csv", curves)
    if "svg" in formats:
        render_spirals_svg(out / "spirals.svg", curves)
    print(f"reconstructed {n} samples and {len(curves)} zero-set curves at t = {t}")
    return EXIT_OK


def cmd_verify(cfg: RunConfig, out: Path, stamp: dict, field) -> int:
    stream, omega = field
    ev = FieldEvaluator(stream)
    suites = tuple(s for s in cfg["verify.suites"].split(",") if s)
    report = run_verify(ev, omega, suite=suites, seed=cfg["seed"])
    verdict = verdicts(report)
    passed = all(verdict.values())
    doc = dict(stamp)
    doc["report"] = report
    doc["verdict"] = verdict
    doc["passed"] = passed
    _dump_json(out / "verify.json", doc)
    for name, ok in verdict.items():
        print(f"{name}: {'pass' if ok else 'FAIL'}")
    return EXIT_OK if passed else EXIT_VERIFY


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors leave as ConfigError (exit 1)."""

    def error(self, message):
        raise ConfigError(f"{message} (see {self.prog} --help)")


def main(argv=None) -> int:
    parser = _Parser(
        prog="spiral-euler",
        description="Self-similar spiral solutions of the planar Euler equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("certify", cmd_certify),
        ("solve", cmd_solve),
        ("reconstruct", cmd_reconstruct),
        ("verify", cmd_verify),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=False, help="path to the run configuration")
        p.add_argument("--out", default="out", help="output directory (default: out)")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        if name == "reconstruct":
            p.add_argument("--format", default="csv,svg", help="comma list of csv,svg")
            p.add_argument("--field", help="a saved field JSON (default: OUT/field.json)")
        p.set_defaults(fn=fn, field=None)
    cfg = None
    notes = []  # a solve's dropped-mass summary: a warning line, or joined to its failure's
    try:
        # every check before any directory is made: the overrides,
        # reconstruct's --format and sample draw, and the saved field's load
        args = parser.parse_args(argv)
        if not args.config:
            raise ConfigError("--config PATH is required")
        if not args.out:
            raise ConfigError("--out must name a directory")
        if args.field == "":
            raise ConfigError("--field must name a file")
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = RunConfig(values={**cfg.values, "seed": args.seed})
        options = {}
        if args.command == "reconstruct":
            formats = set(args.format.split(","))
            if not formats <= {"csv", "svg"}:
                raise ConfigError("--format must be a subset of csv,svg")
            options = {"formats": formats, "samples": _draw_samples(cfg, formats)}
        out = Path(args.out)
        if args.command in ("reconstruct", "verify"):
            options["field"] = _load_field(Path(args.field or out / "field.json"))
        stamp = _prepare(cfg, out)
        with _dropped_mass_recorded(notes):
            code = args.fn(cfg, out, stamp, **options)
        if notes:
            print(f"warning: {notes[0]}", file=sys.stderr)
        return code
    except _Exit as exc:
        code, line = exc.args
    except ConfigError as exc:
        line, code = f"configuration error: {exc}", EXIT_CONFIG
    except InversionError as exc:
        line, code = f"chart inversion failed: {exc}", EXIT_VERIFY
    except NonFiniteError as exc:
        # raised here only by verify and reconstruct: solve and certify report their own
        line, code = f"field evaluation failed: {exc}", EXIT_VERIFY
    except MemoryError:
        # a mode operator takes (grid.points + 1)^2 complex entries, and the
        # linearization holds one for each of the harmonics + 1 stored modes
        at = ""
        if cfg is not None:
            at = f" at grid.points = {cfg['grid.points']}, harmonics = {cfg['harmonics']}"
        line, code = f"out of memory{at}: lower grid.points or harmonics", EXIT_CONFIG
    joined = f" ({notes[0]})" if notes else ""  # the summary of the solve that failed
    print(f"{line}{joined}", file=sys.stderr)
    return code

if __name__ == "__main__":
    raise SystemExit(main())
