"""Command-line entry points: certify, solve, reconstruct, verify.

Every subcommand takes --config, --out and --seed; reconstruct also takes
--format and --field.

Exit codes: 0 success, 1 usage error (unknown flag or subcommand, missing
subcommand, a --format entry outside json,csv,svg), configuration problem,
an output directory that cannot be written, a saved field that does not load
or an allocation that fails (out of memory), 2 certificate failure, 3 solve
failure, 4 verification failure, a failed chart inversion or a field that
does not evaluate (verify, reconstruct).  Codes 1, 3, 4 and a certificate
that cannot be formed (2) print one line to stderr, and a solve that drops
harmonic mass above the gate one summary line, which a failure of the
command that solved joins to its own.  Every JSON artifact embeds the config
digest and the seed; identical configs give identical bytes.
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

from .config import RunConfig, load_config, parse_formats
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


def _prepare(cfg: RunConfig):
    """The output directory, made with config.echo, and the stamp every
    artifact embeds."""
    out = Path(cfg["output.dir"])
    try:
        out.mkdir(parents=True, exist_ok=True)
        (out / "config.echo").write_text(cfg.effective_text())
    except OSError as exc:
        raise ConfigError(f"cannot write the output directory {out}: {exc}") from exc
    return out, {"config_hash": cfg.digest(), "seed": cfg["seed"]}


def cmd_certify(cfg: RunConfig, out: Path, stamp: dict) -> int:
    from .certifier import certify

    try:
        cert = certify(cfg.params, seed=cfg["seed"])
    except ParameterError as exc:
        print(f"certificate failed: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE
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


def _joined(notes: list) -> str:
    return f" ({notes[0]})" if notes else ""


def cmd_solve(cfg: RunConfig, out: Path, stamp: dict, notes: list) -> int:
    from .solver import match_initial_data, newton_solve

    controls = {key: cfg[f"solver.{key}"] for key in ("tol", "max_iter", "backend", "epsilon_cap")}
    try:
        with _dropped_mass_recorded(notes):
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
        print(f"solve failed: {exc}{_joined(notes)}", file=sys.stderr)
        return EXIT_SOLVE

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


def _solution(cfg: RunConfig, out: Path, stamp: dict, notes: list, field=None):
    """The exit code, field evaluator and angular factor of ``field``, a loaded
    (stream, omega) pair, or else of out/field.json, solved there first if it
    is missing; a failed solve returns its exit code and no field.  The
    evaluator is built once the field has loaded, so its errors pass through.
    """
    if field is None:
        path = out / "field.json"
        if not path.exists():
            code = cmd_solve(cfg, out, stamp, notes)
            if code != EXIT_OK:
                return code, None, None
        field = _load_field(path)
    stream, omega = field
    return EXIT_OK, FieldEvaluator(stream), omega


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


def cmd_reconstruct(
    cfg: RunConfig, out: Path, stamp: dict, notes: list, formats: set, samples, field
) -> int:
    code, ev, omega = _solution(cfg, out, stamp, notes, field)
    if code != EXIT_OK:
        return code
    n, t = len(samples), cfg["reconstruct.t"]
    if "csv" in formats:
        fields = eval_fields_batch(ev, omega, samples, np.full(n, t))
        export_samples_csv(out / "samples.csv", samples, t, fields)
    curves = []  # the curves are extracted only for spirals.csv or spirals.svg
    if formats & {"csv", "svg"}:
        curves = spiral_extract(ev, omega, t)
    if "csv" in formats:
        export_spirals_csv(out / "spirals.csv", curves)
    if "svg" in formats:
        render_spirals_svg(out / "spirals.svg", curves)
    print(f"reconstructed {n} samples and {len(curves)} zero-set curves at t = {t}")
    return EXIT_OK


def cmd_verify(cfg: RunConfig, out: Path, stamp: dict, notes: list) -> int:
    code, ev, omega = _solution(cfg, out, stamp, notes)
    if code != EXIT_OK:
        return code
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
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        if name == "reconstruct":
            p.add_argument("--format", default=None, help="comma list of json,csv,svg")
            p.add_argument("--field", default=None, help="a saved field JSON; never solve")
        p.set_defaults(fn=fn)
    cfg = None
    notes = []  # a solve's dropped-mass summary: a warning line, or joined to a failure's
    try:
        # every check before any directory is made: the overrides, and
        # reconstruct's --format, sample draw and --field load
        args = parser.parse_args(argv)
        if not args.config:
            raise ConfigError("--config PATH is required")
        cfg = load_config(args.config)
        values = dict(cfg.values)
        if args.out:
            values["output.dir"] = args.out
        if args.seed is not None:
            values["seed"] = args.seed
        cfg = RunConfig(values=values)
        options = {} if args.command == "certify" else {"notes": notes}
        if args.command == "reconstruct":
            formats = parse_formats(cfg["output.formats"], "output.formats")
            if args.format:
                formats &= parse_formats(args.format, "--format")
            samples = _draw_samples(cfg, formats)
            field = _load_field(Path(args.field)) if args.field else None
            options.update(formats=formats, samples=samples, field=field)
        out, stamp = _prepare(cfg)
        code = args.fn(cfg, out, stamp, **options)
        if notes and code != EXIT_SOLVE:  # a failed solve joined them to its own line
            print(f"warning: {notes[0]}", file=sys.stderr)
        return code
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
    print(f"{line}{_joined(notes)}", file=sys.stderr)
    return code

if __name__ == "__main__":
    raise SystemExit(main())
