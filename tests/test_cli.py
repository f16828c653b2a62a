import contextlib
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spiral_euler

from spiral_euler import ConfigError, ModeProfile, SolverParams, grid_space, sample_cutoffs
from spiral_euler.cli import main
from spiral_euler.config import _KEYS, load_config, parse_config_text


DESK = """
mu = 1.0
N = 8
grid.points = 96
omega.amplitude = 0.01
reconstruct.samples = 40
verify.suites = selfsim,divfree,poisson
"""

# a zero-crossing angular factor at the desk point: 2N zero-set curves, and
# a solve that drops harmonic mass above the gate
ZERO_CROSSING = """
mu = 1.0
N = 8
grid.points = 96
omega.amplitude = 1.05
solver.epsilon_cap = 0.5
reconstruct.samples = 10
"""


def test_minimal_config_fills_defaults():
    cfg = parse_config_text("mu = 1.0\nN = 4000\n")
    assert cfg["grid.points"] == 257
    assert cfg["harmonics"] == 3
    assert cfg["solver.tol"] == 1e-10
    assert cfg["omega.harmonic"] == 4000
    assert cfg.params.N == 4000


def test_config_rejects_small_mu():
    with pytest.raises(ConfigError):
        parse_config_text("mu = 0.5\nN = 8\n")


def test_config_rejects_off_lattice_harmonic():
    with pytest.raises(ConfigError):
        parse_config_text("mu = 1.0\nN = 8\nomega.harmonic = 12\n")


def test_config_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError) as err:
        parse_config_text("mu = 1.0\nwat\n")
    assert "line 2" in str(err.value)
    with pytest.raises(ConfigError) as err:
        parse_config_text("mu = 1.0\nnope = 3\n")
    assert "unknown key" in str(err.value)
    with pytest.raises(ConfigError) as err:
        parse_config_text("mu = 1.0\nmu = 2.0\n")
    assert "duplicate" in str(err.value)


@pytest.mark.parametrize("coeffs, message", [
    ("0:1:0,0:2:0,8:0.01:0", "omega.coeffs lists mode 0 twice"),
    ("8:0.01:0,-8:0.5:0", "omega.coeffs mode -8 must be the conjugate of mode 8"),
    ("0:1:0.3", "omega.coeffs mode 0 must be real"),
])
def test_config_rejects_coeffs_of_no_real_factor(coeffs, message):
    text = f"mu = 1.0\nN = 8\nomega.kind = coeffs\nomega.coeffs = {coeffs}\n"
    with pytest.raises(ConfigError, match=message):
        parse_config_text(text)


def test_config_accepts_conjugate_coeffs():
    cfg = parse_config_text(
        "mu = 1.0\nN = 8\nomega.kind = coeffs\n"
        "omega.coeffs = 0:1:0,8:0.01:0.02,-8:0.01:-0.02,16:0.001:0\n"
    )
    # a pair gives its mode n, a lone entry half of it: 0.001 cos(16 phi)
    omega = cfg.omega()
    assert omega.modes.tolist() == [1.0, 0.01 + 0.02j, 0.0005, 0.0]
    assert omega.entries() == [
        (-16, 0.0005), (-8, 0.01 - 0.02j), (0, 1.0), (8, 0.01 + 0.02j), (16, 0.0005)
    ]


# the edge values every config key is drawn from, and a few values of the
# string keys that pass or fail their own checks
_EDGE_VALUES = (
    "0", "-0", "inf", "-inf", "nan", "1e308", "-1e308", "5e-324", "-1", str(2**62), str(2**63),
)
_STRING_VALUES = {
    "omega.kind": ("constant_plus_cos", "coeffs", "match"),
    "omega.coeffs": ("0:1:0,8:0.01:0,-8:0.01:0", "8:1e308:0,-8:1e308:0", "32:1:0,-32:1:0"),
    "solver.backend": ("chord", "fd"),
    "verify.suites": ("selfsim", "lp,weak"),
}


# values that pass their own checks near the limits of a run, drawn as well
# by the command-level fuzz; its sizes pass only up to M = 32 and K = 3
_LIMIT_VALUES = {
    "mu": ("0.6667", "2.0", "1e308"),
    "N": ("2", "3", "4"),
    "harmonics": ("1", "3"),
    "grid.points": ("16", "32"),
    "grid.scale": ("1e-300", "1e300"),
    "omega.amplitude": ("1e-300", "0.5", "1.05"),
    "omega.harmonic": ("8", "-24"),
    "target.harmonic": ("-8", "24"),
    "target.amplitude": ("1e-300", "0.5"),
    "solver.tol": ("1e-300", "1"),
    "solver.max_iter": ("1",),
    "solver.epsilon_cap": ("1e-300",),
}


@st.composite
def _config_texts(draw, near_limits=False):
    """Desk config text with some keys set to edge values."""
    lines = {"mu": "1.0", "N": "8", "grid.points": "24"}
    for key in draw(st.lists(st.sampled_from(sorted(_KEYS)), max_size=3 if near_limits else 6)):
        edges = _EDGE_VALUES + _STRING_VALUES.get(key, ())
        values = st.sampled_from(edges)
        if near_limits:
            # half the draws pass their own checks
            if key in ("grid.points", "harmonics"):
                edges = tuple(v for v in edges if abs(float(v)) < 2**62)
            passing = _LIMIT_VALUES.get(key, ()) + _STRING_VALUES.get(key, ())
            values = st.sampled_from(edges) | st.sampled_from(passing or (str(_KEYS[key][1]),))
        lines[key] = draw(values)
    try:
        past = int(lines["N"]) * (int(lines.get("harmonics", "3")) + 1)  # past N * harmonics
    except ValueError:
        past = None
    for key in ("omega.harmonic", "target.harmonic"):
        if past is not None and not near_limits and draw(st.booleans()):
            lines[key] = str(draw(st.sampled_from((1, -1))) * past)
    return "".join(f"{key} = {value}\n" for key, value in lines.items())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=_config_texts())
@example(text="mu = 1.0\nN = 8\ngrid.points = 24\nomega.harmonic = 32\n")
def test_config_text_gives_a_config_or_a_config_error(text):
    # every config that loads builds its angular factors; anything else is
    # refused as a ConfigError, before any command starts
    try:
        cfg = parse_config_text(text)
    except ConfigError:
        return
    try:
        cfg.omega()
    except ConfigError:
        assert cfg["omega.kind"] == "match"
    cfg.target()


# the --seed and --out overrides the command-level fuzz draws: no seed or an
# edge value, and an output directory, an empty --out, a directory two levels
# down or a file that exists
_SEEDS = (None,) + _EDGE_VALUES
_OUTS = ("dir", "", "nested", "file")
_OVERRIDES = st.tuples(st.sampled_from(_SEEDS), st.sampled_from(_OUTS))
_PLAIN = (None, "dir")


def _tree(top):
    """The bytes of each file under top, or None where top does not exist."""
    if not top.exists():
        return None
    return {p: p.read_bytes() for p in sorted(top.rglob("*")) if p.is_file()}


def _run_overridden(tmp, command, cfg, overrides, extra=(), top=None):
    """Run command with the drawn --seed and --out (under top, default
    tmp/command); checks what every exit shares and returns the exit code."""
    seed, kind = overrides
    top = top or tmp / command
    out = {"dir": top, "": "", "nested": top / "a" / "b", "file": top}[kind]
    before = _tree(top)
    if kind == "file":
        top.write_text("kept\n")
    argv = [command, "--config", str(cfg), "--out", str(out), *extra]
    if seed is not None:
        argv += ["--seed", seed]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert code in (0, 1, 2, 3, 4), (command, code)
    assert not caught, (command, [str(w.message) for w in caught])
    assert len(err.getvalue().splitlines()) <= 1, (command, err.getvalue()[:1000])
    assert "Traceback" not in err.getvalue()
    # an --out that names no writable directory is a configuration error (1),
    # and a configuration error makes no output directory and writes nothing
    if kind in ("", "file"):
        assert code == 1, command
    if kind == "file":
        assert top.read_text() == "kept\n", command
        top.unlink()
    else:
        assert code != 1 or _tree(top) == before, command
    return code


@settings(max_examples=30, deadline=None, derandomize=True)
@given(text=_config_texts(near_limits=True), overrides=_OVERRIDES)
@example(text="mu = 1.0\nN = 8\ngrid.points = 24\ngrid.scale = 5e-324\n", overrides=_PLAIN)
@example(text="mu = 1.0\nN = 8\ngrid.points = 24\ngrid.scale = 1e300\n", overrides=_PLAIN)
@example(text="mu = 1e308\nN = 8\ngrid.points = 24\n", overrides=_PLAIN)
@example(text="mu = 1.0\nN = 3\ngrid.points = 24\nsolver.max_iter = 1\n", overrides=_PLAIN)
@example(text="mu = 1.0\nN = 8\ngrid.points = 24\n", overrides=(str(2**63), "nested"))
@example(text="mu = 1.0\nN = 8\ngrid.points = 24\n", overrides=("-1", "file"))
@example(text="mu = 1.0\nN = 8\ngrid.points = 24\n", overrides=("0", ""))
def test_config_text_through_certify_and_solve_exits_with_at_most_one_line(
    tmp_path_factory, text, overrides
):
    # what a config and the overrides let through reaches certify and solve:
    # each leaves with a documented exit code, at most one stderr line and no
    # warning, and a configuration error (1) leaves no output directory behind
    tmp = tmp_path_factory.mktemp("config")
    cfg = tmp / "run.cfg"
    cfg.write_text(text)
    for command in ("certify", "solve"):
        _run_overridden(tmp, command, cfg, overrides)


# values of the keys only reconstruct and verify read, drawn by their fuzz:
# samples past what an array holds, and times whose t^-mu leaves the float range
_RUN_VALUES = {
    "verify.suites": ("selfsim", "divfree,poisson", "weak", "lp", "selfsim,selfsim", "none"),
    "reconstruct.t": ("5e-324", "1e-300", "0.5", "1e300"),
    "reconstruct.samples": ("1", "40", str(2**62), str(2**63)),
}
# json and pdf are refused: --format names files reconstruct writes
_FORMATS = (None, "json", "csv", "svg", "csv,svg", "pdf")


@st.composite
def _run_texts(draw):
    """Config text with edge values for the reconstruct and verify keys, and a --format."""
    lines = dict(
        line.split(" = ", 1) for line in draw(_config_texts(near_limits=True)).splitlines()
    )
    lines.setdefault("verify.suites", "selfsim")  # the five suites take a second at M = 32
    for key in draw(st.lists(st.sampled_from(sorted(_RUN_VALUES)), max_size=3)):
        lines[key] = draw(st.sampled_from(_RUN_VALUES[key]))
    text = "".join(f"{key} = {value}\n" for key, value in lines.items())
    return text, draw(st.sampled_from(_FORMATS))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(drawn=_run_texts(), overrides=_OVERRIDES,
       reader=st.none() | _run_texts().map(lambda drawn: drawn[0]))
@example(drawn=("mu = 1.0\nN = 8\ngrid.points = 24\nreconstruct.samples = 4611686018427387904\n",
                "csv"), overrides=_PLAIN, reader=None)
@example(drawn=("mu = 1.0\nN = 8\ngrid.points = 24\nreconstruct.samples = 9223372036854775808\n",
                "csv"), overrides=_PLAIN, reader=None)
@example(drawn=("mu = 1.0\nN = 8\ngrid.points = 24\nreconstruct.t = 5e-324\n", "csv"),
         overrides=_PLAIN, reader=None)
# a solve that dropped mass prints its one warning line; the chart inversion
# that then fails prints one line of its own, with no summary joined
@example(drawn=("mu = 1.0\nN = 2\ngrid.points = 24\nreconstruct.t = 1e160\n", "csv"),
         overrides=_PLAIN, reader=None)
@example(drawn=("mu = 1.0\nN = 8\ngrid.points = 24\nverify.suites = selfsim\n", "svg"),
         overrides=(str(2**63), "nested"), reader=None)
@example(drawn=("mu = 1.0\nN = 8\ngrid.points = 24\n", "csv"), overrides=("inf", "file"),
         reader=None)
@example(drawn=("mu = 1.0\nN = 8\ngrid.points = 24\n", None), overrides=(None, ""), reader=None)
# the field of one config read under another of other mu, N and grid
@example(drawn=("mu = 1.0\nN = 8\ngrid.points = 24\n", "csv,svg"), overrides=_PLAIN,
         reader="mu = 2.0\nN = 3\ngrid.points = 16\nverify.suites = selfsim\n")
def test_config_text_through_reconstruct_and_verify_exits_with_at_most_one_line(
    tmp_path_factory, drawn, overrides, reader
):
    # what a config and the overrides let through reaches a solve, and then
    # reconstruct and verify on the field it saved, read under the same config
    # or under a second drawn one: each leaves with a documented exit code, at
    # most one stderr line and no warning or traceback, and a configuration
    # error (1) makes no output directory and writes nothing into one
    text, fmt = drawn
    tmp = tmp_path_factory.mktemp("config")
    cfg = tmp / "run.cfg"
    cfg.write_text(text)
    read = cfg
    if reader is not None:
        read = tmp / "read.cfg"
        read.write_text(reader)
    top = tmp / "run"
    _run_overridden(tmp, "solve", cfg, overrides, top=top)
    for command in ("reconstruct", "verify"):
        extra = ["--format", fmt] if command == "reconstruct" and fmt is not None else []
        _run_overridden(tmp, command, read, overrides, extra, top=top)


def test_config_comments_and_echo():
    cfg = parse_config_text("mu = 1.0  # exponent\nN = 8\n")
    text = cfg.effective_text()
    assert "mu = 1.0" in text
    assert cfg.digest() == parse_config_text("N = 8\nmu = 1.0\n").digest()


def test_certify_exit_codes(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(DESK)
    # N = 8 sits far below the periodicity threshold
    assert main(["certify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    big = tmp_path / "big.cfg"
    big.write_text("mu = 1.0\nN = 4000\n")
    assert main(["certify", "--config", str(big), "--out", str(tmp_path / "o2")]) == 0
    doc = json.loads((tmp_path / "o2" / "certificate.json").read_text())
    assert doc["certificate"]["passes"] is True
    assert "config_hash" in doc
    # a certificate whose constants or samples leave the float range is not
    # written: exit 2 with one line
    for lines, message in (
        ("mu = 1e308", "the periodicity threshold at mu = 1e+308 overflows"),
        ("mu = 1.0\ngrid.scale = 1e300", "cutoff suprema ['beta2_dbeta_xi0', 'beta2_dbeta2_xi0'] "
         "overflow on the grid of scale 1e+300"),
        ("mu = 1.0\ngrid.scale = 1e10",
         "spot-check profiles vanish on the grid of scale 10000000000.0"),
    ):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"{lines}\nN = 8\ngrid.points = 24\n")
        proc = _cli("certify", "--config", str(bad), "--out", str(tmp_path / "o3"))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == f"certificate failed: {message}\n"
        assert not (tmp_path / "o3" / "certificate.json").exists()


@pytest.mark.parametrize("N", [2, 3])
def test_certify_below_four_skips_rows_and_writes_the_certificate(tmp_path, N, capsys):
    # the interval distances and spot checks need N >= 4; the contraction
    # constant is the one at N = 4, and the certificate fails (exit 2)
    from spiral_euler.certifier import contraction_and_threshold

    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"mu = 1.0\nN = {N}\ngrid.points = 24\n")
    assert main(["certify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == ""
    cert = json.loads((tmp_path / "o" / "certificate.json").read_text())["certificate"]
    assert cert["N"] == N and cert["passes"] is False
    assert cert["dist_rows"] == [] and cert["spot_checks"] == []
    assert cert["notes"] == [
        "interval-distance rows skipped: they require N >= 4",
        "contraction constant evaluated at N=4, the smallest admissible value",
    ]
    assert cert["contraction"] == contraction_and_threshold(1.0, 4)[0]


def test_solve_reconstruct_verify_pipeline(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(DESK)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True
    assert report["bounds_ok"] is True
    field = json.loads((out / "field.json").read_text())
    assert field["config_hash"] == report["config_hash"]
    assert main(["reconstruct", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "samples.csv").exists()
    assert (out / "spirals.svg").exists()
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    vdoc = json.loads((out / "verify.json").read_text())
    assert vdoc["passed"] is True
    again = tmp_path / "again"
    field = str(out / "field.json")
    assert main(["reconstruct", "--config", str(cfg), "--field", field, "--out", str(again)]) == 0
    assert (again / "spirals.svg").exists() and not (again / "field.json").exists()


def test_field_json_round_trip_samples_no_cutoffs(tmp_path, monkeypatch):
    # field.json holds each row's extended values: writing and reloading it
    # neither samples the cutoffs nor splits a row into ModeProfile slots
    def refuse(*args, **kwargs):
        raise AssertionError("field.json went through the cutoffs or ModeProfile slots")

    monkeypatch.setattr(grid_space, "sample_cutoffs", refuse)
    monkeypatch.setattr(ModeProfile, "from_values", refuse)
    monkeypatch.setattr(ModeProfile, "extended", refuse)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(DESK)
    out = tmp_path / "out"
    for command in ("solve", "verify", "reconstruct"):
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    assert {"field.json", "verify.json", "samples.csv", "spirals.svg"} <= {
        p.name for p in out.iterdir()
    }


@pytest.mark.parametrize("certified", [False, True], ids=["no-dir", "certified-dir"])
@pytest.mark.parametrize("command", ["reconstruct", "verify"])
def test_no_saved_field_exits_before_writing_anything(
    tmp_path, monkeypatch, capsys, command, certified
):
    # only solve makes a field: reconstruct and verify with no field.json in
    # the output directory exit 1 with one line, never solve and read the
    # config once; they make no directory, and write nothing, not even
    # config.echo, into one that a certify made
    from spiral_euler import cli

    cfg = tmp_path / "run.cfg"
    cfg.write_text(DESK)
    out = tmp_path / "out"
    if certified:
        assert main(["certify", "--config", str(cfg), "--out", str(out)]) == 2
        (out / "config.echo").write_text("kept\n")  # a rewrite would show
    before = _tree(out)
    calls = []

    def counted(path):
        calls.append(path)
        return load_config(path)

    def unwanted(*args, **kwargs):
        raise AssertionError("solved for a command that reads a saved field")

    monkeypatch.setattr(cli, "load_config", counted)
    monkeypatch.setattr(cli, "cmd_solve", unwanted)
    capsys.readouterr()
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"configuration error: cannot load the saved field {out / 'field.json'}: "
    )
    assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err
    assert _tree(out) == before
    assert calls == [str(cfg)]


# a config that shares only ZERO_CROSSING's t, samples and seed
OTHER_GRID = """
mu = 1.5
N = 16
grid.points = 48
reconstruct.samples = 10
"""


@pytest.mark.filterwarnings("ignore:dropped harmonic mass")
def test_reconstruct_field_from_elsewhere_matches_in_place(tmp_path, monkeypatch, capsys):
    # --field loads a saved field from any path and never solves; the field,
    # not the config, sets mu, N and the grid, so a config of another grid
    # that shares t, samples and seed draws the same curves
    from spiral_euler import cli

    cfg = tmp_path / "run.cfg"
    cfg.write_text(ZERO_CROSSING)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["reconstruct", "--config", str(cfg), "--out", str(out), "--format", "svg"]) == 0

    def unwanted(*args, **kwargs):
        raise AssertionError("solved for a reconstruct with --field")

    monkeypatch.setattr(cli, "cmd_solve", unwanted)
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    (elsewhere / "other.cfg").write_text(OTHER_GRID)
    for config, again in ((str(cfg), "again"), ("other.cfg", "other")):
        capsys.readouterr()
        argv = ["reconstruct", "--config", config, "--field", str(out / "field.json")]
        assert main(argv + ["--out", again, "--format", "svg"]) == 0
        assert "and 16 zero-set curves" in capsys.readouterr().out
        svg = (elsewhere / again / "spirals.svg").read_bytes()
        assert svg == (out / "spirals.svg").read_bytes()


def test_reconstruct_without_csv_evaluates_no_samples(tmp_path, monkeypatch, capsys):
    from spiral_euler import cli

    def unwanted(*args, **kwargs):
        raise AssertionError("samples evaluated for no samples.csv")

    monkeypatch.setattr(cli, "eval_fields_batch", unwanted)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(DESK)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["reconstruct", "--config", str(cfg), "--out", str(out), "--format", "svg"]) == 0
    assert (out / "spirals.svg").exists()
    assert not (out / "samples.csv").exists()
    assert "reconstructed 0 samples" in capsys.readouterr().out


@pytest.mark.filterwarnings("ignore:dropped harmonic mass")
def test_reconstruct_spirals_csv_reads_back_as_numbers(tmp_path):
    # a zero-crossing angular factor gives 2N zero-set curves in spirals.csv
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "mu = 1.0\nN = 8\ngrid.points = 96\nomega.amplitude = 1.05\n"
        "solver.epsilon_cap = 0.5\nreconstruct.samples = 10\n"
    )
    out = tmp_path / "out"
    for command in ("solve", "reconstruct"):
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "spirals.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["phi0", "t", "beta", "x1", "x2"]
    assert len({row[0] for row in rows}) == 16
    for row in rows:
        assert len(row) == 5
        for text in row:
            float(text)


def test_solve_failure_exit_code(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mu = 1.0\nN = 8\ngrid.points = 96\nomega.amplitude = 10\n")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    doc = json.loads((tmp_path / "o" / "report.json").read_text())
    assert "error" in doc


def test_allocation_failure_exits_as_config_error(tmp_path, monkeypatch, capsys):
    # simulated: a real allocation failure would need a grid too large to test.
    # It comes inside the running command, after the output directory and its
    # config.echo are made, and leaves no artifact of the failed step: no
    # certificate, no field or report of the solve, and no verify.json of a
    # verify whose selfsim suite fails to allocate on a saved field
    from spiral_euler import operators, physical

    def exhausted(*args, **kwargs):
        raise MemoryError

    cfg = tmp_path / "run.cfg"
    cfg.write_text(DESK)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "verify")]) == 0
    monkeypatch.setattr(operators, "mode_operator_matrix", exhausted)
    monkeypatch.setattr(physical, "eval_fields_batch", exhausted)
    message = "out of memory at grid.points = 96, harmonics = 3: lower grid.points or harmonics"
    for command, left in (
        ("certify", ["config.echo"]),
        ("solve", ["config.echo"]),
        ("verify", ["config.echo", "field.json", "report.json"]),
    ):
        out = tmp_path / command
        capsys.readouterr()
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == message + "\n"
        assert sorted(p.name for p in out.iterdir()) == left


# a desk-size solve that drops harmonic mass above the gate in every residual
DROPPING = "mu = 1.0\nN = 2\ngrid.points = 24\nverify.suites = selfsim\n"


@pytest.mark.parametrize("command, lines, code, start", [
    ("solve", "solver.max_iter = 1", 3, "solve failed: no convergence in 1 iterations"),
    ("reconstruct", "reconstruct.t = 1e160", 4, "chart inversion failed: "),
    ("verify", "", 1, "out of memory at grid.points = 24, harmonics = 3: lower grid.points or "
     "harmonics"),
], ids=["solve", "chart", "memory"])
def test_every_failure_after_a_dropping_solve_is_one_line_with_its_summary(
    tmp_path, monkeypatch, capsys, command, lines, code, start
):
    # main prints every failure line; a failed solve joins its own
    # dropped-mass summary to it, while reconstruct and verify, which read the
    # field a dropping solve saved, print their line alone; no second line,
    # no warning
    from spiral_euler import cli

    def exhausted(*args, **kwargs):
        raise MemoryError

    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{DROPPING}{lines}\n")
    out = tmp_path / "out"
    if code == 1:
        monkeypatch.setattr(cli, "run_verify", exhausted)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if command != "solve":
            assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main([command, "--config", str(cfg), "--out", str(out)]) == code
    assert not caught, [str(w.message) for w in caught]
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    summary = (r" \(\d+ residual evaluations dropped harmonic mass above the gate; "
               r"largest \S+ against the residual scale \S+\)\n")
    if command != "solve":
        summary = r"\n"
        assert "dropped harmonic mass" not in err, err
    assert re.fullmatch(re.escape(start) + r".*" + summary, err), err


def test_empty_out_exits_as_config_error(tmp_path, monkeypatch, capsys):
    # an empty --out names no directory; no command makes one, here or anywhere
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text(DESK)
    for command in ("certify", "solve", "reconstruct", "verify"):
        capsys.readouterr()
        assert main([command, "--config", "run.cfg", "--out", ""]) == 1, command
        assert capsys.readouterr().err == "configuration error: --out must name a directory\n"
    # nor does an empty --field name a file: it is refused, not read as OUT/field.json
    assert main(["reconstruct", "--config", "run.cfg", "--out", "e1", "--field", ""]) == 1
    assert capsys.readouterr().err == "configuration error: --field must name a file\n"
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


def test_sample_count_no_array_holds_exits_before_the_solve(tmp_path, capsys):
    # 2^50 points pass the config's bound, but their draw cannot be held; it
    # comes before the field is loaded and before the output directory is
    # made, so nothing is read or written
    n = 2**50
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"mu = 1.0\nN = 8\ngrid.points = 24\nreconstruct.samples = {n}\n")
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["reconstruct", "--config", str(cfg), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"configuration error: out of memory drawing reconstruct.samples = {n} points\n"
    )
    assert "solved:" not in captured.out
    assert not out.exists()
    # a --field file that is no field is refused before the directory too
    field = tmp_path / "empty.json"
    field.write_text("{}")
    cfg.write_text("mu = 1.0\nN = 8\ngrid.points = 24\n")
    assert main(["reconstruct", "--config", str(cfg), "--field", str(field),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"configuration error: cannot load the saved field {field}: missing key 'N'\n"
    )
    assert not out.exists()


def test_missing_config_is_config_error(tmp_path, capsys):
    assert main(["solve", "--config", str(tmp_path / "none.cfg")]) == 1
    assert main(["solve"]) == 1
    # a directory and a file that is not UTF-8 exist but cannot be read
    latin = tmp_path / "latin.cfg"
    latin.write_bytes("mu = 1.0  # \xb5\n".encode("latin-1"))
    capsys.readouterr()
    for path in (tmp_path, latin):
        assert main(["solve", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot read the configuration file {path}")
        assert len(err.strip().splitlines()) == 1


def test_artifacts_byte_identical_across_dirs(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(DESK)
    main(["solve", "--config", str(cfg), "--out", str(tmp_path / "a")])
    main(["solve", "--config", str(cfg), "--out", str(tmp_path / "b")])
    assert (tmp_path / "a" / "field.json").read_bytes() == (
        tmp_path / "b" / "field.json"
    ).read_bytes()
    assert (tmp_path / "a" / "report.json").read_bytes() == (
        tmp_path / "b" / "report.json"
    ).read_bytes()


def test_solve_beyond_fifteen_harmonics(tmp_path):
    # K = 16 needs 4K + 1 = 65 angles to dealias, one more than the 64 that
    # serve K <= 15
    cfg = tmp_path / "run.cfg"
    cfg.write_text(DESK + "harmonics = 16\n")
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is True
    assert report["bounds_ok"] is True


def test_match_mode_solve(tmp_path, capsys):
    # the match's report.json and solved: line are its one solve's
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "mu = 1.0\nN = 8\ngrid.points = 96\nomega.kind = match\n"
        "target.amplitude = 0.01\n"
    )
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["time_scale"] == pytest.approx(1.0)
    history = report["residual_history"]
    assert report["iterations"] == len(history) - 1 >= 1
    assert capsys.readouterr().out == (
        f"solved: {report['iterations']} iterations, residual {history[-1]:.3e}, bounds ok\n"
    )


@pytest.mark.filterwarnings("ignore:dropped harmonic mass")
def test_match_takes_the_fd_backend(tmp_path, monkeypatch):
    # solver.backend reaches the match's inner solve: an fd match takes fd steps
    from spiral_euler import solver

    fd_update = solver._fd_newton_update
    calls = []

    def spy(*args):
        calls.append(args)
        return fd_update(*args)

    monkeypatch.setattr(solver, "_fd_newton_update", spy)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "mu = 1.0\nN = 8\ngrid.points = 24\nomega.kind = match\nsolver.backend = fd\n"
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    assert calls
    assert json.loads((out / "report.json").read_text())["converged"]


def test_singular_linearization_exits_as_solve_failure(tmp_path, monkeypatch):
    # an exactly singular operator stack ends the solve at its first LU with
    # the solve-failure code, not with NaN iterates or a traceback
    from spiral_euler import nonlinear

    def singular_set(params):
        size = params.grid.size + 1
        return np.zeros((len(params.mode_indices), size, size), dtype=complex)

    monkeypatch.setattr(nonlinear, "linearization_set", singular_set)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(DESK)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
    doc = json.loads((tmp_path / "o" / "report.json").read_text())
    assert "singular" in doc["error"]


def _package_env():
    """The environment with this package's source tree on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(spiral_euler.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


# runs the four commands on the config argv[1] into argv[2] and prints the
# scipy modules loaded at import and after the run with the exit codes; with
# argv[3] == "blocked" every import of scipy raises ImportError
_FOUR_COMMANDS = (
    "import json, sys\n"
    "if sys.argv[3] == 'blocked':\n"
    "    sys.modules['scipy'] = None\n"
    "import spiral_euler\n"
    "import spiral_euler.cli as cli\n"
    "def loaded():\n"
    "    return sorted(m for m, mod in sys.modules.items()\n"
    "                  if m.split('.')[0] == 'scipy' and mod is not None)\n"
    "at_import = loaded()\n"
    "codes = [cli.main([cmd, '--config', sys.argv[1], '--out', sys.argv[2]])\n"
    "         for cmd in ('certify', 'solve', 'verify', 'reconstruct')]\n"
    "print(json.dumps([at_import, codes, loaded()]))\n"
)


def _run_four_commands(tmp_path, scipy_import):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(DESK)
    proc = subprocess.run(
        [sys.executable, "-c", _FOUR_COMMANDS, str(cfg), str(tmp_path / "out"), scipy_import],
        capture_output=True, text=True, env=_package_env(), timeout=300, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_loads_no_scipy(tmp_path):
    # every command pays for what the package imports at start-up; no
    # command loads any scipy module, certify and solve with their dense
    # solves included
    at_import, codes, after_run = _run_four_commands(tmp_path, "free")
    assert at_import == []
    # the desk certificate fails (exit 2); solve, verify and reconstruct pass
    assert codes == [2, 0, 0, 0]
    assert after_run == []


def test_cli_runs_with_scipy_blocked(tmp_path):
    # the package and every command run where scipy cannot be imported
    _, codes, _ = _run_four_commands(tmp_path, "blocked")
    assert codes == [2, 0, 0, 0]


# the names the package exports, each bound in the module that defines it
_EXPORTED = """
AccuracyError AngularSignal Certificate ConfigError ConvergenceError CutoffSamples
DegenerateShiftError DroppedMassWarning FieldEvaluator InversionError
ModeProfile NonFiniteError NonlinearWorkspace ParameterError RadialGrid ResidualField RunConfig
SignConditionError SingularOperatorError SolveReport SolverParams SpectralField SpiralCurve
StructureError apply_linearization_inverse apply_mode_operator
assemble_linearization base_vorticity_factor bounds_check bracket build_grid certify
contraction_and_threshold cutoff_norm_table cutoff_normalization delta_of dense_solve
derived_fields dist_gap
eval_fields_batch eval_residual field_from_json field_to_json initial_data
invert_mode_operator linearization_set load_config match_initial_data
mode_norm newton_solve parse_config_text sample_cutoffs shift_minus shift_plus spiral_extract
to_chart to_plane verify xi_far xi_near
""".split()

# prints, as JSON, the package modules loaded by `import spiral_euler`, then
# the watched modules loaded once the CLI is imported and the config argv[1]
# read, and again after each command of argv[3:] has run into argv[2]
_IMPORT_SETS = (
    "import json, sys\n"
    "import spiral_euler\n"
    "bare = sorted(m for m in sys.modules if m.startswith('spiral_euler.'))\n"
    "import spiral_euler.cli as cli\n"
    "from spiral_euler.config import load_config\n"
    "watch = ('spiral_euler.certifier', 'spiral_euler.nonlinear', 'spiral_euler.solver',\n"
    "         'numpy.polynomial')\n"
    "load_config(sys.argv[1])\n"
    "sets = [[m for m in watch if m in sys.modules]]\n"
    "for cmd in sys.argv[3:]:\n"
    "    cli.main([cmd, '--config', sys.argv[1], '--out', sys.argv[2]])\n"
    "    sets.append([m for m in watch if m in sys.modules])\n"
    "print(json.dumps([bare, sets]))\n"
)


def test_each_command_loads_only_the_code_it_runs(tmp_path):
    match = tmp_path / "match.cfg"
    match.write_text("mu = 1.0\nN = 8\ngrid.points = 24\nomega.kind = match\n")
    desk = tmp_path / "desk.cfg"
    desk.write_text("mu = 1.0\nN = 8\ngrid.points = 24\n")

    def import_sets(cfg, *commands):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_SETS, str(cfg), str(tmp_path / "out"), *commands],
            capture_output=True, text=True, env=_package_env(), timeout=300, check=True,
        )
        return json.loads(proc.stdout.splitlines()[-1])

    bare, (probe, solved) = import_sets(desk, "solve")
    assert bare == []
    # the CLI and a config, the benchmark's set-up probe, load none of them
    assert probe == []
    assert solved == ["spiral_euler.nonlinear", "spiral_euler.solver"]
    # verify and reconstruct read the saved field and load neither
    _, (_, verified, reconstructed) = import_sets(desk, "verify", "reconstruct")
    assert verified == reconstructed == ["numpy.polynomial"]
    assert import_sets(match, "solve")[1][1] == ["spiral_euler.nonlinear", "spiral_euler.solver"]
    assert import_sets(desk, "certify")[1][1] == ["spiral_euler.certifier", "numpy.polynomial"]


def test_every_exported_name_imports_from_the_package():
    code = (
        "import importlib, sys, spiral_euler\n"
        "for name in sys.argv[1:]:\n"
        "    exec(f'from spiral_euler import {name} as value')\n"
        "    home = importlib.import_module(value.__module__)\n"
        "    assert getattr(home, name) is value, name\n"
        "print('ok')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *_EXPORTED],
        capture_output=True, text=True, env=_package_env(), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
    assert sorted(spiral_euler.__all__) == sorted(_EXPORTED)


def _cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "spiral_euler.cli", *argv],
        capture_output=True, text=True, env=_package_env(), timeout=300,
    )


def _saved_field(tmp_path, edit):
    """A desk solve whose field.json is then rewritten by ``edit``."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(DESK)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads((out / "field.json").read_text())
    edit(doc)
    (out / "field.json").write_text(json.dumps(doc))
    return cfg, out


def _drop_last_mode(doc):
    doc["modes"].pop()


def _add_conjugate_modes(doc):
    # the format before the implied modes -n were dropped
    for entry in list(doc["modes"]):
        if entry["n"] > 0:
            conj = [[re, -im] for re, im in entry["values"]]
            doc["modes"].append({"n": -entry["n"], "values": conj})


def _repeat_mode(doc):
    # a second, all-zero entry for mode 8 after the solved one
    doc["modes"].append({"n": 8, "values": [[0.0, 0.0]] * (doc["grid_points"] + 1)})


def _off_lattice_mode(doc):
    # four entries, one of them off the lattice N Z
    doc["modes"][-1]["n"] = 25


def _shorten_values(doc):
    doc["modes"][0]["values"].pop()


def _slot_form(doc):
    # the format before the rows were stored whole: each row split into its
    # ModeProfile slots; such a file must be solved again
    keys = ("mu", "N", "harmonics", "grid_points", "grid_scale")
    params = SolverParams(**{key: doc[key] for key in keys})
    cuts = sample_cutoffs(params.grid)
    pair = lambda z: [complex(z).real, complex(z).imag]
    for entry in doc["modes"]:
        row = np.array([complex(re, im) for re, im in entry.pop("values")])
        prof = ModeProfile.from_values(entry["n"], row[:-1], row[-1], cuts)
        entry["core"] = [pair(z) for z in prof.core]
        entry.update({key: pair(getattr(prof, key)) for key in ("c0", "cinf", "cconst")})


def _rescale_grid(doc):
    # the parameters of another grid beside the nodes the field was solved on
    doc["grid_scale"] = 2.0


def _nan_values(doc):
    next(entry for entry in doc["modes"] if entry["n"] == 8)["values"][5] = [float("nan"), 0.0]


def _nan_omega(doc):
    doc["omega"].append([8, float("nan"), 0.0])


def _empty_omega(doc):
    # an angular factor that is identically zero has no zero set to trace
    doc["omega"] = []


@pytest.mark.parametrize(
    "edit",
    [
        _drop_last_mode, _add_conjugate_modes, _repeat_mode, _off_lattice_mode, _shorten_values,
        _slot_form, _rescale_grid, _nan_values, _nan_omega, _empty_omega,
    ],
)
def test_unloadable_field_exits_as_config_error(tmp_path, edit):
    detail = {
        _repeat_mode: "5 modes for harmonics = 3, which stores 4",
        _off_lattice_mode: "the modes are not the stored n = N k, k = 0..3, each once: "
        "1 of them are missing",
        _shorten_values: "mode 0 values are not 97 [re, im] pairs",
        _slot_form: "missing key 'values'",
        _rescale_grid: "grid_nodes are not those of grid.points = 96, grid.scale = 2.0",
        _nan_values: "mode 8 values hold a non-finite number",
        _nan_omega: "omega has non-finite coefficients at modes [8]",
        _empty_omega: "omega is identically zero",
    }.get(edit, "modes for harmonics = 3, which stores 4")
    cfg, out = _saved_field(tmp_path, edit)
    field = str(out / "field.json")
    for argv in (["verify"], ["reconstruct", "--field", field]):
        proc = _cli(*argv, "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("configuration error: cannot load the saved field")
        assert detail in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1
    # no command wrote an artifact
    assert sorted(p.name for p in out.iterdir()) == ["config.echo", "field.json", "report.json"]


def _overflow_mode(doc):
    # every entry of mode 8 at 1e308: its derived fields overflow
    rows = next(entry for entry in doc["modes"] if entry["n"] == 8)
    rows["values"] = [[1e308, 1e308]] * len(rows["values"])


def _overflow_omega(doc):
    # finite coefficients whose sum, the angular factor, overflows
    doc["omega"] = [[-8, 1e308, 0.0], [0, 1e308, 0.0], [8, 1e308, 0.0]]


@pytest.mark.parametrize("edit, message", [
    (_overflow_mode, "derived field psi of modes [8] is not finite"),
    (_overflow_omega, "the vorticity overflows at "),
])
def test_overflowing_field_exits_as_verification_failure(tmp_path, edit, message):
    # a saved field whose derived fields or vorticity leave the float range
    # is refused, not evaluated with the overflowing part lost
    cfg, out = _saved_field(tmp_path, edit)
    field = str(out / "field.json")
    for argv in (["verify"], ["reconstruct", "--field", field]):
        proc = _cli(*argv, "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr.startswith(f"field evaluation failed: {message}")
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert sorted(p.name for p in out.iterdir()) == ["config.echo", "field.json", "report.json"]


def test_overflowing_omega_traces_its_zero_set_without_warnings(tmp_path):
    # the zero scan runs on omega scaled by a power of two, so the angular
    # factor's own overflow costs no curve and prints no warning
    cfg, out = _saved_field(tmp_path, _overflow_omega)
    field = str(out / "field.json")
    proc = _cli("reconstruct", "--config", str(cfg), "--field", field, "--out", str(out),
                "--format", "svg")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "16 zero-set curves" in proc.stdout


# a desk field at M = 24 and the keys of its field.json that mutations reach
_MUTATED = "mu = 1.0\nN = 8\ngrid.points = 24\nomega.amplitude = 0.01\n"
_FIELD_PATHS = (
    ("mu",), ("N",), ("harmonics",), ("grid_points",), ("grid_scale",), ("grid_nodes",),
    ("grid_nodes", 0), ("grid_nodes", -1), ("modes",), ("modes", 0), ("modes", 0, "n"),
    ("modes", 3, "n"), ("modes", 1, "values"), ("modes", 2, "values", 0),
    ("modes", 3, "values", -1, 1), ("omega",), ("omega", 0), ("omega", 1, 0), ("omega", 2, 1),
    ("config_digest",),
)
_DELETE = "delete"
# drawn sizes stay at or below those of the explicit examples, so that a
# loader that allocates what a size asks for stays within a few hundred MB
_FIELD_VALUES = st.one_of(
    st.sampled_from([None, True, False, "", "x", [], [1.0], {}, _DELETE]),
    st.integers(-3, 100),
    st.sampled_from([8, 24, 25, 96, 3000]),
    st.sampled_from(
        [0.0, -0.0, 0.5, 0.7, 1.0, 2.0, 8.5, 1e-300, 1e308, -1e308, 5e-324,
         float("inf"), float("-inf"), float("nan")]
    ),
)


@pytest.fixture(scope="module")
def mutated_field_run(tmp_path_factory):
    """A desk field.json at M = 24, its config and an output directory."""
    tmp = tmp_path_factory.mktemp("mutated")
    cfg = tmp / "run.cfg"
    cfg.write_text(_MUTATED)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp / "solved")]) == 0
    return json.loads((tmp / "solved" / "field.json").read_text()), cfg, tmp


@settings(max_examples=120, deadline=None, derandomize=True)
@given(edits=st.lists(st.tuples(st.sampled_from(_FIELD_PATHS), _FIELD_VALUES), min_size=1,
                      max_size=3))
@example(edits=[(("grid_points",), 3000)])
@example(edits=[(("harmonics",), 2_000_000)])
@example(edits=[(("modes", 0, "n"), float("inf"))])
@example(edits=[(("omega", 0, 0), float("inf"))])
@example(edits=[(("N",), 8.0)])
@example(edits=[(("grid_scale",), 1e308)])
@example(edits=[(("omega", 0, 0), 8)])
@example(edits=[(("omega", 1, 2), 0.5)])
@example(edits=[(("omega", 2, 2), 0.5)])
def test_mutated_field_loads_or_exits_with_one_line(mutated_field_run, edits):
    # a saved field with any key replaced or deleted reconstructs (0) or is
    # refused with one short line and no artifact: a field that does not
    # load (1) or does not evaluate (4).  The sizes are checked before
    # anything of the size they claim is formed, so no run comes near the
    # 394 MB a 3000-point grid takes or the 18.6 MB line that listed two
    # million modes.
    doc, cfg, tmp = mutated_field_run
    doc = json.loads(json.dumps(doc))
    for path, value in edits:
        owner = doc
        try:
            for key in path[:-1]:
                owner = owner[key]
            if value == _DELETE:
                del owner[path[-1]]
            else:
                owner[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            pass  # an earlier edit removed or replaced the path
    field = tmp / "field.json"
    field.write_text(json.dumps(doc))
    svg = tmp / "out" / "spirals.svg"
    svg.unlink(missing_ok=True)
    err = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["reconstruct", "--config", str(cfg), "--field", str(field),
                         "--out", str(tmp / "out"), "--format", "svg"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 4), err.getvalue()
    assert not caught, [str(w.message) for w in caught]
    assert len(lines) <= 1 and all(len(line) <= 500 for line in lines), err.getvalue()[:1000]
    assert code == 0 or lines
    assert svg.exists() == (code == 0)
    assert peak < 50e6, peak


def _reconstruct_saved(run, doc):
    """Exit code and stderr lines of reconstruct --field on a saved field document."""
    _, cfg, tmp = run
    field = tmp / "field.json"
    field.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["reconstruct", "--config", str(cfg), "--field", str(field),
                     "--out", str(tmp / "out"), "--format", "svg"])
    return code, err.getvalue().splitlines()


# the desk omega is [[-8, 0.005, 0.0], [0, 1.0, 0.0], [8, 0.005, 0.0]]; each
# edit makes it describe no real angular factor, and the same entries as
# omega.coeffs are refused by the config
@pytest.mark.parametrize("path, value, message", [
    (("omega", 0, 0), 8, "omega lists mode 8 twice"),
    (("omega", 1, 2), 0.5, "omega mode 0 must be real, got (1+0.5j)"),
    (("omega", 2, 2), 0.5, "omega mode -8 must be the conjugate of mode 8 for a real "
     "angular factor: (0.005+0j) != (0.005-0.5j)"),
], ids=["duplicate", "imaginary-mean", "not-conjugate"])
def test_saved_omega_of_no_real_factor_is_refused(mutated_field_run, path, value, message):
    doc = json.loads(json.dumps(mutated_field_run[0]))
    doc[path[0]][path[1]][path[2]] = value
    code, lines = _reconstruct_saved(mutated_field_run, doc)
    assert code == 1 and len(lines) == 1, lines
    assert lines[0].startswith("configuration error: cannot load the saved field")
    assert lines[0].endswith(message)
    coeffs = ",".join(f"{n}:{re}:{im}" for n, re, im in doc["omega"])
    with pytest.raises(ConfigError, match=re.escape(message.replace("omega", "omega.coeffs"))):
        parse_config_text(f"mu = 1.0\nN = 8\nomega.kind = coeffs\nomega.coeffs = {coeffs}\n")


@pytest.mark.parametrize("value", [0.1, float("nan")], ids=["finite", "nan"])
def test_saved_omega_counts_its_many_bad_modes(mutated_field_run, value):
    # 2000 entries off the lattice, finite or not, are counted in one short line
    doc = json.loads(json.dumps(mutated_field_run[0]))
    doc["omega"] += [[8 * k + 1, value, 0.0] for k in range(2000)]
    code, lines = _reconstruct_saved(mutated_field_run, doc)
    assert code == 1 and len(lines) == 1, lines[:1]
    assert len(lines[0]) <= 500, len(lines[0])
    assert lines[0].endswith("omega has modes [1, 9, 17, 25, 33] and 1995 more off the lattice "
                             "of N=8")


def test_omega_coeffs_counts_its_many_off_lattice_modes(tmp_path):
    coeffs = ",".join(f"{8 * k + 1}:0.1:0" for k in range(2000))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"mu = 1.0\nN = 8\nomega.kind = coeffs\nomega.coeffs = {coeffs}\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
    lines = err.getvalue().splitlines()
    assert code == 1 and len(lines) == 1, lines[:1]
    assert len(lines[0]) <= 500, len(lines[0])
    assert lines[0] == ("configuration error: omega.coeffs has modes [1, 9, 17, 25, 33] and 1995 "
                        "more off the lattice of N=8")
    assert not (tmp_path / "out").exists()


def test_match_past_the_trust_region_fails_with_one_line(tmp_path):
    # the trust-region check fails the match with the solve's own message;
    # no warning is printed before it
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mu = 1.0\nN = 8\ngrid.points = 24\nomega.kind = match\n"
                   "target.amplitude = 0.3\n")
    proc = _cli("solve", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("solve failed: angular perturbation seminorm")
    assert len(proc.stderr.splitlines()) == 1, proc.stderr


def test_failed_chart_inversion_exits_as_verification_failure(tmp_path):
    def negate_constant(doc):
        # mode 0's constant slot turns to its negative, which takes twice the
        # row's far value off every entry; dbeta_bar psi then turns positive,
        # and the chart map is undefined
        zero = next(entry for entry in doc["modes"] if entry["n"] == 0)
        far_re, far_im = zero["values"][-1]
        zero["values"] = [[re - 2 * far_re, im - 2 * far_im] for re, im in zero["values"]]
        # an angular factor with zeros, so that spirals.svg has curves to map
        doc["omega"] = [[-8, 0.6, 0.0], [0, 1.0, 0.0], [8, 0.6, 0.0]]

    cfg, out = _saved_field(tmp_path, negate_constant)
    field = str(out / "field.json")
    for argv in (["verify"], ["reconstruct"], ["reconstruct", "--field", field, "--format", "svg"]):
        proc = _cli(*argv, "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 4, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr == (
            "chart inversion failed: the radial derivative lost its sign; run bounds_check\n"
        )


def test_evaluator_error_is_no_load_error(tmp_path, monkeypatch):
    # the evaluator is built after the field has loaded: a ValueError of its
    # own is not reported as a saved field that cannot be loaded
    from spiral_euler import ParameterError, cli

    cfg, out = tmp_path / "run.cfg", tmp_path / "out"
    cfg.write_text(DESK)
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0

    def refuse(stream):
        raise ParameterError("evaluator refused")

    monkeypatch.setattr(cli, "FieldEvaluator", refuse)
    for argv in (["verify"], ["reconstruct", "--field", str(out / "field.json")]):
        with pytest.raises(ParameterError, match="evaluator refused"):
            main([*argv, "--config", str(cfg), "--out", str(out)])


@pytest.mark.parametrize("argv, message", [
    (["certify", "--bogus"], "unrecognized arguments: --bogus"),
    (["solve", "--format", "csv"], "unrecognized arguments: --format csv"),
    ([], "the following arguments are required: command"),
    (["frob"], "invalid choice: 'frob'"),
    (["render", "--config", "run.cfg"], "invalid choice: 'render'"),
])
def test_usage_error_exits_as_config_error(argv, message):
    proc = _cli(*argv)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("configuration error: ")
    assert message in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1


def test_help_exits_zero():
    proc = _cli("reconstruct", "--help")
    assert proc.returncode == 0, proc.stderr
    assert "--format" in proc.stdout


@pytest.mark.parametrize("command, lines, message", [
    ("verify", "verify.suites = selfsim,bogus", "verify.suites: unknown suites ['bogus']"),
    ("verify", "verify.suites = selfsim,selfsim", "verify.suites names ['selfsim'] more than once"),
    ("solve", "omega.kind = coeffs\nomega.coeffs = 8:0.01",
     "omega.coeffs entry '8:0.01' is not n:re:im"),
    ("solve", "omega.kind = coeffs\nomega.coeffs = x:1:0",
     "omega.coeffs entry 'x:1:0' is not n:re:im"),
    ("solve", "omega.kind = coeffs\nomega.coeffs = 0:1.0:0,3:0.01:0",
     "omega.coeffs has modes [3] off the lattice of N=8"),
    ("solve", "omega.kind = coeffs\nomega.coeffs = 0:1:0,8:0.01:0,-8:0.5:0",
     "omega.coeffs mode -8 must be the conjugate of mode 8"),
    ("certify", "seed = -1", "seed must be non-negative, got -1"),
    ("verify", "seed = -1", "seed must be non-negative, got -1"),
    ("reconstruct", "seed = -1", "seed must be non-negative, got -1"),
    ("certify --seed -7", "", "seed must be non-negative, got -7"),
    ("verify --seed -7", "", "seed must be non-negative, got -7"),
    ("reconstruct --seed -7", "", "seed must be non-negative, got -7"),
    ("reconstruct", "reconstruct.samples = 0", "reconstruct.samples must be positive, got 0"),
    ("reconstruct", "reconstruct.samples = -3", "reconstruct.samples must be positive, got -3"),
    ("reconstruct", "reconstruct.t = 0", "reconstruct.t must be positive, got 0.0"),
    ("reconstruct", "reconstruct.t = -1", "reconstruct.t must be positive, got -1.0"),
    ("reconstruct", "reconstruct.t = nan", "reconstruct.t must be positive, got nan"),
    ("reconstruct", "reconstruct.t = inf", "reconstruct.t must be finite, got inf"),
    ("solve", "solver.max_iter = -1", "solver.max_iter must be non-negative, got -1"),
    ("solve", "omega.kind = match\nsolver.max_iter = -1",
     "solver.max_iter must be non-negative, got -1"),
    # the match is a rescaling and one solve: it has no outer iteration cap to set
    ("solve", "omega.kind = match\nsolver.outer_max_iter = 50",
     "line 5: unknown key 'solver.outer_max_iter'"),
    # --out and --format alone choose where a run writes and what reconstruct writes
    ("solve", "output.dir = elsewhere", "line 4: unknown key 'output.dir'"),
    ("reconstruct", "output.formats = csv", "line 4: unknown key 'output.formats'"),
    # a key that the omega.kind does not read is refused, not ignored
    ("solve", "omega.coeffs = 0:1:0,8:0.3:0,-8:0.3:0",
     "line 4: omega.coeffs is not read when omega.kind = constant_plus_cos"),
    ("solve", "omega.kind = coeffs\nomega.coeffs = 0:1:0\nomega.amplitude = 0.3",
     "line 6: omega.amplitude is not read when omega.kind = coeffs"),
    ("solve", "omega.kind = match\nomega.harmonic = 16",
     "line 5: omega.harmonic is not read when omega.kind = match"),
    ("solve", "omega.kind = match\nomega.coeffs = 0:1:0",
     "line 5: omega.coeffs is not read when omega.kind = match"),
    ("verify", "target.amplitude = 0.3",
     "line 4: target.amplitude is not read when omega.kind = constant_plus_cos"),
    ("reconstruct", "omega.kind = coeffs\nomega.coeffs = 0:1:0\ntarget.harmonic = 8",
     "line 6: target.harmonic is not read when omega.kind = coeffs"),
    ("verify", "verify.suites = ", "verify.suites must name at least one suite"),
    ("solve", "solver.epsilon_cap = nan", "solver.epsilon_cap must be positive, got nan"),
    ("solve", "solver.tol = 0", "solver.tol must be positive, got 0.0"),
    ("solve", "solver.tol = nan", "solver.tol must be positive, got nan"),
    ("solve", "mu = inf", "mu must be finite, got inf"),
    ("solve", "grid.scale = inf", "grid.scale must be finite, got inf"),
    ("solve", "omega.amplitude = nan", "omega.amplitude must be finite, got nan"),
    ("solve", "solver.epsilon_cap = inf", "solver.epsilon_cap must be finite, got inf"),
    ("solve", "omega.kind = coeffs\nomega.coeffs = 0:nan:0",
     "omega.coeffs has non-finite coefficients at modes [0]"),
    ("solve", "omega.kind = coeffs\nomega.coeffs = 8:inf:0,-8:inf:0",
     "omega.coeffs has non-finite coefficients at modes [-8, 8]"),
    ("solve", "omega.kind = coeffs\nomega.coeffs = 8:1e400:0,-8:1e400:0",
     "omega.coeffs has non-finite coefficients at modes [-8, 8]"),
    ("solve", "omega.harmonic = 32", "omega.harmonic = 32 lies past N * harmonics = 24"),
    ("verify", "omega.harmonic = -32", "omega.harmonic = -32 lies past N * harmonics = 24"),
    ("solve", "omega.kind = match\ntarget.harmonic = 32",
     "target.harmonic = 32 lies past N * harmonics = 24"),
    ("reconstruct", "harmonics = 1\ntarget.harmonic = 16",
     "target.harmonic = 16 lies past N * harmonics = 8"),
    # the mode indices N*k are int64: past 2^63 - 1 they overflow or wrap
    ("solve", "N = 100000000000000000000",
     "invalid parameters: N * harmonics = 300000000000000000000 exceeds"),
    ("certify", "N = 3074457345618258603",
     "invalid parameters: N * harmonics = 9223372036854775809 exceeds"),
])
def test_bad_config_value_exits_before_any_solve(tmp_path, command, lines, message):
    cfg = tmp_path / "run.cfg"
    keys = {line.split("=")[0].strip() for line in lines.splitlines()}
    base = [f"{k} = {v}" for k, v in (("mu", 1.0), ("N", 8), ("grid.points", 96)) if k not in keys]
    cfg.write_text("\n".join(base + [lines]) + "\n")
    out = tmp_path / "out"
    proc = _cli(*command.split(), "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"configuration error: {message}")
    assert len(proc.stderr.strip().splitlines()) == 1
    assert not out.exists()


def test_solve_folds_dropped_mass_warnings_into_one_line(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(ZERO_CROSSING)
    proc = _cli("solve", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    found = re.fullmatch(
        r"warning: (\d+) residual evaluations dropped harmonic mass above the gate; "
        r"largest (\S+) against the residual scale (\S+)",
        lines[0],
    )
    assert found, lines[0]
    assert int(found[1]) > 1
    assert float(found[2]) > 1e-8 * float(found[3])


def test_reconstruct_artifacts_byte_identical_across_dirs(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(ZERO_CROSSING)
    for out in ("a", "b"):
        for command in ("solve", "reconstruct"):
            proc = _cli(command, "--config", str(cfg), "--out", str(tmp_path / out))
            assert proc.returncode == 0, proc.stderr
        assert "16 zero-set curves" in proc.stdout
    for name in ("samples.csv", "spirals.csv", "spirals.svg"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("command", ["solve", "reconstruct"])
def test_unwritable_out_exits_as_config_error(tmp_path, command):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(DESK)
    blocker = tmp_path / "plain-file"
    blocker.write_text("")
    extra = []
    if command == "reconstruct":
        # the saved field loads; the output directory is refused after it
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "solved")]) == 0
        extra = ["--field", str(tmp_path / "solved" / "field.json")]
    proc = _cli(command, "--config", str(cfg), "--out", str(blocker / "out"), *extra)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("configuration error: cannot write the output directory")
    assert len(proc.stderr.strip().splitlines()) == 1


def test_reconstruct_rejects_unknown_format(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(DESK)
    out = tmp_path / "out"
    proc = _cli("reconstruct", "--config", str(cfg), "--out", str(out), "--format", "csv,pdf")
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == "configuration error: --format must be a subset of csv,svg\n"
    assert proc.stdout == ""
    assert not out.exists()


def test_config_digest_is_the_hash_of_the_echo():
    # the config_hash every artifact embeds; its value is pinned so that a
    # change to the echo format or the key table shows here
    cfg = parse_config_text(DESK)
    assert cfg.digest() == "3f24c107a750d57d"
    assert cfg.digest() == hashlib.sha256(cfg.effective_text().encode()).hexdigest()[:16]
    assert parse_config_text(DESK + "seed = 7\n").digest() != cfg.digest()


def test_artifact_key_sets(tmp_path):
    # the dataclasses SolveReport, Certificate (with DistRow and SpotRow) and
    # SolverParams define these formats; a field added to one fails here
    cfg = tmp_path / "run.cfg"
    cfg.write_text(DESK)
    out = tmp_path / "out"
    assert main(["certify", "--config", str(cfg), "--out", str(out)]) == 2
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    stamp = {"config_hash", "seed"}

    report = json.loads((out / "report.json").read_text())
    assert set(report) == stamp | {
        "converged", "iterations", "residual_history", "bounds_ok", "epsilon_used",
        "time_scale", "margins",
    }

    doc = json.loads((out / "certificate.json").read_text())
    assert set(doc) == stamp | {"certificate"}
    cert = doc["certificate"]
    assert set(cert) == {
        "mu", "N", "delta", "dist_rows", "cutoff_norms", "contraction", "threshold",
        "passes", "notes", "spot_checks",
    }
    assert len(cert["dist_rows"]) == 6 and len(cert["spot_checks"]) == 3
    for row in cert["dist_rows"]:
        assert set(row) == {"n", "branch", "exact", "quoted_lower", "quoted_upper", "flagged"}
    for row in cert["spot_checks"]:
        assert set(row) == {"n", "ratio", "bound", "ok"}

    field = json.loads((out / "field.json").read_text())
    params = set(field) - stamp - {"grid_nodes", "modes", "omega"}
    assert params == {"mu", "N", "harmonics", "grid_points", "grid_scale"}


@pytest.mark.filterwarnings("ignore:dropped harmonic mass")
def test_reconstruct_refuses_format_json(tmp_path, monkeypatch, capsys):
    # reconstruct writes no JSON file, so --format json names nothing to
    # write: it exits 1 before any solve, extraction or directory
    from spiral_euler import cli

    def unwanted(*args, **kwargs):
        raise AssertionError("a refused --format reached the command")

    monkeypatch.setattr(cli, "spiral_extract", unwanted)
    monkeypatch.setattr(cli, "cmd_solve", unwanted)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(ZERO_CROSSING)
    out = tmp_path / "out"
    assert main(["reconstruct", "--config", str(cfg), "--out", str(out), "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "configuration error: --format must be a subset of csv,svg\n"
    assert not out.exists()


@pytest.mark.parametrize("text", [
    # at mu = 1, t = 1e300 maps the samples to |z| ~ 1e-300, where the chart
    # inversion's safeguard leaves the float range
    DESK + "reconstruct.t = 1e300\n",
    # at mu = 2, t^-mu underflows and would map every sample to the origin
    "mu = 2.0\nN = 8\ngrid.points = 96\nreconstruct.t = 1e300\n",
], ids=["safeguard-overflows", "time-scale-underflows"])
@pytest.mark.filterwarnings("ignore:dropped harmonic mass")
def test_reconstruct_out_of_reach_exits_as_verification_failure(tmp_path, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    proc = _cli("reconstruct", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 4, proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("chart inversion failed: chart inversion cannot reach |z| = ")
    assert not (out / "samples.csv").exists()


@pytest.mark.parametrize("text", [
    "mu = 1.5\nN = 16\ngrid.points = 96\nomega.amplitude = 1.4\n"
    "solver.epsilon_cap = 0.5\nreconstruct.t = 1e300\n",
    ZERO_CROSSING + "reconstruct.t = 1e308\n",
], ids=["power-overflows", "points-overflow"])
@pytest.mark.filterwarnings("ignore:dropped harmonic mass")
def test_reconstruct_curves_past_float_range_exit_as_verification_failure(tmp_path, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    proc = _cli("reconstruct", "--config", str(cfg), "--out", str(out), "--format", "svg")
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr == (
        f"chart inversion failed: the zero-set curves at t = {float(text.split()[-1]):.3e} "
        "leave the float range\n"
    )
    assert not (out / "spirals.svg").exists() and not (out / "spirals.csv").exists()
