"""Failure counting behind the benchmark's attempted/failed figures.

    python3 -m pytest perfbench/tests
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import plans  # noqa: E402


def make_step(tmp_path, kind, expect=0, config=None):
    out = tmp_path / "out"
    out.mkdir(exist_ok=True)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config or plans.config_text(1.0, 8, 32))
    return {"kind": kind, "label": f"{kind} test", "expect": expect,
            "out": str(out), "config": str(cfg)}


def write_report(step, residual, bounds_ok=True):
    doc = {"residual_history": [1.0, residual], "bounds_ok": bounds_ok}
    for name in ("report.json", "field.json"):
        (Path(step["out"]) / name).write_text(json.dumps(doc))


def test_expected_nonzero_exit_is_not_a_failure(tmp_path):
    ledger = plans.Ledger()
    step = make_step(tmp_path, "certify", expect=2)
    plans.check_step(step, {"exit": 2}, ledger)
    plans.check_step(step, {"exit": 0}, ledger)
    assert ledger.attempted == 2 and ledger.failed == 1
    assert "exit code 0, expected 2" in ledger.failures[0]["reasons"][0]


def test_solve_gates(tmp_path):
    ledger = plans.Ledger()
    step = make_step(tmp_path, "solve")
    write_report(step, 1e-12)
    plans.check_step(step, {"exit": 0}, ledger)
    assert ledger.failed == 0
    ledger = plans.Ledger()
    write_report(step, 1e-10, bounds_ok=False)
    plans.check_step(step, {"exit": 0}, ledger)
    assert ledger.failed == 1
    assert len(ledger.failures[0]["reasons"]) == 2


def test_repeat_artifacts_must_match(tmp_path):
    ledger = plans.Ledger()
    step = make_step(tmp_path, "solve")
    write_report(step, 1e-12)
    plans.check_step(step, {"exit": 0}, ledger)
    write_report(step, 2e-12)
    plans.check_step(step, {"exit": 0}, ledger)
    assert ledger.failed == 1
    assert any("differs from an earlier run" in r for r in ledger.failures[0]["reasons"])


def test_verify_gates(tmp_path):
    step = make_step(tmp_path, "verify")
    report = {
        "selfsim": {"max_rel_defect": 1e-12},
        "lp": [{"ok": True}] * 17 + [{"ok": False}],
        "divfree": [{"rel": 1e-9}],
        "poisson": [{"rel": 2e-5}],
    }
    (Path(step["out"]) / "verify.json").write_text(json.dumps({"report": report, "passed": False}))
    ledger = plans.Ledger()
    plans.check_step(step, {"exit": 0}, ledger)
    reasons = ledger.failures[0]["reasons"]
    assert ledger.failed == 1 and ledger.unexpected
    assert any(r.startswith("lp: 17 of 18") for r in reasons)
    assert any(r.startswith("poisson residual") for r in reasons)
    assert not any("divfree" in r or "selfsim" in r for r in reasons)


def write_spirals(step, N, numpy_repr=False, radius_scale=1.0):
    lines = ["phi0,t,beta,x1,x2"]
    for j in range(2 * N):
        for beta in (0.5, 1.0, 2.0):
            r = radius_scale * (1.0 / beta)  # inside [sqrt(1/2), sqrt(3/2)] * (t/beta)
            cells = [repr(0.1 * j), "1.0", repr(beta), repr(r), "0.0"]
            if numpy_repr:
                cells[2:] = [f"np.float64({c})" for c in cells[2:]]
            lines.append(",".join(cells))
    out = Path(step["out"])
    (out / "spirals.csv").write_text("\n".join(lines) + "\n")
    (out / "samples.csv").write_text("h\n" + "1\n" * plans.RECONSTRUCT_SAMPLES)
    (out / "spirals.svg").write_text("<svg/>")


def test_reconstruct_known_defect_does_not_make_the_run_incorrect(tmp_path):
    step = make_step(tmp_path, "reconstruct")
    write_spirals(step, N=8, numpy_repr=True)
    ledger = plans.Ledger()
    plans.check_step(step, {"exit": 0}, ledger)
    assert ledger.failed == 1 and not ledger.unexpected
    assert "np.float64" in ledger.failures[0]["known_defects"][0]


def test_reconstruct_curve_count_and_envelope(tmp_path):
    step = make_step(tmp_path, "reconstruct")
    write_spirals(step, N=7, radius_scale=2.0)  # config says N = 8
    ledger = plans.Ledger()
    plans.check_step(step, {"exit": 0}, ledger)
    reasons = ledger.failures[0]["reasons"]
    assert "14 curves, expected 2N = 16" in reasons
    assert any("outside the admissibility envelope" in r for r in reasons)


def oracle_row(n, cinf=0.0, known=None, status="ok", err=1e-12, matrix_err=1e-15):
    return {"n": n, "shift": 1.3, "cinf": cinf, "limit": 5.0, "known": known,
            "status": status, "quad_s": 1.0, "rt_quad": err, "rt_matrix": matrix_err,
            "q_vs_m": err}


def test_oracle_far_field_cases_fail_as_known_only_in_their_documented_way():
    step = {"kind": "oracle", "cases": []}
    wrong, slow = plans.WRONG_INVERSE, plans.OVER_LIMIT
    rows = [
        oracle_row(1),
        oracle_row(2, err=3e-8),
        oracle_row(1, 0.3, wrong, err=1.7, matrix_err=2e-3),
        oracle_row(1, 0.3, slow, status=plans.OVER_LIMIT),
        # the same cases failing for another reason are new failures
        oracle_row(1, 0.3, wrong, status=plans.OVER_LIMIT),
        oracle_row(1, 0.3, slow, err=1.7),
        oracle_row(1, 0.3, wrong, status="raised"),
        oracle_row(1, 0.3, wrong, err=1.7, matrix_err=0.5),
    ]
    ledger = plans.Ledger()
    plans.check_step(step, {"exit": 0, "cases": rows}, ledger)
    assert ledger.attempted == 8 and ledger.failed == 7
    known_only = [f for f in ledger.failures if not f["reasons"]]
    assert len(known_only) == 2 and len(ledger.unexpected) == 5
    assert all(f["known_defects"] for f in known_only)
    last = ledger.failures[-1]
    assert [r.split()[0] for r in last["reasons"]] == ["matrix"]
    assert len(last["known_defects"]) == 2


def test_oracle_cases_name_their_known_defect():
    cases = plans.oracle_cases()
    assert {c["known"] for c in cases if c["cinf"]} == {plans.WRONG_INVERSE, plans.OVER_LIMIT}
    assert all(c["known"] is None for c in cases if not c["cinf"])


def test_every_run_compares_repeat_artifacts(tmp_path):
    """Set-up repeats a command of the passes, or the passes repeat themselves,
    so the byte-identity check has a pair to compare in every untraced run."""
    for name in ("solve-sweep", "verify-ref"):
        ctx = plans.Context(work=tmp_path / name, seed=1)
        ctx.work.mkdir()
        wl = plans.WORKLOADS[name]
        wl.prepare(ctx)
        seen = set()
        repeated = False
        for step in wl.setup_steps(ctx) + wl.pass_steps(ctx, 0, traced=False):
            key = (step["kind"], step["config"])
            repeated |= key in seen
            seen.add(key)
        assert repeated, name


def test_oracle_worker_crash_fails_every_case():
    step = {"kind": "oracle", "cases": plans.oracle_cases()}
    ledger = plans.Ledger()
    plans.check_step(step, {"exit": -9}, ledger)
    assert ledger.attempted == ledger.failed == len(step["cases"])
    assert len(ledger.unexpected) == ledger.failed
