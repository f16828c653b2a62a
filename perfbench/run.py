"""Benchmark of the spiral-euler CLI pipeline, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload baseline   reference pipeline, traced, layer table

``--workload oracle`` (the quadrature inverse against the matrix inverse) runs
the same way but is not one of BENCHMARK.json's workloads; see NOTES.md.

Run from the repository root.  ``--trace 0`` runs the workload's commands as
child processes (``python -m spiral_euler.cli``, one BLAS thread each), one
pass after another until ``--seconds`` have passed, and reports the
end-to-end metrics.  ``--trace 1`` runs one untraced and one traced pass
in-process through ``spiral_euler.cli.main`` and reports the per-layer
metrics and the tracing overhead.  Every run checks the outputs against the
acceptance gates.  The last line of standard output is the result JSON; the
line before it is the full report (environment, per-command medians with
sample counts, accuracy figures, every failed operation with its reason).
Configs and outputs of a run are deleted at exit; the span file of a traced
run is kept as ``perfbench/_work/spans-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import plans
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# set-up probes taken before and again after the passes, so that a drift of
# the machine's speed during the run shows in both halves of the median
SETUP_PROBES = 3
PROBE_CODE = (
    "import sys, spiral_euler.cli\n"
    "from spiral_euler.config import load_config\n"
    "load_config(sys.argv[1])\n"
)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


class Runner:
    """Starts children one at a time and keeps the largest resident set."""

    def __init__(self, env: dict):
        self.env = env
        self.peak_rss_mb = 0.0

    def run(self, argv: list[str], log_path: Path, timeout: float = plans.STEP_TIMEOUT_S):
        with open(log_path, "w") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, cwd=ROOT, stdout=log,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        return proc.returncode, wall

    def cli_step(self, step: dict) -> dict:
        out = Path(step["out"])
        if step.get("stage_field"):
            shutil.copy(step["stage_field"], out / "field.json")
        code, wall = self.run([sys.executable, "-m", "spiral_euler.cli", *step["argv"]],
                              out / "log.txt")
        return {"exit": code, "wall": wall}

    def worker(self, mode: str, doc: dict, path: Path, timeout=plans.STEP_TIMEOUT_S) -> dict:
        request, result = path.with_suffix(".json"), path.with_suffix(".result.json")
        request.write_text(json.dumps(doc))
        code, wall = self.run([sys.executable, str(HERE / "worker.py"), mode, str(request),
                               str(result)], path.with_suffix(".log"), timeout)
        if code != 0:
            return {"exit": code, "wall": wall}
        out = json.loads(result.read_text())
        out["wall"] = wall
        return out

    def step(self, step: dict, work: Path) -> dict:
        if step["kind"] == "oracle":
            return self.worker("oracle", step, work / step["label"].replace(" ", "-"))
        return self.cli_step(step)


def median_report(values) -> dict:
    return {"median": statistics.median(values), "n": len(values)}


def kind_times(steps, results) -> dict:
    """Wall time per CLI command kind; the oracle reports its quadrature time."""
    out: dict = {}
    for step, res in zip(steps, results):
        if step["kind"] == "oracle":
            cases = res.get("cases") or []
            out.setdefault("oracle", []).append(sum(c["quad_s"] for c in cases))
        else:
            out.setdefault(step["kind"], []).append(res["wall"])
    return out


def environment(runner: Runner, work: Path, seed: int) -> dict:
    code, _ = runner.run([sys.executable, str(HERE / "worker.py"), "env"], work / "env.log")
    env = json.loads((work / "env.log").read_text().splitlines()[-1]) if code == 0 else {}
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    env["git_commit"] = commit or "unknown (not a git checkout)"
    env["seed"] = seed
    env["src_lines"] = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return env


def run_untraced(wl, ctx, runner, seconds, ledger, report) -> dict:
    cfg = ctx.configs[wl.probe_config]
    probe = [sys.executable, "-c", PROBE_CODE, cfg]

    def probe_setup():
        return [runner.run(probe, ctx.work / "probe.log")[1] for _ in range(SETUP_PROBES)]

    setup = probe_setup()

    for step in wl.setup_steps(ctx):
        plans.check_step(step, runner.step(step, ctx.work), ledger)

    walls, kinds = [], {}
    t_start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - t_start < seconds:
        steps = wl.pass_steps(ctx, k, traced=False)
        results = [runner.step(step, ctx.work) for step in steps]
        for step, res in zip(steps, results):
            plans.check_step(step, res, ledger)
        walls.append(sum(res["wall"] for res in results))
        for kind, vals in kind_times(steps, results).items():
            kinds.setdefault(kind, []).extend(vals)
        k += 1
    setup += probe_setup()

    report["passes"] = k
    report["setup_probes_s"] = setup
    report["pass_walls_s"] = walls
    report["command_s"] = {kind: median_report(v) for kind, v in kinds.items()}
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": runner.peak_rss_mb,
    }


def run_traced(wl, ctx, runner, ledger, report, spans_path: Path,
               timeout=plans.STEP_TIMEOUT_S) -> dict:
    plan = {
        "workload": wl.name,
        "seed": ctx.seed,
        "setup": wl.setup_steps(ctx),
        # one command ahead of the passes, so lazy imports and caches fill
        # before either pass is timed
        "warmup": [s for s in wl.pass_steps(ctx, "w", traced=True)[:1] if s["kind"] != "oracle"],
        "untraced": wl.pass_steps(ctx, 0, traced=True),
        "traced": wl.pass_steps(ctx, 1, traced=True),
        "spans": str(spans_path),
    }
    res = runner.worker("trace", plan, ctx.work / "trace", timeout)
    if "metrics" not in res:
        raise RuntimeError(f"traced run failed with exit {res.get('exit')}; "
                           f"see {ctx.work / 'trace.log'}")
    for part in ("setup", "warmup", "untraced", "traced"):
        for step, step_res in zip(plan[part], res[part]):
            plans.check_step(step, step_res, ledger)
    metrics = res["metrics"]
    # self times of all spans must add up to the traced wall time
    gap = abs(res["self_sum_s"] - metrics["trace.wall_s"])
    if gap > 1e-6 * max(metrics["trace.wall_s"], 1.0):
        verdict = plans.Verdict()
        verdict.fail(f"self times miss the traced wall by {gap:.3e} s")
        ledger.record("trace self-time sum", verdict)
    report["self_sum_s"] = res["self_sum_s"]
    report["command_s"] = {k: median_report(v) for k, v in
                           kind_times(plan["traced"], res["traced"]).items()}
    report["spans_file"] = plan["spans"]
    return metrics


def summarize_accuracy(acc: dict) -> dict:
    return {k: {"min": min(v), "max": max(v), "n": len(v)} for k, v in acc.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(plans.RUNNABLE),
                        help="a measured workload, 'oracle' (measured by hand), or "
                             "'baseline': trace the whole reference pipeline once and "
                             "print a layer table")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spiral_euler" / "cli.py").is_file():
        print(f"no spiral_euler package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    wl = plans.RUNNABLE[args.workload]
    seed = args.seed % 2**32
    work = HERE / "_work" / f"{wl.name}-{seed}-{os.getpid()}"
    spans_path = HERE / "_work" / f"spans-{wl.name}-{seed}.jsonl"
    work.mkdir(parents=True)
    try:
        ctx = plans.Context(work=work, seed=seed)
        wl.prepare(ctx)
        runner = Runner(child_env())
        ledger = plans.Ledger()
        report = {"workload": wl.name, "seed": seed, "seconds": args.seconds, "trace": args.trace}
        report["environment"] = environment(runner, work, seed)
        if wl is plans.BASELINE:
            metrics = run_traced(wl, ctx, runner, ledger, report, spans_path, timeout=900.0)
            spans = [json.loads(line) for line in open(spans_path)]
            print(tracing.span_table(spans), file=sys.stderr)
            units = {name: tracing.unit_of(name) for name in metrics}
        elif args.trace:
            metrics = run_traced(wl, ctx, runner, ledger, report, spans_path)
            units = {name: tracing.unit_of(name) for name in metrics}
        else:
            metrics = run_untraced(wl, ctx, runner, args.seconds, ledger, report)
            units = E2E_UNITS
        report["accuracy"] = summarize_accuracy(ledger.accuracy)
        report["failures"] = ledger.failures
        report["attempted"] = ledger.attempted
        finite = all(math.isfinite(v) for v in metrics.values())
        correct = finite and ledger.attempted > 0 and not ledger.unexpected
        result = {
            "correct": correct,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        }
        for failure in ledger.failures:
            for reason in failure["reasons"]:
                print(f"FAILED: {failure['op']}: {reason}", file=sys.stderr)
            for reason in failure["known_defects"]:
                print(f"failed, known defect: {failure['op']}: {reason}", file=sys.stderr)
        print(json.dumps({"report": report}))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
