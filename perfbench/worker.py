"""Child-process side of the benchmark.

    python3 perfbench/worker.py env                  environment block as JSON
    python3 perfbench/worker.py oracle STEP RESULT   one oracle pass
    python3 perfbench/worker.py trace PLAN RESULT    untraced + traced in-process pass

The parent starts it with ``src`` on ``PYTHONPATH`` and one BLAS thread.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import signal
import sys
import time
from pathlib import Path

import plans


class CallTimeout(Exception):
    pass


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise CallTimeout in this thread once ``seconds`` of wall time pass."""

    def on_alarm(signum, frame):
        raise CallTimeout()

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def oracle_profile(case: dict, seed: int, index: int, grid, cuts):
    """Seeded smooth profile decaying at both ends, plus the case's far slot."""
    import numpy as np
    from spiral_euler import ModeProfile

    rng = np.random.default_rng([seed, index])
    co = rng.standard_normal(6) * np.exp(-0.8 * np.arange(6))
    b = grid.nodes
    vals = np.polynomial.chebyshev.chebval(1.0 - 2.0 * grid.s_of_beta(b), co)
    vals = vals * b**2 / (1.0 + b**2) * np.exp(-b)
    prof = ModeProfile.from_values(case["n"], vals.astype(complex), 0.0, cuts)
    if case["cinf"]:
        prof = ModeProfile(prof.n, prof.core, prof.c0, case["cinf"], prof.cconst)
    return prof


def run_oracle(step: dict) -> dict:
    """Invert D(n, s) applied to seeded profiles through both backends."""
    import numpy as np
    from spiral_euler import (
        apply_mode_operator,
        build_grid,
        invert_mode_operator,
        load_config,
        sample_cutoffs,
    )

    params = load_config(step["config"]).params
    grid = build_grid(params.grid_points, params.grid_scale)
    cuts = sample_cutoffs(grid)
    results = []
    for index, case in enumerate(step["cases"]):
        n, shift = case["n"], case["shift"]
        f = oracle_profile(case, step["seed"], index, grid, cuts)
        g = apply_mode_operator(n, shift, f, cuts)
        row = dict(case)
        limit = case["limit"]
        t0 = time.perf_counter()
        try:
            with time_limit(limit):
                back_q = invert_mode_operator(n, shift, g, cuts, method="quadrature")
        except CallTimeout:
            row.update(status=plans.OVER_LIMIT, quad_s=limit)
            results.append(row)
            continue
        except Exception as exc:  # the call's failure is the measured outcome
            row.update(status="raised", error=repr(exc), quad_s=time.perf_counter() - t0)
            results.append(row)
            continue
        row["quad_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        back_m = invert_mode_operator(n, shift, g, cuts, method="matrix")
        row["matrix_s"] = time.perf_counter() - t0
        fv, qv, mv = f.values(cuts), back_q.values(cuts), back_m.values(cuts)
        row.update(
            status="ok",
            rt_quad=float(np.max(np.abs(qv - fv))),
            rt_matrix=float(np.max(np.abs(mv - fv))),
            q_vs_m=float(np.max(np.abs(qv - mv))),
        )
        results.append(row)
    return {"cases": results}


def run_step(step: dict) -> dict:
    """Execute one step in this process; returns exit code and wall time."""
    import shutil

    from spiral_euler import cli

    t0 = time.perf_counter()
    if step["kind"] == "oracle":
        result = run_oracle(step)
        result["exit"] = 0
    else:
        if step.get("stage_field"):
            shutil.copy(step["stage_field"], Path(step["out"]) / "field.json")
            t0 = time.perf_counter()
        with open(Path(step["out"]) / "log.txt", "w") as log, \
                contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            try:
                code = cli.main(step["argv"])
            except Exception as exc:  # a traceback is a failed operation, not a crash
                print(repr(exc))
                code = f"exception {type(exc).__name__}"
        result = {"exit": code}
    result["wall"] = time.perf_counter() - t0
    return result


def run_trace(plan: dict) -> dict:
    """Set-up and warm-up steps, one untraced pass, then the same steps traced."""
    import tracing

    import spiral_euler.cli  # noqa: F401  (import cost stays out of both passes)

    setup = [run_step(s) for s in plan["setup"]]
    warmup = [run_step(s) for s in plan["warmup"]]
    t0 = time.perf_counter()
    untraced = [run_step(s) for s in plan["untraced"]]
    untraced_wall = time.perf_counter() - t0

    tracer = tracing.Tracer(run_id=f"{plan['workload']}-{plan['seed']}-traced")
    restore = tracing.install(tracer)
    try:
        root = tracer.open("trace.pass")
        traced = [run_step(s) for s in plan["traced"]]
        tracer.close(root)
    finally:
        restore()
    tracer.write(plan["spans"])
    spans = tracer.spans
    self_sum = sum(tracing.self_times(spans))
    return {
        "setup": setup,
        "warmup": warmup,
        "untraced": untraced,
        "traced": traced,
        "metrics": tracing.layer_metrics(spans, untraced_wall),
        "self_sum_s": self_sum,
    }


def env_info() -> dict:
    import numpy
    import scipy

    import spiral_euler.cli  # noqa: F401  (compiles bytecode before any timed import)

    numpy.ones((64, 64)) @ numpy.ones((64, 64))  # start the BLAS thread pool
    threads = None
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: v for k, v in deps.get("blas", {}).items()
                 if k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                        "SPIRAL_EULER_THREADS")},
        "os_threads_after_blas": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "env":
        print(json.dumps(env_info()))
        return 0
    with open(argv[1]) as fh:
        doc = json.load(fh)
    if mode == "oracle":
        result = run_step(doc)
    elif mode == "trace":
        result = run_trace(doc)
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    Path(argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
