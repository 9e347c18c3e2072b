"""chanceopt benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from ``src/`` of the current directory and driven
from outside only: each operation is one in-process
``chanceopt.cli.main(argv)`` call, from argv to report written, issued in a
closed loop with one client until ``--seconds`` have passed.  Every operation is checked
against the seed commit's references (see ``workloads.py``).

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs one untraced operation, then traced ones for
``--seconds``, then kernel microbenchmarks, and reports the per-layer
metrics.  Human-readable lines
come first; the last line of standard output is the JSON result.  The
full result with the environment block is also written under
``.perfbench_out/results/``, and the spans of a traced run under
``.perfbench_out/traces/``.

Exit code 2, with no result printed, when ``src/chanceopt`` is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, check

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def time_setup(problem: str) -> float:
    """Seconds from process start until ``prepare.py`` says an operation could begin."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "prepare.py"), problem], cwd=ROOT,
                            env=_child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err[-2000:]}")
    return elapsed


def run_kernels(workload, seed: int, single_thread: bool = False) -> dict:
    """``kernels.py`` in a fresh process: OpenBLAS reads its thread count at import."""
    argv = [sys.executable, str(HERE / "kernels.py"), workload.problem, str(workload.order),
            workload.basis, str(seed)]
    env = _child_env()
    if single_thread:
        argv.append("--groups-only")
        env["OPENBLAS_NUM_THREADS"] = "1"
    out = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                         timeout=150)
    if out.returncode != 0:
        raise RuntimeError(f"kernel microbenchmark failed: {out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


class SolveLog:
    """Status and inner iterations of every ALCC solve, refinements included.

    Installed in every run: one list append per solve, which the report
    alone cannot give (it carries only the main solve's status).
    """

    def __init__(self, pipeline):
        self.entries: list = []
        fn = pipeline.alcc_solve

        def logged(*args, **kwargs):
            trace = fn(*args, **kwargs)
            self.entries.append((trace.status, trace.total_inner_iterations))
            return trace

        pipeline.alcc_solve = logged


class Runner:
    def __init__(self, api, workload, seed: int):
        self.api = api
        self.workload = workload
        self.seed = seed
        self.solves = SolveLog(api.pipeline)
        self.ops: list[dict] = []

    def op(self, rec=None) -> dict:
        """One operation: ``cli.main`` into a fresh directory, then the gate."""
        op_dir = OUT / "ops" / f"{self.workload.name}-{os.getpid()}-{len(self.ops)}"
        shutil.rmtree(op_dir, ignore_errors=True)
        argv = [*self.workload.argv, "--seed", str(self.seed), "--out-dir", str(op_dir)]
        self.solves.entries.clear()
        out, err = io.StringIO(), io.StringIO()
        span = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if rec is not None:
                    rec.op_id, rec.active = len(self.ops), True
                    span = rec.open("op", t0)
                try:
                    rc = self.api.cli.main(argv)
                finally:
                    if rec is not None:
                        rec.close(span, time.perf_counter())
                        rec.active = False
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the operation failed; the gate records why
            rc = -1
            err.write(traceback.format_exc())
        wall = time.perf_counter() - t0
        solves = list(self.solves.entries)
        try:
            problems, values = check(self.workload, rc, out.getvalue(), solves, self.seed,
                                     self.api)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            problems, values = [f"unreadable output: {exc!r}"], {}
        shutil.rmtree(op_dir, ignore_errors=True)
        rec_op = {"wall_s": wall, "rc": rc, "problems": problems, "values": values,
                  "solves": solves, "inner_iters": sum(n for _, n in solves),
                  "wall_times": values.pop("wall_times", {})}
        if problems:
            rec_op["stderr"] = err.getvalue()[-4000:]
        self.ops.append(rec_op)
        return rec_op

    def loop(self, seconds: float, rec=None) -> list:
        """Operations back to back until ``seconds`` have passed; at least one."""
        start = len(self.ops)
        t0 = time.perf_counter()
        while len(self.ops) == start or time.perf_counter() - t0 < seconds:
            self.op(rec)
        return self.ops[start:]


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def end_to_end(ops: list, setup_s: float) -> dict:
    passed = sum(not op["problems"] for op in ops)
    return {
        "wall_s": _median([op["wall_s"] for op in ops]),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passed_ratio": passed / len(ops),
    }


def traced(runner: Runner, problem, seconds: float, env: dict) -> tuple[list, dict]:
    """Untraced operations, traced operations, then microbenchmarks."""
    import numpy as np

    import layers
    import selftest
    from kernels import per_call
    from spans import SpanRecorder

    selftest.check_self_times()
    api, workload, seed = runner.api, runner.workload, runner.seed
    untraced = runner.loop(0.0)
    rec = SpanRecorder()
    captured: dict = {}
    layers.install(rec, api, captured)
    try:
        ops = runner.loop(seconds, rec)
    finally:
        rec.unwrap_all()
    polys = sum(len(s) for s in problem.sets)
    m = layers.span_metrics(rec, len(ops), polys)

    n_ops = len(ops)
    m["trace.ops"] = n_ops
    m["trace.untraced_wall_s"] = _median([op["wall_s"] for op in untraced])
    m["trace.wall_s"] = _median([op["wall_s"] for op in ops])
    m["trace.overhead_s"] = m["trace.wall_s"] - m["trace.untraced_wall_s"]
    for phase in ("build", "solve", "refine", "verify"):
        m[f"pipeline.{phase}.s"] = sum(op["wall_times"].get(phase, 0.0) for op in ops) / n_ops
    p_mc = [op["values"].get("p_mc") for op in ops if op["values"].get("p_mc") is not None]
    m["mc.p_mc"] = _median(p_mc)
    m["env.nproc"] = env["nproc"]
    m["env.blas_threads"] = env["blas_threads"] or 0

    dims = (1, 3, 6, 11, 21, 66)
    for d in dims:
        m[f"conic.project_dual.d{d}.us"] = 0.0
        m[f"conic.project_dual.d{d}.us_1t"] = 0.0
    for key in ("conic.apply.us", "conic.adjoint.us", "conic.SimpleSet.project.us",
                "alcc.operator_norm.mb_ms", "relaxation.decode.mb_us", "mc.per_1e5_samples.ms"):
        m[key] = 0.0
    if workload.solver:
        kern = run_kernels(workload, seed)
        kern_1t = run_kernels(workload, seed, single_thread=True)
        for d, us in kern["project_dual_us"].items():
            m[f"conic.project_dual.d{d}.us"] = us
        for d, us in kern_1t["project_dual_us"].items():
            m[f"conic.project_dual.d{d}.us_1t"] = us
        m["conic.apply.us"] = kern["apply_us"]
        m["conic.adjoint.us"] = kern["adjoint_us"]
        m["conic.SimpleSet.project.us"] = kern["simple_set_project_us"]
        m["alcc.operator_norm.mb_ms"] = kern["operator_norm_ms"]
        program, x = captured["program"], captured["x"]
        m["relaxation.decode.mb_us"] = 1e6 * per_call(lambda: api.relaxation.decode(program, x))
    decision = ops[0]["values"].get("x")
    if decision is not None:
        cfg = api.mc.McConfig(samples=100_000, seed=seed)
        xd = np.asarray(decision, dtype=float)
        m["mc.per_1e5_samples.ms"] = 1e3 * per_call(
            lambda: api.mc.estimate_probability(problem, xd, cfg), repeats=5, batch_s=0.0)

    traces = OUT / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    rec.write_csv_gz(traces / f"{workload.name}-seed{seed}.csv.gz")
    return untraced + ops, m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "chanceopt" / "__init__.py").is_file():
        print(f"perfbench: no src/chanceopt under {ROOT}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]

    setup_s = _median([time_setup(workload.problem) for _ in range(SETUP_PROBES)])
    sys.path.insert(0, str(SRC))
    import prepare

    problem, _ = prepare.prepare(workload.problem)
    prepare.settle_blas()
    import chanceopt
    import chanceopt.cli  # loads every module the wrappers and checks reach

    if not Path(chanceopt.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported chanceopt from {chanceopt.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import envinfo

    env = envinfo.environment(ROOT, args.seed)
    runner = Runner(chanceopt, workload, args.seed)
    if args.trace:
        ops, metrics = traced(runner, problem, args.seconds, env)
        wanted = spec["per_layer"]
    else:
        ops = runner.loop(args.seconds)
        metrics = end_to_end(ops, setup_s)
        wanted = spec["end_to_end"]
    if set(metrics) != {w["name"] for w in wanted}:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ {w['name'] for w in wanted})}")

    failed = sum(bool(op["problems"]) for op in ops)
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {w["name"]: {"value": float(metrics[w["name"]]), "unit": w["unit"]}
                    for w in wanted},
    }
    extras = {
        "ops": len(ops),
        "wall_s_each": [op["wall_s"] for op in ops],
        "failed_ratio": failed / len(ops),
        "inner_iters": _median([op["inner_iters"] for op in ops]),
        "p_mc": _median([op["values"]["p_mc"] for op in ops
                         if op["values"].get("p_mc") is not None]),
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"workload": workload.name, "environment": env, "result": result,
                    "extras": extras, "ops": ops}, indent=1, default=str) + "\n")

    print(f"# environment: {json.dumps(env)}")
    for op in ops:
        if op["problems"]:
            print(f"# FAILED operation: {op['problems']}")
    print(f"# {workload.name} seed={args.seed} ops={len(ops)} "
          f"failed_ratio={extras['failed_ratio']:.3f} inner_iters={extras['inner_iters']:.0f} "
          f"p_mc={extras['p_mc']:.5f}")
    for w in wanted:
        print(f"{w['name']:<40} {metrics[w['name']]:>16.6g} {w['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
