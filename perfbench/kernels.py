"""Kernel microbenchmarks on one workload's own conic program.

Usage (checkout ``src`` on ``PYTHONPATH``)::

    python3 perfbench/kernels.py PROBLEM ORDER BASIS SEED [--groups-only]

Prints one JSON object: microseconds per call of ``project_dual`` for each
block-dimension group (each group built as a ``ConicProgram`` holding only
that group's blocks), and unless ``--groups-only`` also ``apply``,
``adjoint``, ``SimpleSet.project`` and ``operator_norm``.  Each figure is
the median of repeated timed batches after a warm-up call.  OpenBLAS reads
its thread count at import, so the benchmark runs this script once with
the default environment and once with ``OPENBLAS_NUM_THREADS=1``.
"""

from __future__ import annotations

import json
import statistics
import sys
import time


def per_call(fn, repeats: int = 7, batch_s: float = 0.02) -> float:
    """Median seconds per call over ``repeats`` batches of at least ``batch_s``."""
    fn()
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t0 >= batch_s:
            break
        n *= 2
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        times.append((time.perf_counter() - t0) / n)
    return statistics.median(times)


def main(argv) -> dict:
    problem_name, order, basis, seed = argv[0], int(argv[1]), argv[2], int(argv[3])
    groups_only = "--groups-only" in argv[4:]

    import numpy as np

    from chanceopt.alcc import operator_norm
    from chanceopt.conic import ConicProgram
    from chanceopt.problem_io import parse
    from chanceopt.problems import bundled_path
    from chanceopt.relaxation import build_chance_sdp, scale_problem
    from prepare import settle_blas

    settle_blas()

    problem, options = parse(bundled_path(problem_name))
    program = build_chance_sdp(scale_problem(problem), order, omega_r=options.omega_r,
                               basis=basis)
    rng = np.random.default_rng(seed)
    x = program.simple_set.project(rng.uniform(-1.0, 1.0, program.num_scalars))

    out = {"project_dual_us": {}}
    for dim in sorted({b.dim for b in program.blocks}):
        group = ConicProgram(objective=program.objective,
                             blocks=[b for b in program.blocks if b.dim == dim],
                             simple_set=program.simple_set)
        s = group.constants - group.apply(x)
        out["project_dual_us"][str(dim)] = 1e6 * per_call(lambda: group.project_dual(s))
    if groups_only:
        return out

    z = program.apply(x)
    out["apply_us"] = 1e6 * per_call(lambda: program.apply(x))
    out["adjoint_us"] = 1e6 * per_call(lambda: program.adjoint(z))
    out["simple_set_project_us"] = 1e6 * per_call(lambda: program.simple_set.project(x))
    norm_times = []
    for _ in range(3):
        t0 = time.perf_counter()
        info = operator_norm(program, seed=seed)
        norm_times.append(time.perf_counter() - t0)
    out["operator_norm_ms"] = 1e3 * statistics.median(norm_times)
    out["operator_norm_iters"] = info.iterations
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
