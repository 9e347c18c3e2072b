"""The benchmark's workloads and their correctness gates.

Each operation is one ``chanceopt.cli.main(argv)`` call with the
benchmark's seed passed as ``--seed``.  Report paths are read from what
the command prints.  A single-order ``sweep`` (``--dmin 2 --dmax 2``)
writes ``<name>_d2_report.json``, not the ``<name>_report.json`` that
the README promises for sweeps, because the report stem follows the
number of orders in the result, not the subcommand.

References are those of the seed commit.  Counts (iterations, program
structure) are compared within one seed only; values that carry Monte
Carlo noise are compared with a tolerance wide enough for any seed.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# |p_mc - reference|: the 3-sigma half width at 1e5 draws is about 0.004
# for one estimate; two independent estimates differ by under 0.01.
P_MC_TOL = 0.01
# p_sdp and the decoded decision move only through the operator-norm
# start vector, which the seed sets: about 1e-6 between seeds.
P_SDP_TOL = 1e-3
X_TOL = 2e-3


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str               # bundled problem name
    argv: tuple                # CLI arguments, without --seed and --out-dir
    solver: bool               # runs ALCC solves
    order: int                 # relaxation order of the workload's program
    basis: str


WORKLOADS = {
    w.name: w for w in (
        Workload("toy-d2", "example1_toy",
                 ("sweep", "example1_toy", "--dmin", "2", "--dmax", "2",
                  "--max-inner-cap", "6000"),
                 solver=True, order=2, basis="monomial"),
        Workload("union-d2", "example2_union",
                 ("verify", "example2_union", "--order", "2", "--tol", "1e-3",
                  "--max-outer", "10", "--max-inner-cap", "2000"),
                 solver=True, order=2, basis="monomial"),
        Workload("control-grid", "example4_control",
                 ("grid", "example4_control", "--grid", "11", "--samples", "20000"),
                 solver=False, order=0, basis="monomial"),
        # Runnable and gated, but not listed in BENCHMARK.json: its wall time
        # spread 0.16-0.35 (quartile distance over median across seeds) even
        # with 30 s of operations per run, and the run budget has no room
        # for longer runs next to the other three.
        Workload("union-build-d3", "example2_union",
                 ("build", "example2_union", "--order", "3", "--basis", "chebyshev"),
                 solver=False, order=3, basis="chebyshev"),
    )
}

TOY_REF = {"p_sdp": 0.6609, "x": [0.4877], "p_mc": 0.2497}
UNION_REF = {"p_sdp": 1.0, "x": [0.0993, -0.1118, 0.2510, -0.2209, 0.3500],
             "p_mc": 0.6916}

# example4_control: the grid points x2 = 0.4 and x2 = 0.6 (x1 = x3 = -1)
# are within Monte Carlo noise of each other at 20,000 draws, so the seed
# picks between them.  The exact argmax is pinned for the seeds measured
# on the seed commit; any other seed must land on one of the two.
_X04 = [-1.0, 0.40000000000000013, -1.0]
_X06 = [-1.0, 0.6000000000000001, -1.0]
GRID_REF = {0: (_X04, 0.83905), 1: (_X06, None), 2: (_X06, None), 3: (_X04, None),
            4: (_X06, None), 5: (_X04, None), 1234567: (_X04, None)}
GRID_NEAR_OPTIMAL = (_X04, _X06)
GRID_P_REF, GRID_P_TOL = 0.839, 0.015

BUILD_REF = {
    "num_scalars": 16478,
    "blocks": [["moment[0]", 286], ["localizer[0,0]", 66], ["localizer[0,1]", 66],
               ["moment[1]", 286], ["localizer[1,0]", 66], ["localizer[1,1]", 66],
               ["decision_moment", 56], ["dominance", 286]],
    "coeff_lines": 520685,
    "sha256": "fbee0d79e014133cf760438ed67392f0d90cced0c5e2970d3ad817e7cadf519c",
}


def printed_paths(stdout: str) -> dict:
    """Output files named in the CLI's printed lines."""
    out = {}
    for key in ("report", "program", "series"):
        m = re.search(rf"^{key}: (.+)$", stdout, re.M)
        if m:
            out[key] = Path(m.group(1).strip())
    m = re.search(r"^x\* = .*\((.+_grid_report\.json)\)$", stdout, re.M)
    if m:
        out["report"] = Path(m.group(1))
    return out


def _near(value, ref, tol) -> bool:
    return value is not None and abs(float(value) - ref) <= tol


def check(workload: Workload, rc: int, stdout: str, solves: list, seed: int,
          ops_api) -> tuple[list, dict]:
    """Gate one operation.  Returns (problems found, values read).

    ``solves`` holds (status, inner iterations) for every ALCC solve the
    operation ran, refinements included.  ``ops_api`` is the imported
    ``chanceopt`` namespace used for the grid re-check.
    """
    problems, values = [], {}
    if rc != 0:
        problems.append(f"exit code {rc}")
    paths = printed_paths(stdout)
    if "report" not in paths or not paths["report"].is_file():
        return problems + ["no report path printed"], values
    report = json.loads(paths["report"].read_text())
    if report.get("results"):
        values["wall_times"] = report["results"][0].get("wall_times", {})

    if workload.solver:
        for status, _ in solves:
            if status != "converged":
                problems.append(f"solve ended {status}")
        if not solves:
            problems.append("no solve ran")
        res = report["results"]
        if len(res) != 1:
            return problems + [f"{len(res)} orders in report"], values
        res = res[0]
        ref = TOY_REF if workload.name == "toy-d2" else UNION_REF
        values.update(p_sdp=res["p_sdp"], x=res["x"], p_mc=res["p_mc"])
        if not _near(res["p_sdp"], ref["p_sdp"], P_SDP_TOL):
            problems.append(f"p_sdp {res['p_sdp']} vs {ref['p_sdp']}")
        if res["x"] is None or len(res["x"]) != len(ref["x"]) or any(
                not _near(a, b, X_TOL) for a, b in zip(res["x"], ref["x"])):
            problems.append(f"x {res['x']} vs {ref['x']}")
        if not _near(res["p_mc"], ref["p_mc"], P_MC_TOL):
            problems.append(f"p_mc {res['p_mc']} vs {ref['p_mc']}")
        if workload.name == "toy-d2":
            series = paths.get("series")
            if series is None or len(series.read_text().splitlines()) != 2:
                problems.append("series CSV missing or not one order")
    elif workload.name == "control-grid":
        x, p = report["x"], report["p"]
        values.update(x=x, p_mc=p)
        want_x, want_p = GRID_REF.get(seed, (None, None))
        if want_x is not None and x != want_x:
            problems.append(f"argmax {x} vs {want_x}")
        if want_x is None and x not in GRID_NEAR_OPTIMAL:
            problems.append(f"argmax {x} not near-optimal")
        if want_p is not None and p != want_p:
            problems.append(f"p* {p} vs {want_p}")
        if not _near(p, GRID_P_REF, GRID_P_TOL):
            problems.append(f"p* {p} vs {GRID_P_REF}")
        if not problems and _grid_recheck(ops_api, workload, x, seed) != p:
            problems.append("p* not reproduced at the reported argmax")
    else:
        res = report["results"][0]["solver"]
        values.update(num_scalars=res.get("num_scalars"))
        if res.get("num_scalars") != BUILD_REF["num_scalars"]:
            problems.append(f"scalars {res.get('num_scalars')}")
        if res.get("blocks") != BUILD_REF["blocks"]:
            problems.append("block list differs")
        program = paths.get("program")
        if program is None or not program.is_file():
            problems.append("no program file")
        else:
            data = program.read_bytes()
            lines = data.count(b"\ncoeff ")
            values.update(coeff_lines=lines, program_bytes=len(data))
            if lines != BUILD_REF["coeff_lines"]:
                problems.append(f"{lines} coeff lines")
            if hashlib.sha256(data).hexdigest() != BUILD_REF["sha256"]:
                problems.append("exported program differs from the seed commit's")
    return problems, values


def _grid_recheck(api, workload: Workload, x, seed: int) -> float:
    """The grid estimator re-run at one point with that point's own seed."""
    problem, options = api.problem_io.parse(api.problems.bundled_path(workload.problem))
    g = int(workload.argv[workload.argv.index("--grid") + 1])
    samples = int(workload.argv[workload.argv.index("--samples") + 1])
    idx = []
    for (lo, hi), xi in zip(problem.decision_box, x):
        axis = np.linspace(lo, hi, g)
        idx.append(int(np.argmin(np.abs(axis - xi))))
    flat = 0
    for i in idx:
        flat = flat * g + i
    cfg = api.mc.McConfig(samples=samples, grid_points=g,
                          seed=np.random.SeedSequence([seed, flat]))
    est, _ = api.mc.estimate_probability(problem, np.asarray(x, float), cfg)
    return est
