"""End-to-end orchestration: scale, build, solve, decode, refine, verify.

Reports come in pairs: a JSON document with everything (including wall
times) and, for sweeps, a CSV holding the probability-estimate series
against the relaxation order.  The CSV contains no timing information,
so a rerun with the same file and seeds reproduces it byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .alcc import SolverTrace, alcc_solve
from .mc import McConfig, estimate_probability, grid_search, grid_workers
from .measures import check_samplable
from .problem_io import RunOptions
from .relaxation import (
    ChanceProblem,
    ScaledProblem,
    build_chance_sdp,
    build_refinement_sdp,
    decode,
    min_relaxation_order,
    scale_problem,
)


@dataclass
class OrderResult:
    """Everything the pipeline learned at one relaxation order."""

    order: int
    p_sdp: float | None = None            # mass of the relaxation solution
    x: list | None = None                 # decoded decision, user coordinates
    p_refine_indicator: float | None = None
    p_refine_weighted: float | None = None
    p_mc: float | None = None
    p_mc_halfwidth: float | None = None
    solver: dict = field(default_factory=dict)
    wall_times: dict = field(default_factory=dict)
    flags: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return asdict(self)


def _trace_summary(trace: SolverTrace) -> dict:
    return {
        "status": trace.status,
        "lanes": trace.lanes,
        "outer_iterations": trace.outer_iterations,
        "inner_iterations": trace.total_inner_iterations,
        "inner_solver": trace.inner_solver,
        "newton_steps": trace.newton_steps,
        "residual": trace.final_residual,
        "objective": trace.final_objective,
        "sigma_max": trace.sigma_max,
        "sigma_converged": trace.sigma_converged,
        "cap_limited": any(r.cap_limited for r in trace.records),
    }


def _flag_trace(res: OrderResult, trace: SolverTrace, prefix: str) -> None:
    """Flag a solve that did not converge, or whose operator norm did not."""
    if trace.status != "converged":
        res.flags.append(f"{prefix}_{trace.status}")
    if not trace.sigma_converged and "operator_norm_unconverged" not in res.flags:
        res.flags.append("operator_norm_unconverged")


def input_hash(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _fmt(value) -> str:
    if value is None:
        return ""
    return format(float(value), ".12g")


def series_csv_text(results: list) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["order", "p_sdp", "p_refine_indicator", "p_refine_weighted",
                "p_mc", "p_mc_halfwidth"])
    for r in results:
        w.writerow([r.order, _fmt(r.p_sdp), _fmt(r.p_refine_indicator),
                    _fmt(r.p_refine_weighted), _fmt(r.p_mc), _fmt(r.p_mc_halfwidth)])
    return buf.getvalue()


@dataclass
class RunReport:
    name: str
    command: str
    options: RunOptions
    results: list
    source_hash: str = ""
    status: str = "complete"
    program: object = field(default=None, repr=False)  # set by the build command

    def as_dict(self) -> dict:
        return {
            "tool": "chanceopt",
            "version": __version__,
            "name": self.name,
            "command": self.command,
            "status": self.status,
            "input_sha256": self.source_hash,
            "options": asdict(self.options),
            "results": [r.as_dict() for r in self.results],
        }

    def write(self, out_dir) -> Path:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        # a sweep's stem never names an order, however many finished
        stem = self.name
        if self.command != "sweep" and self.results:
            stem += f"_d{self.results[0].order}"
        path = out_dir / f"{stem}_report.json"
        path.write_text(json.dumps(self.as_dict(), indent=2) + "\n", encoding="utf-8")
        return path

    def write_series(self, out_dir) -> Path:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"{self.name}_series.csv"
        path.write_text(series_csv_text(self.results), encoding="utf-8")
        return path


def resolve_order(problem: ChanceProblem, options: RunOptions) -> int:
    return options.order if options.order >= 1 else min_relaxation_order(problem)


def _refine_mass(res: OrderResult, program, options: RunOptions, mode: str) -> float:
    """Solve one refinement program, record its status, return its mass."""
    trace = alcc_solve(program, options.solver)
    res.solver["refine"][mode] = _trace_summary(trace)
    _flag_trace(res, trace, f"refine_{mode}")
    return decode(program, trace.x).mass


def _verify(res: OrderResult, problem: ChanceProblem, x, options: RunOptions) -> None:
    """Monte Carlo estimate at ``x``; flag an interval that is a single point."""
    t0 = time.perf_counter()
    res.p_mc, res.p_mc_halfwidth = estimate_probability(problem, x, options.mc)
    if res.p_mc in (0.0, 1.0):
        # the Wald half width is 0 here, which claims certainty no sample gives
        res.flags.append("mc_interval_degenerate")
    res.wall_times["verify"] = time.perf_counter() - t0


def _solve_order(scaled: ScaledProblem, options: RunOptions, order: int,
                 refine: bool, verify: bool) -> OrderResult:
    res = OrderResult(order=order)
    t0 = time.perf_counter()
    program = build_chance_sdp(scaled, order, omega_r=options.omega_r,
                               basis=options.basis)
    res.wall_times["build"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    trace = alcc_solve(program, options.solver)
    res.wall_times["solve"] = time.perf_counter() - t0
    sol = decode(program, trace.x)
    res.p_sdp = sol.probability
    res.x = [float(v) for v in sol.x]
    res.solver = _trace_summary(trace)
    _flag_trace(res, trace, "solver")

    if refine:
        t0 = time.perf_counter()
        res.solver["refine"] = {}
        ind = build_refinement_sdp(scaled, sol.x_scaled, order, mode="indicator",
                                   basis=options.basis)
        res.p_refine_indicator = _refine_mass(res, ind, options, "indicator")
        mode, index = options.refine
        if mode != "indicator":
            wt = build_refinement_sdp(scaled, sol.x_scaled, order, mode=mode,
                                      weight_index=index, basis=options.basis)
            res.p_refine_weighted = _refine_mass(res, wt, options, mode)
        res.wall_times["refine"] = time.perf_counter() - t0

    if verify:
        _verify(res, scaled.original, sol.x, options)
    return res


def run_pipeline(problem: ChanceProblem, options: RunOptions, command: str,
                 orders: tuple[int, int] | None = None,
                 verify_at=None, source_hash: str = "") -> RunReport:
    """Execute one subcommand on a parsed problem.

    ``command`` is one of build, solve, refine, verify, sweep.  ``orders``
    carries (d_min, d_max) for sweeps; ``verify_at`` optionally pins the
    decision at which the verify subcommand estimates the probability,
    skipping the solve.
    """
    if command in ("verify", "sweep"):
        check_samplable(problem.dist)   # before any solve, not after it
    scaled = scale_problem(problem)
    report = RunReport(name=problem.name, command=command, options=options,
                       results=[], source_hash=source_hash)
    try:
        if command == "build":
            order = resolve_order(problem, options)
            res = OrderResult(order=order)
            t0 = time.perf_counter()
            program = build_chance_sdp(scaled, order, omega_r=options.omega_r,
                                       basis=options.basis)
            res.wall_times["build"] = time.perf_counter() - t0
            res.solver = {"num_scalars": program.num_scalars,
                          "blocks": [[b.label, b.dim] for b in program.blocks]}
            report.results.append(res)
            report.program = program
        elif command in ("solve", "refine", "verify"):
            order = resolve_order(problem, options)
            if command == "verify" and verify_at is not None:
                x = np.asarray(verify_at, dtype=float)
                res = OrderResult(order=order, x=[float(v) for v in x])
                _verify(res, problem, x, options)
                report.results.append(res)
            else:
                report.results.append(_solve_order(
                    scaled, options, order,
                    refine=(command == "refine"),
                    verify=(command == "verify"),
                ))
        elif command == "sweep":
            d_min, d_max = orders
            for order in range(d_min, d_max + 1):
                report.results.append(_solve_order(
                    scaled, options, order, refine=True, verify=True))
        else:
            raise ValueError(f"unknown command {command!r}")
    except KeyboardInterrupt:
        # hand back whatever finished so the caller can write a partial report
        report.status = "interrupted"
        return report
    if any(res.flags for res in report.results):
        report.status = "complete_with_flags"
    return report


def baseline_grid(problem: ChanceProblem, mc: McConfig) -> dict:
    """Grid-search baseline over the decision box (the oracle of last resort)."""
    t0 = time.perf_counter()
    x_star, p_star = grid_search(problem, mc)
    return {
        "x": [float(v) for v in x_star],
        "p": p_star,
        "wall_time": time.perf_counter() - t0,
        "workers": grid_workers(mc.grid_points**problem.n),
    }
