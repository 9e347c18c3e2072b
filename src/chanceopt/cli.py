"""Command-line interface.

Subcommands::

    chanceopt build   problem.json [flags]    # dump the conic program
    chanceopt solve   problem.json [flags]    # relaxation + decode
    chanceopt refine  problem.json [flags]    # solve, then refinement SDPs
    chanceopt verify  problem.json [flags]    # solve, then Monte Carlo (or --at)
    chanceopt sweep   problem.json --dmin A --dmax B   # order series + CSV
    chanceopt grid    problem.json [flags]    # grid-search baseline
    chanceopt bundled NAME [--out FILE]       # copy a bundled problem file

``--out`` and ``--out-dir`` create missing parent directories; one that
cannot be created is an input error, found before any parse or solve.

Flags override the problem file's options and are validated by the same
dataclasses; ``--seed`` sets both the solver and the Monte Carlo seed.
Exit codes: 0 success, 2 input error (an invalid flag value included),
3 solver non-convergence, 4 resource guard.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import lru_cache
from pathlib import Path

from .errors import ChanceOptError, ProblemFormatError, ResourceError
from .moments import BASES
from .pipeline import baseline_grid, input_hash, run_pipeline
from .problem_io import check_refine_index, parse, set_option
from .problems import BUNDLED, bundled_path

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_RESOURCE = 4

# (flag, options section or None for RunOptions itself, field)
FLAGS = (
    ("--order", None, "order"),
    ("--omega-r", None, "omega_r"),
    ("--basis", None, "basis"),
    ("--refine-mode", None, "refine_mode"),
    ("--nu0", "solver", "nu0"),
    ("--beta-growth", "solver", "beta"),
    ("--tol", "solver", "tol"),
    ("--max-outer", "solver", "max_outer"),
    ("--max-inner-cap", "solver", "max_inner_cap"),
    ("--seed", "solver", "seed"),
    ("--seed", "mc", "seed"),
    ("--samples", "mc", "samples"),
    ("--grid", "mc", "grid_points"),
)


def _add_common_flags(sp):
    sp.add_argument("problem", help="problem file (JSON) or bundled name")
    sp.add_argument("--order", "-d", type=int, help="relaxation order")
    sp.add_argument("--omega-r", type=float, help="trace regularization weight")
    sp.add_argument("--basis", choices=BASES, help="matrix basis for the relaxation")
    sp.add_argument("--refine-mode",
                    help="indicator | product | single:<j> (j is a 0-based "
                         "polynomial index)")
    sp.add_argument("--nu0", type=float, help="initial penalty")
    sp.add_argument("--beta-growth", type=float, help="penalty growth factor (> 1)")
    sp.add_argument("--tol", type=float, help="outer relative-change stop")
    sp.add_argument("--max-outer", type=int)
    sp.add_argument("--max-inner-cap", type=int)
    sp.add_argument("--seed", type=int, help="seed for solver and Monte Carlo")
    sp.add_argument("--samples", type=int, help="Monte Carlo samples per estimate")
    sp.add_argument("--grid", type=int, help="grid points per decision coordinate")
    sp.add_argument("--out-dir", default=".", help="directory for reports")


@lru_cache(maxsize=None)
def _build_parser():
    """The command-line parser, built on first use and then shared: building
    it costs about 1.8 ms, and parsing leaves no state on it."""
    ap = argparse.ArgumentParser(
        prog="chanceopt",
        description="Maximize the probability that a random point satisfies a "
                    "union of polynomial constraint sets, via moment SDP "
                    "relaxations solved by a first-order augmented Lagrangian "
                    "method.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, doc in [
        ("build", "build the conic relaxation and export it as text"),
        ("solve", "solve the relaxation and decode the decision"),
        ("refine", "solve, then sharpen the estimate at the decoded decision"),
        ("verify", "solve, then Monte Carlo the decoded decision"),
        ("sweep", "run a range of orders and emit the estimate series"),
        ("grid", "grid-search baseline over the decision box"),
    ]:
        sp = sub.add_parser(name, help=doc)
        _add_common_flags(sp)
        if name == "sweep":
            sp.add_argument("--dmin", type=int, required=True)
            sp.add_argument("--dmax", type=int, required=True)
        if name == "verify":
            sp.add_argument("--at", help="comma-separated decision to verify, "
                                         "skipping the solve")
    sb = sub.add_parser("bundled", help="list or copy bundled problem files")
    sb.add_argument("name", nargs="?", help=f"one of: {', '.join(BUNDLED)}")
    sb.add_argument("--out", help="destination file (defaults to ./NAME.json)")
    return ap


def _locate(problem_arg: str) -> Path:
    p = Path(problem_arg)
    if p.exists():
        return p
    if problem_arg in BUNDLED:
        return Path(str(bundled_path(problem_arg)))
    raise ProblemFormatError(f"no such file or bundled problem: {problem_arg}")


def _check_output_dir(path: Path, flag: str) -> None:
    """Reject, before any work, an output directory that cannot be created.

    Its nearest existing ancestor must be a writable directory.  Nothing
    is created here, so an input error found later leaves no directory.
    """
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise ProblemFormatError(f"cannot create {path}: {existing} is not a directory",
                                 flag)
    if not os.access(existing, os.W_OK | os.X_OK):
        raise ProblemFormatError(f"cannot create {path}: {existing} is not writable", flag)


def _apply_flags(problem, options, args):
    """``options`` with each given flag's value, validated like a file value."""
    for flag, section, name in FLAGS:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            options = set_option(options, section, name, value, flag)
    if args.refine_mode is not None:
        check_refine_index(problem, options.refine[1], "--refine-mode")
    return options


def _decision_at(value: str, problem) -> list:
    """The ``--at`` decision: one finite entry per decision, inside the box."""
    try:
        x = [float(v) for v in value.split(",")]
    except ValueError:
        raise ProblemFormatError(f"bad decision vector {value!r}", "--at")
    if not all(map(math.isfinite, x)):
        raise ProblemFormatError(f"non-finite decision vector {value!r}", "--at")
    if len(x) != problem.n:
        raise ProblemFormatError(f"{len(x)} entries for {problem.n} decisions", "--at")
    for i, (v, (lo, hi)) in enumerate(zip(x, problem.decision_box)):
        if not lo <= v <= hi:
            raise ProblemFormatError(f"entry {i} = {v} outside the decision box "
                                     f"[{lo}, {hi}]", "--at")
    return x


def _cmd_bundled(args) -> int:
    if not args.name:
        for name in BUNDLED:
            print(name)
        return EXIT_OK
    src = bundled_path(args.name)
    dest = Path(args.out) if args.out else Path(f"{args.name}.json")
    try:
        dest.parent.mkdir(parents=True, exist_ok=True)
        dest.write_text(src.read_text(encoding="utf-8"), encoding="utf-8")
    except OSError as exc:
        raise ProblemFormatError(f"cannot write {dest}: {exc.strerror or exc}", "--out")
    print(dest)
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "bundled":
            return _cmd_bundled(args)

        out_dir = Path(args.out_dir)
        _check_output_dir(out_dir, "--out-dir")
        path = _locate(args.problem)
        problem, options = parse(path)
        options = _apply_flags(problem, options, args)

        if args.command == "grid":
            result = baseline_grid(problem, options.mc)
            out = out_dir / f"{problem.name}_grid_report.json"
            out_dir.mkdir(parents=True, exist_ok=True)
            out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
            print(f"x* = {result['x']}  p* = {result['p']:.4f}  ({out})")
            return EXIT_OK

        orders = None
        verify_at = None
        if args.command == "sweep":
            if args.dmin < 1 or args.dmax < args.dmin:
                raise ProblemFormatError("need 1 <= dmin <= dmax", "--dmin/--dmax")
            orders = (args.dmin, args.dmax)
        if args.command == "verify" and args.at is not None:
            verify_at = _decision_at(args.at, problem)

        report = run_pipeline(problem, options, args.command, orders=orders,
                              verify_at=verify_at, source_hash=input_hash(path))
        json_path = report.write(out_dir)
        if report.status == "interrupted":
            print(f"interrupted; partial report: {json_path}", file=sys.stderr)
            return 130
        if args.command == "sweep":
            csv_path = report.write_series(out_dir)
            print(f"series: {csv_path}")
        if args.command == "build" and report.program is not None:
            d = report.results[0].order
            text_path = out_dir / f"{problem.name}_d{d}_program.txt"
            report.program.export_text(text_path)
            print(f"program: {text_path}")
        for res in report.results:
            bits = [f"d={res.order}"]
            if res.p_sdp is not None:
                bits.append(f"p_sdp={res.p_sdp:.4f}")
            if res.x is not None:
                bits.append("x=[" + ", ".join(f"{v:.4f}" for v in res.x) + "]")
            if res.p_refine_indicator is not None:
                bits.append(f"p_ind={res.p_refine_indicator:.4f}")
            if res.p_refine_weighted is not None:
                bits.append(f"p_wt={res.p_refine_weighted:.4f}")
            if res.p_mc is not None:
                bits.append(f"p_mc={res.p_mc:.4f}±{res.p_mc_halfwidth:.4f}")
            print("  ".join(bits))
        print(f"report: {json_path}")

        solver_trouble = any("solver_max_outer" in r.flags or "solver_stalled" in r.flags
                             for r in report.results)
        return EXIT_SOLVER if solver_trouble else EXIT_OK

    except ProblemFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ChanceOptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
