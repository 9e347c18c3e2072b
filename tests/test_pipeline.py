"""End-to-end pipeline runs, report artifacts, and the command line."""

import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import util
from chanceopt import problems
from chanceopt.alcc import SolverParams
from chanceopt.cli import main
from chanceopt.mc import McConfig
from chanceopt.measures import DistributionSpec, ExplicitMoments, Uniform
from chanceopt.pipeline import run_pipeline, series_csv_text
from chanceopt.poly import Polynomial
from chanceopt.problem_io import RunOptions, emit_document, parse_document, write_problem
from chanceopt.relaxation import ChanceProblem


def fresh_python(*args, cwd):
    """Run the interpreter in a new process with the source tree importable."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def quick_options(**kw):
    solver = SolverParams(nu0=1.0, tol=1e-3, max_outer=12, max_inner_cap=2000)
    base = dict(order=2, omega_r=0.01, solver=solver,
                mc=McConfig(samples=20_000, grid_points=11, seed=0))
    base.update(kw)
    return RunOptions(**base)


@pytest.fixture(scope="module")
def toy_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("problems") / "toy.json"
    write_problem(util.toy_problem(), path, RunOptions(order=2))
    return path


@pytest.fixture(scope="module")
def toy_refine_report():
    """The toy's quick refine, solved once for the tests that only read it."""
    return run_pipeline(util.toy_problem(), quick_options(), "refine")


class TestRunPipeline:
    def test_solve(self):
        report = run_pipeline(util.toy_problem(), quick_options(), "solve")
        res = report.results[0]
        assert res.order == 2
        assert abs(res.p_sdp - 0.66) < 0.05
        assert abs(res.x[0] - 0.5) < 0.1
        assert res.solver["status"] == "converged"
        assert "build" in res.wall_times and "solve" in res.wall_times

    def test_refine_carries_both_estimates(self, toy_refine_report):
        res = toy_refine_report.results[0]
        assert res.p_refine_indicator is not None
        assert res.p_refine_weighted is not None
        assert res.p_refine_indicator <= res.p_sdp + 1e-3

    def test_refinement_statuses_reported(self, toy_refine_report):
        res = toy_refine_report.results[0]
        refine = res.solver["refine"]
        assert set(refine) == {"indicator", "product"}
        for summary in [res.solver, *refine.values()]:
            assert list(summary)[:2] == ["status", "lanes"]
            assert summary["lanes"] == 1    # the toy's blocks are too small to split
        for summary in refine.values():
            assert summary["status"] == "converged"
            assert summary["inner_iterations"] > 0
        assert res.flags == []

    def test_refinement_non_convergence_flagged(self):
        solver = SolverParams(nu0=1.0, tol=1e-12, max_outer=1, max_inner_cap=50)
        report = run_pipeline(util.toy_problem(), quick_options(solver=solver),
                              "refine")
        res = report.results[0]
        assert res.solver["refine"]["indicator"]["status"] == "max_outer"
        assert res.solver["refine"]["product"]["status"] == "max_outer"
        assert "refine_indicator_max_outer" in res.flags
        assert "refine_product_max_outer" in res.flags
        assert report.status == "complete_with_flags"

    def test_operator_norm_unconverged_flagged(self, monkeypatch):
        import chanceopt.alcc as alcc

        real = alcc.operator_norm

        def unconverged(*args, **kw):
            return real(*args, **kw)._replace(converged=False)

        monkeypatch.setattr(alcc, "operator_norm", unconverged)
        report = run_pipeline(util.toy_problem(), quick_options(), "solve")
        res = report.results[0]
        assert res.solver["sigma_converged"] is False
        assert res.flags == ["operator_norm_unconverged"]
        assert report.status == "complete_with_flags"

    def test_verify_at_fixed_point(self):
        report = run_pipeline(util.toy_problem(), quick_options(), "verify",
                              verify_at=[0.5])
        res = report.results[0]
        assert abs(res.p_mc - 0.25) <= 0.02
        assert res.p_sdp is None
        assert res.flags == []

    def test_degenerate_interval_flagged_after_solve(self):
        # a single draw makes every estimate 0 or 1 with a zero half width
        report = run_pipeline(util.toy_problem(),
                              quick_options(mc=McConfig(samples=1, seed=0)), "verify")
        res = report.results[0]
        assert res.p_mc in (0.0, 1.0) and res.p_mc_halfwidth == 0.0
        assert res.flags == ["mc_interval_degenerate"]
        assert report.status == "complete_with_flags"

    def test_upper_estimate_dominates_monte_carlo(self):
        report = run_pipeline(util.toy_problem(), quick_options(), "verify")
        res = report.results[0]
        assert res.p_sdp + 1e-3 >= res.p_mc - res.p_mc_halfwidth

    def test_probability_estimates_in_range(self, toy_refine_report):
        res = toy_refine_report.results[0]
        for value in (res.p_sdp, res.p_refine_indicator, res.p_refine_weighted):
            assert 0.0 <= value <= 1.0 + 1e-2

    def test_sweep_series_reproducible(self):
        opts = quick_options(mc=McConfig(samples=5_000, grid_points=5, seed=4))
        r1 = run_pipeline(util.toy_problem(), opts, "sweep", orders=(2, 3))
        r2 = run_pipeline(util.toy_problem(), opts, "sweep", orders=(2, 3))
        assert series_csv_text(r1.results) == series_csv_text(r2.results)
        p_col = [res.p_sdp for res in r1.results]
        assert p_col[1] <= p_col[0] + 1e-3

    def test_build_report(self):
        report = run_pipeline(util.toy_problem(), quick_options(), "build")
        assert report.program is not None
        assert report.results[0].solver["num_scalars"] == 20

    def test_report_files(self, tmp_path):
        report = run_pipeline(util.toy_problem(), quick_options(), "solve",
                              source_hash="abc123")
        json_path = report.write(tmp_path)
        assert json_path.name == "toy_d2_report.json"
        doc = json.loads(json_path.read_text())
        assert doc["input_sha256"] == "abc123"
        assert doc["results"][0]["p_sdp"] == pytest.approx(
            report.results[0].p_sdp)


class TestCli:
    def test_solve_exit_zero(self, toy_file, tmp_path, capsys):
        code = main(["solve", str(toy_file), "--max-inner-cap", "2000",
                     "--tol", "1e-3", "--max-outer", "12",
                     "--out-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "p_sdp=0.66" in out
        assert (tmp_path / "toy_d2_report.json").exists()

    def test_parser_is_built_once(self):
        from chanceopt.cli import _build_parser
        assert _build_parser() is _build_parser()

    def test_shared_parser_carries_no_flag_into_the_next_call(self, tmp_path):
        # one parser serves every main() call in a process, so in-process
        # calls must write the reports fresh processes write: the second
        # call's flags differ from the first's, and the third gives none
        flags = [["--seed", "5", "--max-inner-cap", "40"],
                 ["--seed", "7", "--max-inner-cap", "300"], []]
        for i, extra in enumerate(flags):
            argv = ["verify", "example1_toy", "--samples", "2000", *extra]
            assert main(argv + ["--out-dir", str(tmp_path / f"shared{i}")]) == 0
            done = fresh_python("-m", "chanceopt", *argv, "--out-dir", str(tmp_path / f"fresh{i}"),
                                cwd=tmp_path)
            assert done.returncode == 0, done.stderr

        def report(out):
            doc = json.loads((tmp_path / out / "example1_toy_d2_report.json").read_text())
            for res in doc["results"]:
                del res["wall_times"]
            return doc

        reports = [report(f"shared{i}") for i in range(len(flags))]
        assert reports == [report(f"fresh{i}") for i in range(len(flags))]
        assert [(r["options"]["solver"]["seed"], r["options"]["solver"]["max_inner_cap"])
                for r in reports] == [(5, 40), (7, 300), (0, 20000)]   # the file's own

    def test_bundled_name_resolves(self, tmp_path):
        code = main(["build", "example1_pair", "--order", "1",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "example1_pair_d1_program.txt").exists()
        text = (tmp_path / "example1_pair_d1_program.txt").read_text()
        assert text.startswith("conicprogram v1")
        assert "np.float64" not in text

    def test_input_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["solve", str(bad)]) == 2
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--nu0", "0"), ("--beta-growth", "1"), ("--tol", "0"),
        ("--max-outer", "0"), ("--max-inner-cap", "0"), ("--seed", "-1"),
        ("--samples", "0"), ("--grid", "0"), ("--order", "-1"),
        ("--omega-r", "-1"), ("--tol", "inf"), ("--nu0", "nan"),
        ("--omega-r", "nan"), ("--beta-growth", "nan"),
    ])
    def test_invalid_flag_exit_two(self, flag, value, tmp_path, capsys):
        assert main(["solve", "example1_pair", flag, value,
                     "--out-dir", str(tmp_path)]) == 2
        assert f"input error: {flag}:" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_refine_single_index_out_of_range_exit_two(self, tmp_path, capsys):
        # rejected before the solve, so nothing is written
        assert main(["refine", "example1_pair", "--order", "1",
                     "--refine-mode", "single:5", "--out-dir", str(tmp_path)]) == 2
        assert ("input error: --refine-mode: single index 5 out of range: set 0 "
                "has 2 polynomial(s)") in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_refine_single_index_in_file_out_of_range_exit_two(self, tmp_path, capsys):
        from chanceopt.problems import bundled_path
        doc = json.loads(bundled_path("example1_pair").read_text())
        doc["options"]["refine_mode"] = "single:5"
        bad = tmp_path / "pair.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["refine", str(bad), "--order", "1", "--out-dir", str(out)]) == 2
        assert ("input error: $.options.refine_mode: single index 5 out of range"
                in capsys.readouterr().err)
        assert not out.exists()

    # the report's options block, byte for byte: refine_mode in its file form
    SINGLE_OPTIONS_BLOCK = (
        '"options": {\n    "order": 1,\n    "omega_r": 0.01,\n    "basis": "monomial",'
        '\n    "refine_mode": "single:1",\n    "solver": {\n      "nu0": 1.0,'
        '\n      "beta": 3.0,\n      "c": 0.5,\n      "alpha0": 1.0,\n      "tol": 0.0001,'
        '\n      "max_outer": 14,\n      "max_inner_cap": 20000,\n      "seed": 0\n    },'
        '\n    "mc": {\n      "samples": 100000,\n      "grid_points": 41,'
        '\n      "seed": 0\n    }\n  },\n  "results"'
    )

    def test_refine_single_index_in_range_runs(self, tmp_path):
        assert main(["refine", "example1_pair", "--order", "1",
                     "--refine-mode", "single:1", "--out-dir", str(tmp_path)]) == 0
        text = (tmp_path / "example1_pair_d1_report.json").read_text()
        assert json.loads(text)["results"][0]["p_refine_weighted"] is not None
        assert self.SINGLE_OPTIONS_BLOCK in text

    def test_refine_mode_flag_equals_file_value(self):
        from chanceopt.cli import _apply_flags, _build_parser
        from chanceopt.problems import bundled_path
        doc = json.loads(bundled_path("example1_pair").read_text())
        problem, options = parse_document(doc)
        args = _build_parser().parse_args(["refine", "example1_pair",
                                           "--refine-mode", "single:0"])
        doc["options"]["refine_mode"] = "single:0"
        assert _apply_flags(problem, options, args) == parse_document(doc)[1]

    @pytest.mark.parametrize("command", ["verify", "grid"])
    @pytest.mark.parametrize("entry,where", [
        ("distributions", "input error: $.distributions[0].params: uniform needs a "
                          "finite width"),
        ("decision_box", "input error: $.decision_box[0]: decision box entry 0 must be "
                         "an interval of finite width"),
        ("sets", "input error: $.sets[0][0]: set 0 polynomial 0 is identically zero"),
    ], ids=["uniform", "box", "zero"])
    def test_overflowing_width_exit_two(self, entry, where, command, tmp_path):
        # hi - lo overflows to inf: an input error, found before any sampling;
        # so is a polynomial whose coefficients are all zero
        doc = emit_document(util.toy_problem())
        if entry == "distributions":
            doc["distributions"][0]["params"] = {"lo": -1e308, "hi": 1e308}
        elif entry == "decision_box":
            doc["decision_box"][0] = [-1e308, 1e308]
        else:
            for term in doc["sets"][0][0]:
                term["coeff"] = 0.0
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        proc = fresh_python("-m", "chanceopt", command, str(path), "--grid", "3",
                            "--samples", "100", "--out-dir", str(tmp_path / "out"),
                            cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(where)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_grid_report_counts_workers(self, cpus, tmp_path, monkeypatch):
        from chanceopt import mc
        monkeypatch.setattr(mc, "_usable_cpus", lambda: cpus)
        assert main(["grid", "example1_toy", "--grid", "3", "--samples", "100",
                     "--out-dir", str(tmp_path)]) == 0
        (path,) = tmp_path.glob("*_grid_report.json")
        report = json.loads(path.read_text())
        assert list(report) == ["x", "p", "wall_time", "workers"]
        can_fork = "fork" in multiprocessing.get_all_start_methods()
        assert report["workers"] == (cpus if can_fork else 1)

    def test_missing_file_exit_two(self, tmp_path, capsys):
        # a problem argument naming no readable problem file (missing, a
        # directory, bytes that are not UTF-8) is an input error naming it
        latin1 = tmp_path / "latin1.json"
        latin1.write_bytes(b'{"name": "caf\xe9"}')
        out = tmp_path / "out"
        for problem in ("no_such_problem.json", str(tmp_path), str(latin1)):
            assert main(["solve", problem, "--out-dir", str(out)]) == 2, problem
            err = capsys.readouterr().err
            assert err.startswith("input error: $: ") and problem in err
        assert not out.exists()

    # where each command writes, with {out} for the output location
    OUTPUT_ARGS = {
        "bundled": ["bundled", "example1_toy", "--out", "{out}/toy.json"],
        "grid": ["grid", "example1_toy", "--grid", "3", "--samples", "100",
                 "--out-dir", "{out}"],
        "solve": ["solve", "example1_toy", "--out-dir", "{out}"],
    }

    @pytest.mark.parametrize("command", ["bundled", "grid"])
    def test_output_parents_created(self, command, tmp_path):
        out = tmp_path / "nope" / "x"
        argv = [a.format(out=out) for a in self.OUTPUT_ARGS[command]]
        assert main(argv) == 0
        assert len(list(out.iterdir())) == 1

    @pytest.mark.parametrize("command", list(OUTPUT_ARGS))
    def test_uncreatable_output_exit_two(self, command, tmp_path, capsys, monkeypatch):
        # nothing can be created under a regular file; the check comes
        # before the problem is read, so parse is never reached
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setattr("chanceopt.cli.parse", None)
        argv = [a.format(out=blocker / "x") for a in self.OUTPUT_ARGS[command]]
        flag = "--out" if command == "bundled" else "--out-dir"
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"input error: {flag}: cannot ")

    def test_order_too_small_exit_two(self, toy_file, capsys):
        assert main(["solve", str(toy_file), "--order", "1"]) == 2
        assert "minimum relaxation order" in capsys.readouterr().err

    def test_resource_guard_exit_four(self, tmp_path, capsys):
        from chanceopt.problems import bundled_path
        code = main(["grid", "example1_5d", "--grid", "41", "--samples", "10",
                     "--out-dir", str(tmp_path)])
        assert code == 4
        assert "resource guard" in capsys.readouterr().err

    def test_solver_trouble_exit_three(self, toy_file, tmp_path):
        # one outer iteration with a tiny tolerance cannot converge
        code = main(["solve", str(toy_file), "--max-outer", "1",
                     "--tol", "1e-12", "--max-inner-cap", "50",
                     "--out-dir", str(tmp_path)])
        assert code == 3
        doc = json.loads((tmp_path / "toy_d2_report.json").read_text())
        assert doc["status"] == "complete_with_flags"

    def test_overflowing_penalty_exit_two(self, tmp_path, capsys):
        # beta^2 = 1e400 overflows before outer 2: a numerical error, no traceback
        assert main(["solve", "example1_toy", "--beta-growth", "1e200", "--max-outer", "2",
                     "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: penalty nu_2 = inf overflows before outer iteration 2")
        assert "Traceback" not in err

    def test_verify_at_flag(self, toy_file, tmp_path, capsys):
        code = main(["verify", str(toy_file), "--at", "0.5",
                     "--samples", "40000", "--out-dir", str(tmp_path)])
        assert code == 0
        assert "p_mc=0.25" in capsys.readouterr().out

    # toy decision box [-1, 1]; each bad --at value and its message
    BAD_AT = {
        "nan": "non-finite decision vector",
        "inf": "non-finite decision vector",
        "-inf": "non-finite decision vector",
        "0.5,nan": "non-finite decision vector",
        "5": "entry 0 = 5.0 outside the decision box [-1.0, 1.0]",
        "-1.0001": "entry 0 = -1.0001 outside the decision box [-1.0, 1.0]",
        "0.5,0.5": "2 entries for 1 decisions",
        "": "bad decision vector ''",
    }

    @pytest.mark.parametrize("value", list(BAD_AT))
    def test_verify_at_non_finite_exit_two(self, value, tmp_path, capsys):
        # "--at=VALUE": argparse would read a separate "-inf" as an option
        assert main(["verify", "example1_toy", f"--at={value}",
                     "--out-dir", str(tmp_path)]) == 2
        assert f"input error: --at: {self.BAD_AT[value]}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_verify_at_box_endpoint_runs(self, tmp_path, capsys):
        assert main(["verify", "example1_toy", "--at=-1", "--samples", "1000",
                     "--out-dir", str(tmp_path)]) == 0
        assert "x=[-1.0000]" in capsys.readouterr().out

    def test_verify_at_degenerate_interval_flagged(self, tmp_path, capsys):
        empty = ChanceProblem(
            name="empty", n=1, m=1, sets=((Polynomial.constant(2, -1.0),),),
            dist=DistributionSpec((Uniform(-1.0, 1.0),)),
            decision_box=((-1.0, 1.0),),
        )
        path = tmp_path / "empty.json"
        write_problem(empty, path, RunOptions(order=1))
        code = main(["verify", str(path), "--at", "0.0", "--samples", "1000",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        report = out.strip().splitlines()[-1].removeprefix("report: ")
        doc = json.loads(Path(report).read_text())
        res = doc["results"][0]
        assert res["p_mc"] == 0.0 and res["p_mc_halfwidth"] == 0.0
        assert res["flags"] == ["mc_interval_degenerate"]
        assert doc["status"] == "complete_with_flags"

    def test_unknown_bundled_name_exit_two(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["bundled", "nosuch"]) == 2
        err = capsys.readouterr().err
        assert "input error: $: no bundled problem 'nosuch'; available: example1_toy," in err
        assert not any(tmp_path.iterdir())

    def test_python_dash_m_entry_point(self, tmp_path):
        proc = fresh_python("-m", "chanceopt", "bundled", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "example4_control" in proc.stdout.split()

    def test_import_leaves_scipy_unloaded(self, tmp_path):
        proc = fresh_python("-c", "import sys, chanceopt.cli; print('scipy' in sys.modules)",
                            cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"]

    def test_only_a_chebyshev_build_loads_numpy_polynomial(self, tmp_path):
        # the Chebyshev tables import numpy.polynomial when first built, so
        # import, a monomial solve, verify and grid never pay for it
        out = ["--out-dir", str(tmp_path)]
        runs = [["solve", "example1_toy", "--max-inner-cap", "2000", "--tol", "1e-3",
                 "--max-outer", "12"],
                ["verify", "example1_toy", "--at", "0.5", "--samples", "2000"],
                ["grid", "example1_toy", "--grid", "3", "--samples", "2000"],
                ["build", "example1_toy", "--basis", "chebyshev"]]
        code = ("import sys\n"
                "def report(stage):\n"
                "    print('loaded', stage, 'numpy.polynomial' in sys.modules)\n"
                "import numpy\n"
                "report('numpy')\n"
                "from chanceopt import cli\n"
                "report('import')\n"
                f"for argv in {[argv + out for argv in runs]!r}:\n"
                "    if cli.main(argv):\n"
                "        sys.exit(f'{argv[0]} failed')\n"
                "    report(argv[0])\n")
        proc = fresh_python("-c", code, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        loaded = dict(line.split()[1:] for line in proc.stdout.splitlines()
                      if line.startswith("loaded "))
        if loaded["numpy"] == "True":
            pytest.skip("this numpy imports numpy.polynomial itself")
        assert loaded == {"numpy": "False", "import": "False", "solve": "False",
                          "verify": "False", "grid": "False", "build": "True"}

    def test_solve_runs_with_scipy_blocked(self, tmp_path):
        # a None entry in sys.modules makes every scipy import raise ImportError
        argv = ["solve", "example1_toy", "--max-inner-cap", "2000", "--tol", "1e-3",
                "--max-outer", "12", "--out-dir", str(tmp_path)]
        code = ("import sys\n"
                "sys.modules['scipy'] = None\n"
                "from chanceopt import cli\n"
                f"sys.exit(cli.main({argv!r}))\n")
        proc = fresh_python("-c", code, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "p_sdp=0.66" in proc.stdout

    def test_sweep_writes_series(self, toy_file, tmp_path):
        code = main(["sweep", str(toy_file), "--dmin", "2", "--dmax", "2",
                     "--max-inner-cap", "800", "--tol", "1e-3",
                     "--samples", "5000", "--out-dir", str(tmp_path)])
        assert code == 0
        # a sweep report never names an order, even when the sweep has one
        assert sorted(f.name for f in tmp_path.iterdir()) == [
            "toy_report.json", "toy_series.csv"]
        series = (tmp_path / "toy_series.csv").read_text()
        header = series.splitlines()[0]
        assert header == "order,p_sdp,p_refine_indicator,p_refine_weighted,p_mc,p_mc_halfwidth"

    def test_sweep_identical_bytes(self, toy_file, tmp_path):
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            main(["sweep", str(toy_file), "--dmin", "2", "--dmax", "2",
                  "--max-inner-cap", "800", "--tol", "1e-3",
                  "--samples", "5000", "--out-dir", str(tmp_path / sub)])
        a = (tmp_path / "a" / "toy_series.csv").read_bytes()
        b = (tmp_path / "b" / "toy_series.csv").read_bytes()
        assert a == b

    def test_interrupt_writes_partial_report(self, toy_file, tmp_path,
                                             monkeypatch, capsys):
        import chanceopt.pipeline as pl

        calls = {"n": 0}
        real = pl.alcc_solve

        def flaky(program, params, **kw):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise KeyboardInterrupt
            return real(program, params, **kw)

        monkeypatch.setattr(pl, "alcc_solve", flaky)
        code = main(["sweep", str(toy_file), "--dmin", "2", "--dmax", "3",
                     "--max-inner-cap", "800", "--tol", "1e-3",
                     "--samples", "2000", "--out-dir", str(tmp_path)])
        assert code == 130
        doc = json.loads((tmp_path / "toy_report.json").read_text())
        assert doc["status"] == "interrupted"
        assert "partial report" in capsys.readouterr().err

    def test_solve_reports_lanes(self, monkeypatch):
        util.plan_for_cpus(monkeypatch, 2)
        union, options = problems.CONSTRUCTORS["example2_union"]()
        options = dataclasses.replace(options, order=2,
                                      solver=SolverParams(max_outer=1, max_inner_cap=20))
        res = run_pipeline(union, options, "solve").results[0]
        assert res.solver["lanes"] == 2

    def test_interrupted_solve_in_lanes_writes_partial_report(self, tmp_path, monkeypatch,
                                                              capsys):
        # grid_search forks, so no lane thread may outlive an interrupted solve
        from chanceopt import conic
        util.plan_for_cpus(monkeypatch, 2)
        blas_threads, set_blas_threads = conic._openblas_threads()
        real, calls = conic._eigh, [0]

        def eigh(*args, **kw):
            if threading.current_thread() is threading.main_thread():
                calls[0] += 1
                if calls[0] == 10:
                    raise KeyboardInterrupt
            return real(*args, **kw)

        monkeypatch.setattr(conic, "_eigh", eigh)
        original = blas_threads()
        set_blas_threads(2)     # not 1, so a solve that leaves one thread is seen
        try:
            before = (threading.active_count(), blas_threads())
            code = main(["solve", "example2_union", "--order", "2", "--max-outer", "2",
                         "--max-inner-cap", "50", "--out-dir", str(tmp_path)])
            after = (threading.active_count(), blas_threads())
        finally:
            set_blas_threads(original)
        assert code == 130
        assert calls[0] == 10
        doc = json.loads((tmp_path / "example2_union_report.json").read_text())
        assert doc["status"] == "interrupted"
        assert "partial report" in capsys.readouterr().err
        assert after == before

    def test_interrupt_after_first_order_keeps_sweep_name(
            self, toy_file, tmp_path, monkeypatch):
        import chanceopt.pipeline as pl

        real = pl.build_chance_sdp

        def stop_at_order_three(scaled, order, **kw):
            if order == 3:
                raise KeyboardInterrupt
            return real(scaled, order, **kw)

        monkeypatch.setattr(pl, "build_chance_sdp", stop_at_order_three)
        code = main(["sweep", str(toy_file), "--dmin", "2", "--dmax", "3",
                     "--max-inner-cap", "800", "--tol", "1e-3",
                     "--samples", "2000", "--out-dir", str(tmp_path)])
        assert code == 130
        doc = json.loads((tmp_path / "toy_report.json").read_text())
        assert doc["status"] == "interrupted"
        assert [r["order"] for r in doc["results"]] == [2]
        assert not (tmp_path / "toy_d2_report.json").exists()

    @pytest.mark.parametrize("command", [["verify"], ["sweep", "--dmin", "2", "--dmax", "2"]])
    def test_unsamplable_law_fails_before_any_solve(self, command, tmp_path, capsys,
                                                    monkeypatch):
        # the toy's uniform law given as its raw moments: the relaxation can
        # use it, Monte Carlo cannot, so the run must stop before solving
        uniform = ExplicitMoments(tuple(1.0 / (k + 1) if k % 2 == 0 else 0.0
                                        for k in range(9)))
        problem = dataclasses.replace(util.toy_problem(),
                                      dist=DistributionSpec((uniform,)))
        path = tmp_path / "toy.json"
        write_problem(problem, path, RunOptions(order=2))

        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the sampling check")

        monkeypatch.setattr("chanceopt.pipeline.alcc_solve", no_solve)
        assert main([*command, str(path), "--out-dir", str(tmp_path)]) == 2
        assert "cannot sample from an explicit moment list" in capsys.readouterr().err

    def test_chebyshev_flag(self, toy_file, tmp_path, capsys):
        code = main(["solve", str(toy_file), "--basis", "chebyshev",
                     "--max-inner-cap", "2000", "--tol", "1e-3",
                     "--max-outer", "12", "--out-dir", str(tmp_path)])
        assert code == 0
        assert "p_sdp=0.6" in capsys.readouterr().out


def test_readme_library_use_resolves():
    # The README's "Library use" block reads only names the package exports.
    # It is parsed, not run: its solves take tens of seconds.
    import ast

    import chanceopt

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    tree = ast.parse(block)
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "co"}
    assert read, "no co.<name> in the Library use block"
    assert sorted(name for name in read if not hasattr(chanceopt, name)) == []
    imports = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert {getattr(node, "module", None) for node in imports} == {None, "chanceopt.problems"}
    exec(compile(ast.Module(body=imports, type_ignores=[]), "README.md", "exec"), {})
