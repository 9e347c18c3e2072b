"""Problem file validation, emission, and round trips."""

import json

import pytest

import util
from chanceopt.alcc import SolverParams
from chanceopt.errors import ProblemFormatError
from chanceopt.mc import McConfig
from chanceopt.problem_io import (
    RunOptions,
    emit_document,
    parse,
    parse_document,
    parse_refine_mode,
    write_problem,
)


def minimal_doc():
    return {
        "schema": "chanceopt/1",
        "name": "mini",
        "n": 1,
        "m": 1,
        "decision_box": [[-1.0, 1.0]],
        "distributions": [{"type": "uniform", "params": {"lo": -1.0, "hi": 1.0}}],
        # one set, one polynomial, two terms
        "sets": [[[{"exponents": [1, 0], "coeff": 1.0},
                   {"exponents": [0, 1], "coeff": -0.5}]]],
    }


class TestParse:
    def test_minimal_valid(self):
        problem, options = parse_document(minimal_doc())
        assert problem.name == "mini"
        assert problem.sets[0][0].terms == {(1, 0): 1.0, (0, 1): -0.5}
        assert options == RunOptions()

    def test_missing_schema(self):
        doc = minimal_doc()
        del doc["schema"]
        with pytest.raises(ProblemFormatError, match=r"\$\.schema"):
            parse_document(doc)

    def test_wrong_exponent_length_names_polynomial(self):
        doc = minimal_doc()
        doc["sets"][0][0][0]["exponents"] = [1]
        with pytest.raises(ProblemFormatError,
                           match=r"\$\.sets\[0\]\[0\]\[0\]\.exponents"):
            parse_document(doc)

    def test_unsupported_distribution(self):
        doc = minimal_doc()
        doc["distributions"][0] = {"type": "gaussian", "params": {}}
        with pytest.raises(ProblemFormatError, match="unsupported distribution"):
            parse_document(doc)

    def test_bad_interval(self):
        doc = minimal_doc()
        doc["decision_box"][0] = [1.0, -1.0]
        with pytest.raises(ProblemFormatError, match=r"decision_box\[0\]"):
            parse_document(doc)

    def test_empty_sets_rejected(self):
        doc = minimal_doc()
        doc["sets"] = []
        with pytest.raises(ProblemFormatError, match=r"\$\.sets"):
            parse_document(doc)

    def test_duplicate_exponents_accumulate(self):
        doc = minimal_doc()
        doc["sets"][0][0] = [
            {"exponents": [1, 0], "coeff": 1.0},
            {"exponents": [1, 0], "coeff": 2.0},
        ]
        problem, _ = parse_document(doc)
        assert problem.sets[0][0].terms == {(1, 0): 3.0}

    def test_options_parsed(self):
        doc = minimal_doc()
        # a second polynomial, so that single:1 names one in every set
        doc["sets"][0].append([{"exponents": [0, 2], "coeff": 1.0}])
        doc["options"] = {
            "order": 3,
            "omega_r": 0.1,
            "basis": "chebyshev",
            "refine_mode": "single:1",
            "solver": {"nu0": 0.05, "max_outer": 9},
            "mc": {"samples": 1234, "seed": 5},
        }
        _, options = parse_document(doc)
        assert options.order == 3
        assert options.omega_r == 0.1
        assert options.basis == "chebyshev"
        assert options.refine_mode == "single" and options.refine_index == 1
        assert options.solver.nu0 == 0.05 and options.solver.max_outer == 9
        assert options.mc.samples == 1234 and options.mc.seed == 5

    def test_unknown_option_rejected(self):
        doc = minimal_doc()
        doc["options"] = {"ordre": 2}
        with pytest.raises(ProblemFormatError, match="unknown option"):
            parse_document(doc)

    @pytest.mark.parametrize("key", ["n", "m"])
    def test_bool_count_rejected(self, key):
        doc = minimal_doc()
        doc[key] = True
        with pytest.raises(ProblemFormatError, match=rf"\$\.{key}:"):
            parse_document(doc)

    @pytest.mark.parametrize("options,where", [
        pytest.param({"solver": {"max_outer": 0}},
                     r"\$\.options\.solver: max_outer", id="max_outer"),
        pytest.param({"solver": {"max_inner_cap": 0}},
                     r"\$\.options\.solver: max_inner_cap", id="max_inner_cap"),
        pytest.param({"solver": {"seed": -1}}, r"\$\.options\.solver: seed",
                     id="solver_seed"),
        pytest.param({"mc": {"seed": -1}}, r"\$\.options\.mc: seed", id="mc_seed"),
        pytest.param({"order": -1}, r"\$\.options: order", id="order"),
        pytest.param({"omega_r": -1}, r"\$\.options: omega_r", id="omega_r"),
        pytest.param({"basis": "legendre"}, r"\$\.options: basis", id="basis"),
        pytest.param({"solver": {"nu0": "1"}},
                     r"\$\.options\.solver\.nu0: nu0 must be numeric", id="nu0_type"),
        pytest.param({"mc": {"samples": 1.5}},
                     r"\$\.options\.mc\.samples: samples must be a JSON integer",
                     id="samples_type"),
        pytest.param({"basis": 3}, r"\$\.options\.basis: basis must be a JSON string",
                     id="basis_type"),
        pytest.param({"mc": {"grid": 5}}, r"\$\.options\.mc: unknown option",
                     id="mc_unknown"),
    ])
    def test_invalid_option_names_field(self, options, where):
        doc = minimal_doc()
        doc["options"] = options
        with pytest.raises(ProblemFormatError, match=where):
            parse_document(doc)

    @pytest.mark.parametrize("kwargs", [
        {"refine_mode": "fancy"},
        {"refine_mode": "single"},
        {"refine_mode": "product", "refine_index": 1},
    ])
    def test_refine_index_set_exactly_for_single(self, kwargs):
        with pytest.raises(ValueError, match="refine_"):
            RunOptions(**kwargs)

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ProblemFormatError, match="not valid JSON"):
            parse(path)

    def test_refine_mode_strings(self):
        assert parse_refine_mode("indicator") == ("indicator", None)
        assert parse_refine_mode("product") == ("product", None)
        assert parse_refine_mode("single:2") == ("single", 2)
        with pytest.raises(ProblemFormatError):
            parse_refine_mode("fancy")
        with pytest.raises(ProblemFormatError):
            parse_refine_mode("single:x")


class TestRoundTrip:
    def test_emit_parse_identity(self):
        problem = util.toy_problem()
        options = RunOptions(order=2, omega_r=0.05, basis="chebyshev",
                             refine_mode="single", refine_index=0,
                             solver=SolverParams(nu0=0.5, tol=1e-4),
                             mc=McConfig(samples=777, grid_points=11, seed=2))
        doc = emit_document(problem, options)
        back_problem, back_options = parse_document(doc)
        assert back_problem == problem
        assert back_options == options

    def test_json_file_round_trip(self, tmp_path):
        problem = util.toy_problem()
        path = write_problem(problem, tmp_path / "toy.json", RunOptions(order=2))
        back_problem, back_options = parse(path)
        assert back_problem == problem
        assert back_options.order == 2

    def test_float_values_survive_json(self, tmp_path):
        problem = util.toy_problem()
        path = write_problem(problem, tmp_path / "toy.json")
        text = path.read_text()
        doc = json.loads(text)
        back_problem, _ = parse_document(doc)
        for p, q in zip(back_problem.sets[0], problem.sets[0]):
            assert p.terms == q.terms
