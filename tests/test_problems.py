"""Bundled problem instances: files, constructors, and published structure."""

import numpy as np
import pytest

from chanceopt import problems
from chanceopt.relaxation import build_chance_sdp, min_relaxation_order, scale_problem


class TestBundledFiles:
    def test_files_match_constructors(self):
        for name, ctor in problems.CONSTRUCTORS.items():
            file_problem, file_options = problems.load_bundled(name)
            ctor_problem, ctor_options = ctor()
            assert file_problem == ctor_problem, name
            assert file_options == ctor_options, name

    def test_regenerated_files_match_shipped_bytes(self, tmp_path):
        written = problems.write_bundled_files(tmp_path)
        assert sorted(p.name for p in written) == sorted(f"{n}.json" for n in problems.BUNDLED)
        for path in written:
            shipped = problems.bundled_path(path.stem).read_bytes()
            assert path.read_bytes() == shipped, path.name

    def test_bundled_listing(self):
        assert set(problems.BUNDLED) == set(problems.CONSTRUCTORS)


class TestToyCoefficients:
    def test_expansion_matches_displayed_polynomial(self):
        # q(q^2 + (x - 1/2)^2)/2 - (q^4 + q^2 (x-1/2)^2 + (x-1/2)^4), expanded
        problem, options = problems.example1_toy()
        p = problem.sets[0][0]
        expect = {
            (0, 3): 0.5, (2, 1): 0.5, (1, 1): -0.5, (0, 1): 0.125,
            (0, 4): -1.0, (2, 2): -1.0, (1, 2): 1.0, (0, 2): -0.25,
            (4, 0): -1.0, (3, 0): 2.0, (2, 0): -1.5, (1, 0): 0.5,
            (0, 0): -0.0625,
        }
        assert p.terms == pytest.approx(expect)
        assert options.order == 2

    def test_minimum_order_is_two(self):
        problem, _ = problems.example1_toy()
        assert min_relaxation_order(problem) == 2


class TestControlDynamics:
    def test_first_state_after_two_steps(self):
        # x1(2) reduces to the model parameter times x1(0) x3(0)
        s = problems._control_state_after_two_steps()
        assert s[0].terms == {(0, 0, 0, 1, 0, 1, 1): 1.0}

    def test_second_state_after_two_steps(self):
        s = problems._control_state_after_two_steps()
        k1 = (1, 0, 0, 1, 1, 0, 1)     # K1 * x1(0) x2(0) * Delta
        base = (0, 0, 0, 1, 1, 0, 1)
        assert s[1].terms[base] == pytest.approx(1.2)
        assert s[1].terms[k1] == pytest.approx(1.0)
        assert s[1].terms[(0, 1, 0, 0, 2, 0, 1)] == pytest.approx(1.0)
        assert s[1].terms[(0, 0, 0, 0, 2, 0, 1)] == pytest.approx(-0.5)

    def test_third_state_gain_squared_group(self):
        s = problems._control_state_after_two_steps()
        assert s[2].terms[(0, 0, 2, 0, 0, 1, 0)] == pytest.approx(1.0)   # K3^2 x3
        assert s[2].terms[(0, 0, 1, 0, 0, 1, 0)] == pytest.approx(2.0)   # 2 K3 x3
        assert s[2].terms[(0, 0, 0, 0, 0, 1, 0)] == pytest.approx(1.0)   # x3

    def test_minimum_order_is_two(self):
        problem, options = problems.example4_control()
        assert min_relaxation_order(problem) == 2
        assert options.order == 2

    def test_box_constraints_both_sides(self):
        problem, _ = problems.example4_control()
        s = problems._control_state_after_two_steps()
        polys = problem.sets[0]
        assert len(polys) == 6
        rng = np.random.default_rng(0)
        for _ in range(20):
            z = rng.uniform(-1, 1, 7)
            for i, comp in enumerate(s):
                assert polys[2 * i](z) == pytest.approx(0.1 - comp(z))
                assert polys[2 * i + 1](z) == pytest.approx(comp(z) + 0.1)


class TestPortfolio:
    def test_structure(self):
        problem, _ = problems.example3_portfolio()
        polys = problem.sets[0]
        assert len(polys) == 6
        # nonnegativity of each weight
        for j in range(4):
            e = [0] * 8
            e[j] = 1
            assert polys[j].terms == {tuple(e): 1.0}
        # budget: 1 - sum of weights
        assert polys[4].terms[(0,) * 8] == pytest.approx(1.0)
        # return target: every term carries a weight factor, so the constant
        # is just the negated threshold
        target = polys[5]
        assert target.terms[(0,) * 8] == pytest.approx(-1.5)
        # coefficient on x1: xi_1 = 1 + q1 contributes a bare 1.0
        e_x1 = (1, 0, 0, 0, 0, 0, 0, 0)
        assert target.terms[e_x1] == pytest.approx(1.0)
        e_x1q1 = (1, 0, 0, 0, 1, 0, 0, 0)
        assert target.terms[e_x1q1] == pytest.approx(1.0)

    def test_scaling_keeps_beta_coordinates(self):
        problem, _ = problems.example3_portfolio()
        scaled = scale_problem(problem)
        kinds = [type(c).__name__ for c in scaled.problem.dist.coords]
        assert kinds == ["Beta", "Beta", "Beta", "Uniform"]
        # the U[0.5, 1] leg is rescaled to [-1, 1]
        assert scaled.problem.dist.coords[3].lo == -1.0
        assert np.allclose(scaled.random_map.half, [1, 1, 1, 0.25])


class TestScalingFamily:
    def test_generator_sizes(self):
        for size in (1, 3, 5):
            problem, _ = problems.make_scaling_problem(size)
            assert problem.n == size and problem.m == size
            p = problem.sets[0][0]
            assert p.terms[(0,) * (2 * size)] == pytest.approx(0.81)
            assert min_relaxation_order(problem) == 1

    def test_optimum_at_origin(self):
        problem, _ = problems.make_scaling_problem(2)
        p = problem.sets[0][0]
        # at x = q the constraint sits at its maximum value 0.81
        assert p([0.3, -0.2, 0.3, -0.2]) == pytest.approx(0.81)


class TestVariableCounts:
    @pytest.mark.parametrize("name,order,expected", [
        ("example1_5d", 1, 87), ("example1_5d", 2, 1127),
        ("example2_union", 1, 153), ("example2_union", 2, 2128),
        ("example3_portfolio", 1, 60), ("example3_portfolio", 2, 565),
        ("example4_control", 2, 365), ("example4_control", 3, 1800),
    ])
    def test_num_scalars(self, name, order, expected):
        problem, _ = problems.CONSTRUCTORS[name]()
        prog = build_chance_sdp(scale_problem(problem), order)
        assert prog.num_scalars == expected
