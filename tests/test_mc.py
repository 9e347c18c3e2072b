"""Monte Carlo estimator and grid-search baseline."""

import numpy as np
import pytest

import util
from chanceopt.errors import ModelError, ResourceError
from chanceopt.mc import McConfig, UnionEvaluator, estimate_probability, grid_search
from chanceopt.measures import DistributionSpec, Uniform, sample
from chanceopt.poly import Polynomial
from chanceopt.problems import BUNDLED, load_bundled
from chanceopt.relaxation import ChanceProblem


def constant_set_problem(value: float) -> ChanceProblem:
    return ChanceProblem(
        name="const", n=1, m=1,
        sets=((Polynomial.constant(2, value),),),
        dist=DistributionSpec((Uniform(-1, 1),)),
        decision_box=((-1, 1),),
    )


def halfspace_problem() -> ChanceProblem:
    # q >= 0 under a symmetric uniform: probability exactly one half
    q = Polynomial.coordinate(2, 1)
    return ChanceProblem(
        name="half", n=1, m=1, sets=((q,),),
        dist=DistributionSpec((Uniform(-1, 1),)),
        decision_box=((-1, 1),),
    )


def pair_problem() -> ChanceProblem:
    x = Polynomial.coordinate(2, 0)
    q = Polynomial.coordinate(2, 1)
    p1 = 0.1275 + 0.7 * x - x**2 - q**2
    p2 = -0.1225 + 0.7 * x + q - x**2 - q**2
    return ChanceProblem(
        name="pair", n=1, m=1, sets=((p1, p2),),
        dist=DistributionSpec((Uniform(-1, 1),)),
        decision_box=((-1, 1),),
    )


class TestEstimate:
    def test_empty_set_exact_zero(self):
        est, half = estimate_probability(constant_set_problem(-1.0), [0.0],
                                         McConfig(samples=500, seed=0))
        assert est == 0.0 and half == 0.0

    def test_full_set_exact_one(self):
        est, _ = estimate_probability(constant_set_problem(1.0), [0.0],
                                      McConfig(samples=500, seed=0))
        assert est == 1.0

    def test_boundary_counts_inside(self):
        # the constraint x >= 0 evaluates to exactly zero at the decision 0:
        # non-strict membership keeps every draw
        x = Polynomial.coordinate(2, 0)
        prob = ChanceProblem(
            name="edge", n=1, m=1, sets=((x,),),
            dist=DistributionSpec((Uniform(-1, 1),)),
            decision_box=((-1, 1),),
        )
        est, _ = estimate_probability(prob, [0.0], McConfig(samples=100, seed=0))
        assert est == 1.0

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_decision_rejected(self, value):
        with pytest.raises(ModelError, match="decision entry 0"):
            estimate_probability(constant_set_problem(-1.0), [value],
                                 McConfig(samples=500, seed=0))

    def test_toy_quarter(self):
        est, half = estimate_probability(util.toy_problem(), [0.5],
                                         McConfig(samples=100_000, seed=11))
        assert abs(est - 0.25) <= 0.01
        assert half == pytest.approx(3 * np.sqrt(est * (1 - est) / 100_000))

    def test_determinism(self):
        cfg = McConfig(samples=20_000, seed=5)
        a = estimate_probability(util.toy_problem(), [0.5], cfg)
        b = estimate_probability(util.toy_problem(), [0.5], cfg)
        assert a == b

    def test_union_duplicate_counts_once(self):
        prob = util.toy_problem()
        doubled = ChanceProblem(
            name="dup", n=1, m=1, sets=(prob.sets[0], prob.sets[0]),
            dist=prob.dist, decision_box=prob.decision_box,
        )
        cfg = McConfig(samples=30_000, seed=3)
        assert estimate_probability(prob, [0.5], cfg) == \
            estimate_probability(doubled, [0.5], cfg)

    def test_union_monotone(self):
        # adding a set can only grow the estimate under a shared seed
        x = Polynomial.coordinate(2, 0)
        q = Polynomial.coordinate(2, 1)
        one = ChanceProblem(
            name="one", n=1, m=1, sets=((q - 0.5,),),
            dist=DistributionSpec((Uniform(-1, 1),)),
            decision_box=((-1, 1),),
        )
        two = ChanceProblem(
            name="two", n=1, m=1, sets=((q - 0.5,), (-q - 0.5 + x * 0.0,)),
            dist=one.dist, decision_box=one.decision_box,
        )
        cfg = McConfig(samples=20_000, seed=9)
        est1, _ = estimate_probability(one, [0.0], cfg)
        est2, _ = estimate_probability(two, [0.0], cfg)
        assert est2 >= est1

    def test_calibration_known_half(self):
        # 50 independent estimates of a probability-1/2 event: at least 45
        # fall within the reported 3-sigma half width
        prob = halfspace_problem()
        hits = 0
        for seed in range(50):
            est, half = estimate_probability(prob, [0.0],
                                             McConfig(samples=2000, seed=seed))
            if abs(est - 0.5) <= half:
                hits += 1
        assert hits >= 45


def one_parameter_problem(sets) -> ChanceProblem:
    return ChanceProblem(
        name="edge", n=1, m=1, sets=sets,
        dist=DistributionSpec((Uniform(-1, 1),)),
        decision_box=((-1, 1),),
    )


class TestUnionEvaluator:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_matches_reference_membership(self, name):
        prob, _ = load_bundled(name)
        lo, hi = np.array(prob.decision_box, dtype=float).T
        rng = np.random.default_rng(BUNDLED.index(name))
        evaluator = UnionEvaluator(prob)
        for k, x in enumerate([(lo + hi) / 2, lo, rng.uniform(lo, hi)]):
            draws = sample(prob.dist, 20_000, k)
            member = evaluator.membership(x, draws)
            assert np.array_equal(member, util.reference_membership(prob, x, draws))

    def test_mixed_powers_match_reference(self):
        # monomials whose later factors carry powers, e.g. q0 * q1**2
        x, q0, q1 = (Polynomial.coordinate(3, i) for i in range(3))
        prob = ChanceProblem(
            name="mixed", n=1, m=2,
            sets=((x * q0 * q1**2 + q0**3 * q1**3 - 0.05, 0.5 - q1),),
            dist=DistributionSpec((Uniform(-1, 1), Uniform(-1, 1))),
            decision_box=((-1, 1),),
        )
        evaluator = UnionEvaluator(prob)
        draws = sample(prob.dist, 20_000, 2)
        for x_val in (-1.0, -0.3, 0.4, 1.0):
            member = evaluator.membership(np.array([x_val]), draws)
            assert 0.0 < member.mean() < 1.0
            assert np.array_equal(member, util.reference_membership(prob, [x_val], draws))

    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_draw_layouts_and_shared_prefixes(self, layout):
        # monomials whose leading factors another monomial shares (q0*q1
        # and q0*q1*q2, q0**3 and q0**3*q1), each built from its own
        # factors, a unit factor before a power (q0*q2**2) and a power
        # first (q1**2*q2), on row-major and coordinate-major draws
        x, q0, q1, q2 = (Polynomial.coordinate(4, i) for i in range(4))
        prob = ChanceProblem(
            name="prefixes", n=1, m=3,
            sets=((x * q0 * q1 + q0 * q1 * q2 - 0.1 * q0 * q2**2 + 0.05,
                   0.9 - q1**2 * q2),
                  (x * q0**3 - q0**3 * q1 - 0.2,)),
            dist=DistributionSpec((Uniform(-1, 1), Uniform(-1, 1), Uniform(-0.5, 1))),
            decision_box=((-1, 1),),
        )
        evaluator = UnionEvaluator(prob)
        draws = np.array(sample(prob.dist, 10_000, 4), order=layout)
        for x_val in (-1.0, 0.2, 1.0):
            member = evaluator.membership(np.array([x_val]), draws)
            assert 0.0 < member.mean() < 1.0
            assert np.array_equal(member, util.reference_membership(prob, [x_val], draws))

    def test_folded_cancellation_counts_inside(self):
        # x*q + q at x = -1: the folded coefficient of q is exactly zero
        x = Polynomial.coordinate(2, 0)
        q = Polynomial.coordinate(2, 1)
        prob = one_parameter_problem(((x * q + q,),))
        draws = sample(prob.dist, 5_000, 0)
        member = UnionEvaluator(prob).membership(np.array([-1.0]), draws)
        assert member.all()
        assert np.array_equal(member, util.reference_membership(prob, [-1.0], draws))

    def test_polynomial_without_random_monomial(self):
        x = Polynomial.coordinate(2, 0)
        prob = one_parameter_problem(((x - 0.5,),))
        evaluator = UnionEvaluator(prob)
        assert evaluator.shape == (1, 1)
        draws = sample(prob.dist, 5_000, 0)
        assert evaluator.membership(np.array([0.5]), draws).all()
        assert not evaluator.membership(np.array([0.25]), draws).any()

    def test_union_of_q_free_and_q_dependent_sets(self):
        x = Polynomial.coordinate(2, 0)
        q = Polynomial.coordinate(2, 1)
        prob = one_parameter_problem(((x - 0.5,), (q - 0.5, x + 1.0)))
        evaluator = UnionEvaluator(prob)
        draws = sample(prob.dist, 5_000, 1)
        for x_val in (0.75, 0.5, 0.0, -1.0):
            member = evaluator.membership(np.array([x_val]), draws)
            assert np.array_equal(member, util.reference_membership(prob, [x_val], draws))
        assert evaluator.membership(np.array([0.75]), draws).all()
        assert np.array_equal(evaluator.membership(np.array([0.0]), draws),
                              draws[:, 0] >= 0.5)


class TestGridSearch:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_reference_loop(self, seed):
        prob, _ = load_bundled("example4_control")
        cfg = McConfig(samples=2000, grid_points=3, seed=seed)
        x, p = grid_search(prob, cfg)
        x_ref, p_ref = util.reference_grid_search(prob, cfg)
        assert p == p_ref
        assert np.array_equal(x, x_ref)

    def test_control_benchmark_grid_pinned(self):
        # the control-grid benchmark's grid at seed 0, exact to the last bit
        prob, _ = load_bundled("example4_control")
        x, p = grid_search(prob, McConfig(samples=20_000, grid_points=11, seed=0))
        assert list(x) == [-1.0, 0.40000000000000013, -1.0]
        assert p == 0.83905 and type(p) is float

    def test_single_point_grid(self):
        prob = util.toy_problem()
        x, p = grid_search(prob, McConfig(samples=1000, grid_points=1, seed=0))
        assert x[0] == pytest.approx(-1.0)      # the left endpoint

    def test_toy_forty_one_points(self):
        # the measure gap to the neighboring cells is only 0.0025, so a
        # small budget can land one cell off; the acceptance suite runs the
        # strict one-cell check with a larger budget
        x, p = grid_search(util.toy_problem(),
                           McConfig(samples=150_000, grid_points=41, seed=1))
        assert abs(x[0] - 0.5) <= 0.055
        assert abs(p - 0.25) <= 0.02

    def test_pair_problem_quarter(self):
        x, p = grid_search(pair_problem(),
                           McConfig(samples=20_000, grid_points=41, seed=2))
        assert abs(p - 0.25) <= 0.02

    def test_config_accepts_seed_sequence(self):
        seed = np.random.SeedSequence([0, 1])
        assert McConfig(seed=seed).seed is seed
        with pytest.raises(ValueError, match="seed"):
            McConfig(seed=-1)

    def test_budget_guard(self):
        prob5 = ChanceProblem(
            name="big", n=5, m=1,
            sets=((Polynomial.constant(6, 1.0),),),
            dist=DistributionSpec((Uniform(-1, 1),)),
            decision_box=tuple((-1, 1) for _ in range(5)),
        )
        with pytest.raises(ResourceError):
            grid_search(prob5, McConfig(samples=10, grid_points=41, seed=0))

    def test_tie_break_lowest_grid_index(self):
        # empty set everywhere: every estimate is zero, the first grid point
        # in graded reverse lexicographic index order wins
        prob = ChanceProblem(
            name="tie", n=2, m=1,
            sets=((Polynomial.constant(3, -1.0),),),
            dist=DistributionSpec((Uniform(-1, 1),)),
            decision_box=((-1, 1), (0, 2)),
        )
        x, p = grid_search(prob, McConfig(samples=10, grid_points=3, seed=0))
        assert p == 0.0
        assert np.allclose(x, [-1.0, 0.0])
