"""Scaling, ball certificates, program assembly, refinement, and decoding."""

import numpy as np
import pytest

import util
from chanceopt import problems
from chanceopt.alcc import SolverParams, alcc_solve
from chanceopt.errors import ModelError, OrderError
from chanceopt.measures import Beta, DistributionSpec, Uniform
from chanceopt.moments import BASES, MomentVector
from chanceopt.poly import Polynomial, basis_size, exponents
from chanceopt.problems import load_bundled
from chanceopt.relaxation import (
    ChanceProblem,
    add_ball_certificate,
    build_chance_sdp,
    build_refinement_sdp,
    decode,
    min_relaxation_order,
    scale_problem,
    substitute_decision,
)


def _quick_params(**kw):
    base = dict(nu0=1.0, tol=1e-6, max_outer=14, max_inner_cap=4000)
    base.update(kw)
    return SolverParams(**base)


class TestScaling:
    def test_already_scaled_identity(self):
        prob = util.toy_problem()
        scaled = scale_problem(prob)
        assert scaled.problem == prob
        assert scaled.decision_map.is_identity
        assert scaled.random_map.is_identity

    def test_unit_box_substitution(self):
        # x in [0, 1] becomes (u + 1) / 2; the constraint x >= 0 follows
        x = Polynomial.coordinate(2, 0)
        prob = ChanceProblem(
            name="p", n=1, m=1, sets=((x,),),
            dist=DistributionSpec((Uniform(-1, 1),)),
            decision_box=((0.0, 1.0),),
        )
        scaled = scale_problem(prob)
        assert scaled.problem.sets[0][0].terms == {(0, 0): 0.5, (1, 0): 0.5}
        assert scaled.problem.decision_box == ((-1.0, 1.0),)
        assert np.allclose(scaled.decision_map.to_original([-1.0, ]), [0.0])
        assert np.allclose(scaled.decision_map.to_original([1.0, ]), [1.0])

    def test_narrow_uniform_rescaled(self):
        # a U[-0.4, 0.4] parameter becomes 0.4 w with w uniform on [-1, 1]
        x = Polynomial.coordinate(2, 0)
        q = Polynomial.coordinate(2, 1)
        prob = ChanceProblem(
            name="p", n=1, m=1, sets=((x + q,),),
            dist=DistributionSpec((Uniform(-0.4, 0.4),)),
            decision_box=((-1.0, 1.0),),
        )
        scaled = scale_problem(prob)
        assert scaled.problem.dist.coords[0] == Uniform(-1.0, 1.0)
        assert np.allclose(scaled.random_map.half, [0.4])
        assert scaled.problem.sets[0][0].terms == {(1, 0): 1.0, (0, 1): 0.4}

    def test_point_equivalence_under_scaling(self):
        rng = np.random.default_rng(0)
        polys = ((Polynomial(3, {(2, 0, 0): -1.0, (0, 1, 1): 0.5, (0, 0, 0): 0.3}),),)
        prob = ChanceProblem(
            name="p", n=1, m=2, sets=polys,
            dist=DistributionSpec((Uniform(-0.4, 0.4), Beta(2, 2))),
            decision_box=((-2.0, 3.0),),
        )
        scaled = scale_problem(prob)
        for _ in range(25):
            u = rng.uniform(-1, 1, 1)
            w = np.array([rng.uniform(-1, 1), rng.uniform(0, 1)])
            x = scaled.decision_map.to_original(u)
            qv = scaled.random_map.to_original(w)
            orig = prob.sets[0][0](np.concatenate([x, qv]))
            new = scaled.problem.sets[0][0](np.concatenate([u, w]))
            assert new == pytest.approx(orig, abs=1e-12)

    def test_unbounded_box_rejected(self):
        x = Polynomial.coordinate(2, 0)
        with pytest.raises(ModelError):
            ChanceProblem(
                name="p", n=1, m=1, sets=((x,),),
                dist=DistributionSpec((Uniform(-1, 1),)),
                decision_box=((0.0, float("inf")),),
            )

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ModelError, match="identically zero"):
            ChanceProblem(
                name="p", n=1, m=1, sets=((Polynomial.zero(2),),),
                dist=DistributionSpec((Uniform(-1, 1),)),
                decision_box=((-1.0, 1.0),),
            )

    def test_refinement_skips_constraints_vanishing_at_decision(self):
        # x >= 0 fixed at x = 0 contributes no localizing block but the
        # program still builds and stays solvable
        x = Polynomial.coordinate(2, 0)
        q = Polynomial.coordinate(2, 1)
        prob = ChanceProblem(
            name="edge", n=1, m=1, sets=((x, 0.25 - q * q),),
            dist=DistributionSpec((Uniform(-1, 1),)),
            decision_box=((-1.0, 1.0),),
        )
        prog = build_refinement_sdp(prob, [0.0], 2, mode="indicator")
        labels = [b.label for b in prog.blocks]
        assert "localizer[0,1]" not in labels     # the vanished constraint
        assert "localizer[0,2]" in labels         # the surviving one
        trace = alcc_solve(prog, _quick_params())
        dec = decode(prog, trace.x)
        assert 0.5 - 2e-3 <= dec.mass <= 1.0 + 1e-3


class TestBallCertificate:
    def test_two_variable_formula(self):
        out = add_ball_certificate([], 1, 1)
        assert out[0].terms == {(0, 0): 2.0, (2, 0): -1.0, (0, 2): -1.0}

    def test_eight_variable_constant(self):
        # the portfolio geometry: 8 minus the squared norms
        out = add_ball_certificate([], 4, 4)
        assert out[0].terms[(0,) * 8] == 8.0

    def test_nonnegative_on_box(self):
        rng = np.random.default_rng(1)
        ball = add_ball_certificate([], 2, 3)[0]
        for _ in range(200):
            z = rng.uniform(-1, 1, 5)
            assert ball(z) >= 0.0

    def test_prepends(self):
        p = Polynomial.coordinate(2, 0)
        out = add_ball_certificate([p], 1, 1)
        assert len(out) == 2 and out[1] == p


class TestBuildChanceSdp:
    def test_toy_block_structure(self):
        prog = build_chance_sdp(util.toy_problem(), 2)
        labels = {b.label: b.dim for b in prog.blocks}
        assert labels == {
            "moment[0]": 6,          # joint moments to order 2
            "localizer[0,0]": 3,     # ball certificate, degree 2
            "localizer[0,1]": 1,     # quartic constraint, order 0
            "dominance": 6,          # holds M_2(y_x); no decision block
        }
        assert prog.num_scalars == basis_size(2, 4) + basis_size(1, 4)

    def test_pinned_mass(self):
        prog = build_chance_sdp(util.toy_problem(), 2)
        info = prog.meta
        assert list(prog.simple_set.pinned_idx) == [info.yx_slice.start]
        assert list(prog.simple_set.pinned_val) == [1.0]
        assert np.all(prog.simple_set.lower == -1.0)
        assert np.all(prog.simple_set.upper == 1.0)

    def test_minimum_order_error_names_polynomial(self):
        with pytest.raises(OrderError, match="minimum relaxation order .* 2"):
            build_chance_sdp(util.toy_problem(), 1)

    def test_min_relaxation_order(self):
        assert min_relaxation_order(util.toy_problem()) == 2

    def test_objective_sign_and_trace(self):
        prog = build_chance_sdp(util.toy_problem(), 2, omega_r=0.25)
        info = prog.meta
        c = prog.objective
        assert c[info.set_slices[0].start] == -1.0
        yx = info.yx_slice.start
        # trace of M_2(y_x): ranks of 0, 2, 4 in one variable
        assert c[yx + 0] == pytest.approx(0.25)
        assert c[yx + 2] == pytest.approx(0.25)
        assert c[yx + 4] == pytest.approx(0.25)

    def test_measure_backed_point_is_feasible(self):
        # the restriction construction satisfies every block at machine level
        for basis in ("monomial", "chebyshev"):
            prog = build_chance_sdp(util.toy_problem(), 2, basis=basis)
            vec = util.toy_feasible_point(prog, 0.5)
            assert np.all(vec >= prog.simple_set.lower - 1e-12)
            assert np.all(vec <= prog.simple_set.upper + 1e-12)
            for blk, mat in zip(prog.blocks, util.block_values(prog, vec)):
                mn = float(np.linalg.eigvalsh(mat)[0])
                assert mn >= -1e-9, (basis, blk.label, mn)
            dec = decode(prog, vec)
            assert dec.probability == pytest.approx(0.25, abs=1e-9)
            assert dec.x[0] == pytest.approx(0.5, abs=1e-12)

    def test_truncation_keeps_feasibility(self):
        # a higher-order feasible point, truncated blockwise, satisfies the
        # lower-order program
        hi = build_chance_sdp(util.toy_problem(), 3)
        lo = build_chance_sdp(util.toy_problem(), 2)
        vec_hi = util.toy_feasible_point(hi, 0.4)
        info_hi, info_lo = hi.meta, lo.meta
        vec_lo = np.zeros(lo.num_scalars)
        n_joint = basis_size(2, 4)
        n_dec = basis_size(1, 4)
        vec_lo[info_lo.set_slices[0]] = vec_hi[info_hi.set_slices[0]][:n_joint]
        vec_lo[info_lo.yx_slice] = vec_hi[info_hi.yx_slice][:n_dec]
        for blk, mat in zip(lo.blocks, util.block_values(lo, vec_lo)):
            assert float(np.linalg.eigvalsh(mat)[0]) >= -1e-9, blk.label

    def test_boundedness_of_near_feasible_vectors(self):
        # vectors satisfying all blocks to 1e-6 stay inside the unit box
        # up to 1e-4 (checked on measure-backed points and perturbations)
        rng = np.random.default_rng(2)
        prog = build_chance_sdp(util.toy_problem(), 2)
        for x_val in (0.5, 0.1, -0.3):
            vec = util.toy_feasible_point(prog, x_val)
            for _ in range(3):
                pert = vec + rng.uniform(-1e-8, 1e-8, len(vec))
                worst = min(float(np.linalg.eigvalsh(m)[0])
                            for m in util.block_values(prog, pert))
                if worst >= -1e-6:
                    assert np.max(np.abs(pert)) <= 1.0 + 1e-4

    def test_union_layout(self):
        x1, x2, q1 = (Polynomial.coordinate(3, i) for i in range(3))
        prob = ChanceProblem(
            name="u", n=2, m=1,
            sets=((0.5 - x1 * x1 - q1 * q1,), (x2 + q1,)),
            dist=DistributionSpec((Uniform(-1, 1),)),
            decision_box=((-1, 1), (-1, 1)),
        )
        prog = build_chance_sdp(prob, 1)
        assert prog.num_scalars == 2 * basis_size(3, 2) + basis_size(2, 2)
        labels = [b.label for b in prog.blocks]
        assert labels.count("dominance") == 1
        assert "moment[0]" in labels and "moment[1]" in labels
        # objective credits the mass of each set once
        info = prog.meta
        for sl in info.set_slices:
            assert prog.objective[sl.start] == -1.0


class TestImpliedDecisionBlock:
    """The dominance and set blocks imply M_d(y_x) >= 0, so no chance
    program carries a decision moment block."""

    @pytest.mark.parametrize("basis", BASES)
    @pytest.mark.parametrize("name,order", [
        ("example1_toy", 2), ("example1_toy", 3), ("example2_union", 1),
        ("example2_union", 2), ("example3_portfolio", 2),    # a Beta law
    ])
    def test_dominance_holds_decision_moment_matrix(self, name, order, basis):
        # the dominance rows and columns with q-exponent 0 have lift factor 1
        # (the law's mass), so at any y they are M_d(y_x) minus the same rows
        # and columns of every set's moment block: principal submatrices of
        # PSD blocks, which leaves M_d(y_x) PSD on every feasible point
        problem = load_bundled(name)[0]
        prog = build_chance_sdp(problem, order, basis=basis)
        info = prog.meta
        n, m = problem.n, problem.m
        joint = exponents(n + m, order)
        sub = np.ix_(*2 * [[joint.index(a + (0,) * m) for a in exponents(n, order)]])
        y = np.random.default_rng(order).uniform(-1.0, 1.0, prog.num_scalars)
        values = dict(zip((b.label for b in prog.blocks), util.block_values(prog, y)))
        m_x = util.moment_matrix(MomentVector(n, 2 * order, y[info.yx_slice]), order, basis)
        expect = m_x - sum(values[f"moment[{k}]"][sub] for k in range(len(info.set_slices)))
        assert np.max(np.abs(values["dominance"][sub] - expect)) <= 1e-12

    @pytest.mark.parametrize("name,order", [
        ("example1_toy", 2), ("example1_pair", 2), ("example2_union", 1),
    ])
    def test_reduced_solve_matches_full_program(self, name, order):
        # the full program keeps the decision block; the reduced solve is
        # about as close to the full program's cone as to its own, at the
        # same value
        reduced = build_chance_sdp(load_bundled(name)[0], order)
        full = util.with_decision_block(reduced)
        params = SolverParams(max_inner_cap=2000)
        x_reduced = alcc_solve(reduced, params).x
        x_full = alcc_solve(full, params).x
        assert full.cone_distance(x_reduced) <= 10 * reduced.cone_distance(x_reduced) + 1e-8
        assert decode(reduced, x_reduced).probability == pytest.approx(
            decode(full, x_full).probability, abs=1e-5)


class TestDecode:
    def test_reported_solution_decodes(self):
        # plugging the published order-2 solution vector into decode returns
        # the published probability and decision
        prog = build_chance_sdp(util.toy_problem(), 2)
        info = prog.meta
        vec = np.zeros(prog.num_scalars)
        y_star = [0.66, 0.3, 0.14, 0.16, 0.07, 0.1, 0.08, 0.03, 0.05, 0.04,
                  0.04, 0.02, 0.02, 0.02, 0.02]
        yx_star = [1.0, 0.50, 0.25, 0.13, 0.85]
        vec[info.set_slices[0]] = y_star
        vec[info.yx_slice] = yx_star
        dec = decode(prog, vec)
        assert dec.probability == pytest.approx(0.66)
        assert dec.x[0] == pytest.approx(0.50)

    def test_dirac_decode_exact(self):
        prog = build_chance_sdp(util.toy_problem(), 2)
        info = prog.meta
        vec = np.zeros(prog.num_scalars)
        z = -0.37
        vec[info.yx_slice] = util.dirac_moments([z], 4).values
        dec = decode(prog, vec)
        assert dec.x[0] == pytest.approx(z, abs=1e-15)

    def test_decode_maps_back_to_original_box(self):
        x = Polynomial.coordinate(2, 0)
        prob = ChanceProblem(
            name="p", n=1, m=1, sets=((x,),),
            dist=DistributionSpec((Uniform(-1, 1),)),
            decision_box=((2.0, 6.0),),
        )
        prog = build_chance_sdp(prob, 1)
        info = prog.meta
        vec = np.zeros(prog.num_scalars)
        vec[info.yx_slice.start] = 1.0
        vec[info.yx_slice.start + 1] = 0.5       # scaled coordinate
        dec = decode(prog, vec)
        assert dec.x[0] == pytest.approx(5.0)    # 4 + 2 * 0.5
        assert dec.x_scaled[0] == pytest.approx(0.5)

    def test_residuals_flag_violations(self):
        prog = build_chance_sdp(util.toy_problem(), 2)
        vec = util.toy_feasible_point(prog, 0.5)
        assert prog.cone_distance(vec) <= 1e-9
        bad = vec.copy()
        bad[prog.meta.set_slices[0].start + 1] = 0.9
        assert prog.cone_distance(bad) > 1e-3


class TestRefinement:
    def test_empty_set_optimum_zero(self):
        # constraint identically -1: only the zero measure is feasible
        neg = Polynomial.constant(2, -1.0)
        prob = ChanceProblem(
            name="none", n=1, m=1, sets=((neg,),),
            dist=DistributionSpec((Uniform(-1, 1),)),
            decision_box=((-1, 1),),
        )
        prog = build_refinement_sdp(prob, [0.0], 2, mode="indicator")
        trace = alcc_solve(prog, _quick_params())
        dec = decode(prog, trace.x)
        assert dec.mass == pytest.approx(0.0, abs=1e-4)

    def test_full_set_optimum_one(self):
        pos = Polynomial.constant(2, 1.0)
        prob = ChanceProblem(
            name="all", n=1, m=1, sets=((pos,),),
            dist=DistributionSpec((Uniform(-1, 1),)),
            decision_box=((-1, 1),),
        )
        prog = build_refinement_sdp(prob, [0.0], 2, mode="indicator")
        trace = alcc_solve(prog, _quick_params())
        dec = decode(prog, trace.x)
        assert dec.mass == pytest.approx(1.0, abs=2e-3)

    def test_indicator_decreases_toward_quarter(self):
        # fixing the toy decision at 1/2, the indicator-mode mass tightens
        # toward the true 0.25 as the order grows
        masses = []
        for d in (2, 3, 4, 5):
            prog = build_refinement_sdp(util.toy_problem(), [0.5], d,
                                        mode="indicator")
            trace = alcc_solve(prog, _quick_params())
            masses.append(decode(prog, trace.x).mass)
        for a, b in zip(masses[:-1], masses[1:]):
            assert b <= a + 1e-3
        assert masses[-1] < masses[0]
        assert masses[-1] >= 0.25 - 5e-3

    def test_weighted_modes_build(self):
        prob = util.toy_problem()
        for mode, idx in (("product", None), ("single", 0)):
            prog = build_refinement_sdp(prob, [0.5], 2, mode=mode, weight_index=idx)
            assert prog.meta.kind == "refinement"
        with pytest.raises(ValueError):
            build_refinement_sdp(prob, [0.5], 2, mode="single", weight_index=4)

    def test_modes_share_constraints(self):
        # the mode only changes the weight on each set's moments
        prob = problems.CONSTRUCTORS["example1_pair"]()[0]
        progs = [build_refinement_sdp(prob, [0.3], 2, mode=mode, weight_index=idx)
                 for mode, idx in (("indicator", None), ("product", None), ("single", 1))]
        ref = progs[0]
        for prog in progs[1:]:
            assert [(b.label, b.dim) for b in prog.blocks] == \
                [(b.label, b.dim) for b in ref.blocks]
            for blk, ref_blk in zip(prog.blocks, ref.blocks):
                for name in ("rows", "cols", "data"):
                    assert np.array_equal(getattr(blk.coeffs, name),
                                          getattr(ref_blk.coeffs, name))
                assert blk.coeffs.shape == ref_blk.coeffs.shape
                assert np.array_equal(blk.constant, ref_blk.constant)
            assert not np.array_equal(prog.objective, ref.objective)
        assert len({p.objective.tobytes() for p in progs}) == 3

    @pytest.mark.parametrize("order,match", [
        (0, "ball certificate has degree 2"),
        # the toy's quartic stays quartic in q at x = 1/2
        (1, "polynomial 0 has degree 4 after fixing the decision.* is 2"),
    ])
    def test_order_too_small_rejected(self, order, match):
        with pytest.raises(OrderError, match=match):
            build_refinement_sdp(util.toy_problem(), [0.5], order)

    def test_weight_degree_above_order_rejected(self):
        # the pair's product weight is quartic, beyond order 1; indicator builds
        prob = problems.CONSTRUCTORS["example1_pair"]()[0]
        build_refinement_sdp(prob, [0.3], 1, mode="indicator")
        with pytest.raises(OrderError, match="weight polynomial of set 0 has degree 4 > 2"):
            build_refinement_sdp(prob, [0.3], 1, mode="product")

    def test_restricted_measure_feasible_and_mass(self):
        # uniform restricted to the feasible interval is a feasible point of
        # the indicator refinement with the exact probability as mass
        prog = build_refinement_sdp(util.toy_problem(), [0.5], 3, mode="indicator")
        restricted = util.toy_restricted_moments(0.5, 6)
        vec = restricted.values
        for blk, mat in zip(prog.blocks, util.block_values(prog, vec)):
            assert float(np.linalg.eigvalsh(mat)[0]) >= -1e-9, blk.label
        dec = decode(prog, vec)
        assert dec.mass == pytest.approx(0.25, abs=1e-12)

    def test_x_outside_box_rejected(self):
        with pytest.raises(ModelError):
            build_refinement_sdp(util.toy_problem(), [1.5], 2)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_x_rejected(self, value):
        # NaN passes the box test |x| > 1, and would fail only in the solve
        with pytest.raises(ModelError, match="not finite"):
            build_refinement_sdp(util.toy_problem(), [value], 2)

    def test_union_shared_dominance(self):
        # two disjoint half-interval sets, union measure exactly one half;
        # the shared dominance keeps the summed mass at or below one and the
        # indicator optimum upper-bounds the true union measure
        q = Polynomial.coordinate(2, 1)
        prob = ChanceProblem(
            name="u", n=1, m=1,
            sets=((q - 0.5,), (-0.5 - q,)),
            dist=DistributionSpec((Uniform(-1, 1),)),
            decision_box=((-1, 1),),
        )
        prog = build_refinement_sdp(prob, [0.0], 3, mode="indicator")
        info = prog.meta
        assert len(info.set_slices) == 2
        assert sum(1 for b in prog.blocks if b.label == "dominance") == 1
        trace = alcc_solve(prog, _quick_params())
        dec = decode(prog, trace.x)
        assert 0.5 - 1e-3 <= dec.mass <= 1.0 + 1e-3
        # per-set restricted measures are feasible and sum to the true value
        vec = np.zeros(prog.num_scalars)
        for sl, (lo, hi) in zip(info.set_slices, ((0.5, 1.0), (-1.0, -0.5))):
            vals = [(hi ** (k + 1) - lo ** (k + 1)) / (2.0 * (k + 1))
                    for k in range(7)]
            vec[sl] = vals
        for blk, mat in zip(prog.blocks, util.block_values(prog, vec)):
            assert float(np.linalg.eigvalsh(mat)[0]) >= -1e-10, blk.label
        assert decode(prog, vec).mass == pytest.approx(0.5)


class TestSubstituteDecision:
    def test_partial_evaluation(self):
        p = util.toy_problem().sets[0][0]
        sub = substitute_decision(p, 1, [0.5])
        # at x = 1/2 the polynomial collapses to q^3/2 - q^4
        assert sub.terms == pytest.approx({(3,): 0.5, (4,): -1.0})

    def test_matches_pointwise(self):
        rng = np.random.default_rng(3)
        p = Polynomial(3, {(1, 1, 0): 2.0, (0, 0, 2): -1.0, (2, 0, 1): 0.7})
        sub = substitute_decision(p, 1, [0.3])
        for _ in range(20):
            qv = rng.uniform(-1, 1, 2)
            assert sub(qv) == pytest.approx(p(np.concatenate([[0.3], qv])))


class TestSandwich:
    def test_upper_refine_mc_ordering(self):
        # relaxation mass >= indicator refinement mass >= true probability,
        # all at the same order, within solver tolerance
        prob = util.toy_problem()
        prog = build_chance_sdp(prob, 2, omega_r=0.01)
        trace = alcc_solve(prog, _quick_params(max_inner_cap=6000))
        sol = decode(prog, trace.x)
        ref = build_refinement_sdp(prob, sol.x_scaled, 2, mode="indicator")
        ref_trace = alcc_solve(ref, _quick_params())
        ref_mass = decode(ref, ref_trace.x).mass
        true_mass = util.toy_restricted_moments(float(sol.x_scaled[0]), 0).values[0]
        assert sol.probability + 1e-3 >= ref_mass
        assert ref_mass + 1e-3 >= true_mass


class TestTraceRegularization:
    @pytest.mark.parametrize("omega", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, omega):
        with pytest.raises(ValueError, match="omega_r must be finite"):
            build_chance_sdp(util.toy_problem(), 2, omega_r=omega)

    def test_near_rank_one_decision_moments(self):
        # with enough trace weight the decision moment matrix collapses
        # toward rank one at the optimum
        def eig_ratio(omega):
            prog = build_chance_sdp(util.toy_problem(), 2, omega_r=omega)
            trace = alcc_solve(prog, _quick_params(max_inner_cap=6000))
            sol = decode(prog, trace.x)
            M = util.moment_matrix(MomentVector(1, 4, sol.y_x), 2)
            eigs = np.linalg.eigvalsh(M)
            return eigs[-2] / eigs[-1]

        if eig_ratio(0.1) > 0.05:
            assert any(eig_ratio(w) <= 0.05 for w in (0.01, 1.0)), \
                "no trace weight in {0.01, 0.1, 1.0} gave a near-rank-one solution"
