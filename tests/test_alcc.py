"""PSD projection, operator norms, the augmented Lagrangian, and the solver."""

import math
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

import util
from chanceopt import alcc, conic, problems
from chanceopt.alcc import (
    SolverParams,
    alcc_solve,
    alcc_steps,
    apg_inner,
    dual_bound,
    newton_inner,
    operator_norm,
)
from chanceopt.conic import ConicProgram, PsdBlock, SimpleSet, svec
from chanceopt.errors import NumericalError
from chanceopt.relaxation import (
    build_chance_sdp,
    build_refinement_sdp,
    decode,
    min_relaxation_order,
    scale_problem,
)
from util import project_psd


def random_sym(rng, dim, scale=1.0):
    a = rng.standard_normal((dim, dim)) * scale
    return (a + a.T) / 2.0


def scalar_block_program(coeffs, consts, c, lower=-1.0, upper=1.0, pins=()):
    """Program from 1x1 blocks: coeffs[i] @ x - consts[i] >= 0 per block."""
    num = len(c)
    blocks = []
    for i, (row, b0) in enumerate(zip(coeffs, consts)):
        mat = util.to_sparse(np.asarray(row, dtype=float).reshape(1, num))
        blocks.append(PsdBlock(dim=1, label=f"row[{i}]", coeffs=mat,
                               constant=np.array([[float(b0)]])))
    num_pins = len(pins)
    simple = SimpleSet(
        lower=np.full(num, lower), upper=np.full(num, upper),
        pinned_idx=np.array([p[0] for p in pins], dtype=int).reshape(num_pins),
        pinned_val=np.array([p[1] for p in pins], dtype=float).reshape(num_pins),
    )
    return ConicProgram(objective=np.asarray(c, dtype=float), blocks=blocks,
                        simple_set=simple)


class TestPsdProject:
    """Properties of ``ConicProgram.project_dual`` on a one-block program."""

    def test_fixed_point_on_psd(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 5))
        mat = a @ a.T
        out = project_psd(mat)
        assert np.max(np.abs(out - mat)) < 1e-12

    def test_diagonal_clipping(self):
        out = project_psd(np.diag([-1.0, 2.0]))
        assert np.allclose(out, np.diag([0.0, 2.0]))

    def test_frobenius_optimality_against_sampling(self):
        rng = np.random.default_rng(1)
        target = random_sym(rng, 8, 2.0)
        proj = project_psd(target)
        best = np.linalg.norm(target - proj)
        for _ in range(10_000):
            q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
            cand = (q * rng.uniform(0, 4.0, 8)) @ q.T
            assert np.linalg.norm(target - cand) >= best - 1e-9

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        mat = random_sym(rng, 6)
        once = project_psd(mat)
        twice = project_psd(once)
        assert np.max(np.abs(once - twice)) < 1e-12

    def test_nonexpansive(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b = random_sym(rng, 5), random_sym(rng, 5)
            pa, pb = project_psd(a), project_psd(b)
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-12

    def test_moreau_decomposition(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            s = random_sym(rng, 6)
            plus = project_psd(s)
            minus = project_psd(-s)
            assert np.max(np.abs(s - (plus - minus))) < 1e-8
            assert abs(float(np.sum(plus * minus))) < 1e-8


class TestSvec:
    def test_inner_product_preserved(self):
        rng = np.random.default_rng(5)
        a, b = random_sym(rng, 4), random_sym(rng, 4)
        assert float(svec(a) @ svec(b)) == pytest.approx(float(np.sum(a * b)))

    def test_round_trip(self):
        rng = np.random.default_rng(6)
        a = random_sym(rng, 5)
        assert np.allclose(util.unsvec(svec(a), 5), a)


class TestOperatorNorm:
    def test_scalar_scaling(self):
        prog = scalar_block_program([[3.0]], [0.0], [1.0])
        out = operator_norm(prog)
        assert out.sigma == pytest.approx(3.0, rel=1e-4)
        assert out.converged

    def test_identity_embedding(self):
        # each scalar lands on its own 1x1 block: the operator is an isometry
        k = 5
        prog = scalar_block_program(np.eye(k), np.zeros(k), np.zeros(k))
        assert operator_norm(prog).sigma == pytest.approx(1.0, rel=1e-4)

    def test_matches_dense_svd(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            prog, _, _ = util.planted_program(rng)
            sigma = operator_norm(prog, tol=1e-6).sigma
            dense = util.to_dense(prog.operator)
            expect = np.linalg.svd(dense, compute_uv=False)[0]
            assert sigma == pytest.approx(expect, rel=1e-3)


def lagrangian_value(prog, x, nu, theta):
    """c.x/nu + dist(A(x) - b - theta, PSD)^2 / 2, by the dense projection oracle."""
    s = theta + prog.constants - prog.apply(x)
    dist2 = sum(np.sum(util.reference_psd_project(util.unsvec(s[sl], blk.dim)) ** 2)
                for blk, sl in zip(prog.blocks, prog.block_slices))
    return float(prog.objective @ x) / nu + 0.5 * dist2


class TestAugLagrangian:
    """``ConicProgram.gradient``, which ``apg_inner`` steps along, against
    its value function."""

    @staticmethod
    def grad(prog, x, nu, theta):
        return prog.gradient(x, prog.objective / nu, theta + prog.constants)

    def test_deep_interior_gradient_is_scaled_objective(self):
        # identity block plus a constant matrix far inside the cone
        prog = scalar_block_program(np.eye(3), [-10.0] * 3, [1.0, -2.0, 0.5])
        x = np.zeros(3)
        theta = np.zeros(3)
        assert lagrangian_value(prog, x, 2.0, theta) == pytest.approx(0.0)
        assert np.allclose(self.grad(prog, x, 2.0, theta), prog.objective / 2.0)

    def test_scalar_hand_computation(self):
        # block x - 1 >= 0 at x = 0: distance 1, value = c.x/nu + 1/2
        prog = scalar_block_program([[1.0]], [1.0], [0.7])
        x, theta = np.zeros(1), np.zeros(1)
        assert lagrangian_value(prog, x, 1.5, theta) == pytest.approx(0.5)
        # penalty part of gradient: A*(z - proj z) with z = -1 -> -1
        assert self.grad(prog, x, 1.5, theta)[0] == pytest.approx(0.7 / 1.5 - 1.0)

    def test_finite_difference_gradient(self):
        rng = np.random.default_rng(8)
        prog, x_star, _ = util.planted_program(rng, num_scalars=12, block_dims=[4, 3])
        x = x_star + rng.uniform(-0.2, 0.2, 12)
        theta = rng.uniform(0, 0.5, prog.operator.shape[0])
        nu = 1.7
        grad = self.grad(prog, x, nu, theta)
        eps = 1e-6
        for _ in range(20):
            v = rng.standard_normal(12)
            v /= np.linalg.norm(v)
            up = lagrangian_value(prog, x + eps * v, nu, theta)
            dn = lagrangian_value(prog, x - eps * v, nu, theta)
            fd = (up - dn) / (2 * eps)
            assert abs(fd - float(grad @ v)) < 1e-5


def _apg_in_place(program, start, nu, theta, L, eta_over_nu, ell_max):
    """``apg_inner`` as a chain of in-place operations: the gradient array
    becomes the gradient step, then the projected step, and the
    extrapolated point is rewritten in place.  Returns (point, iterations)."""
    c_over_nu = program.objective / nu
    theta_b = theta + program.constants
    threshold = eta_over_nu / (2.0 * L)
    x_prev, x2, t, ell = start.copy(), start.copy(), 1.0, 0
    while True:
        ell += 1
        step = program.gradient(x2, c_over_nu, theta_b)
        step /= L
        x1 = program.simple_set.project(np.subtract(x2, step, out=step))
        np.subtract(x1, x2, out=step)
        if math.sqrt(step.dot(step)) <= threshold or ell > ell_max:
            return x1, ell
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        np.subtract(x1, x_prev, out=x2)
        x2 *= (t - 1.0) / t_next
        x2 += x1
        x_prev, t = x1, t_next


class TestApgInner:
    @pytest.mark.parametrize("name", ["example1_toy", "example2_union"])
    def test_plain_steps_match_the_in_place_chain(self, name):
        # IEEE + and * are commutative, so y - g / L and x1 + a * (x1 - x_prev)
        # round as the in-place chain does: the same bits at every iteration
        problem, _ = problems.CONSTRUCTORS[name]()
        prog = build_chance_sdp(scale_problem(problem), min_relaxation_order(problem))
        rng = np.random.default_rng(23)
        theta = rng.uniform(0.0, 0.1, len(prog.constants))
        start = prog.simple_set.project(rng.uniform(-1.0, 1.0, prog.num_scalars))
        L = operator_norm(prog).sigma ** 2
        for eta_over_nu, cap, stop in ((0.0, 300, "iter_cap"), (1e-3, 2000, "step_small")):
            x, iters, reason, _ = apg_inner(prog, start, 3.0, theta, L, eta_over_nu, cap)
            want, want_iters = _apg_in_place(prog, start, 3.0, theta, L, eta_over_nu, cap)
            assert reason == stop and iters == want_iters and x.tobytes() == want.tobytes()

    def test_momentum_sequence_prefix(self):
        t = 1.0
        t2 = (1.0 + np.sqrt(1.0 + 4.0 * t * t)) / 2.0
        assert t2 == pytest.approx((1 + np.sqrt(5)) / 2, abs=1e-12)

    def test_quadratic_embedded_as_opposed_rows(self):
        # rows a.x - b >= 0 and b - a.x >= 0 make the penalty |Ax - b|^2 / 2,
        # a strongly convex quadratic with a known minimizer
        rng = np.random.default_rng(9)
        a_mat = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        b_vec = rng.standard_normal(4)
        coeffs = np.vstack([a_mat, -a_mat])
        consts = np.concatenate([b_vec, -b_vec])
        prog = scalar_block_program(coeffs, consts, np.zeros(4),
                                    lower=-10.0, upper=10.0)
        x_expected = np.linalg.solve(a_mat, b_vec)
        L = operator_norm(prog, tol=1e-8).sigma ** 2
        x, iters, reason, steps = apg_inner(prog, np.zeros(4), 1.0,
                                            np.zeros(prog.operator.shape[0]),
                                            L, 2e-10 * L, 500)
        assert iters <= 500 and reason == "step_small" and steps is None
        assert np.max(np.abs(x - x_expected)) < 1e-6

    def test_immediate_stop_at_fixed_point(self):
        prog = scalar_block_program(np.eye(2), [-5.0, -5.0], np.zeros(2))
        x0 = np.array([0.25, -0.5])
        x, iters, reason, _ = apg_inner(prog, x0, 1.0, np.zeros(2), 1.0, 1e-3, 100)
        assert iters == 1 and reason == "step_small"
        assert np.allclose(x, x0)


class TestNewtonInner:
    """The projected semismooth Newton inner solver and the size rule."""

    def test_box_bound_least_squares_in_few_projections(self):
        # the penalty of opposed rows is |Ax - b|^2 / 2, whose minimizer lies
        # outside the box, so the optimum holds coordinates at their bounds;
        # only a Newton step that keeps those coordinates fixed lands on it
        from scipy.optimize import lsq_linear
        rng = np.random.default_rng(9)
        a_mat = rng.standard_normal((6, 6)) + 4 * np.eye(6)
        b_vec = 8.0 * rng.standard_normal(6)
        prog = scalar_block_program(np.vstack([a_mat, -a_mat]), np.concatenate([b_vec, -b_vec]),
                                    np.zeros(6))
        expect = lsq_linear(a_mat, b_vec, bounds=(-1.0, 1.0), tol=1e-14).x
        assert np.sum(np.abs(expect) >= 1.0 - 1e-9) >= 2
        L = operator_norm(prog, tol=1e-8).sigma ** 2
        x, iters, reason, steps = newton_inner(prog, np.zeros(6), 1.0, np.zeros(12), L,
                                               2e-10 * L, 500)
        assert reason in ("step_small", "floor") and iters <= 12
        # one projection at the start and one per accepted Newton step, and
        # at most a last trial rejected: no projected-gradient step
        assert iters <= steps + 2
        assert np.max(np.abs(x - expect)) < 1e-9

    @pytest.mark.parametrize("name, which", [("example1_toy", "main"), ("example1_pair", "main"),
                                             ("example1_toy", "indicator")])
    def test_order_two_gap_within_1e6(self, name, which):
        # the benchmark's settings: the bundled options with an inner cap of 6000
        problem, opts = problems.CONSTRUCTORS[name]()
        scaled, params = scale_problem(problem), replace(opts.solver, max_inner_cap=6000)
        prog = build_chance_sdp(scaled, 2, omega_r=opts.omega_r)
        trace = alcc_solve(prog, params)
        if which == "indicator":
            prog = build_refinement_sdp(scaled, decode(prog, trace.x).x_scaled, 2,
                                        mode="indicator")
            trace = alcc_solve(prog, params)
        assert trace.status == "converged" and trace.inner_solver == "newton"
        assert not any(r.cap_limited for r in trace.records)
        assert abs(trace.final_objective - util.dual_bound(prog, trace.dual)) <= 1e-6

    def test_failed_factorization_takes_projected_gradient_steps(self, monkeypatch):
        # a Newton system that no regularization within the budget makes
        # positive definite: every principal submatrix of 1e200 (I - 2 ones)
        # is indefinite, so every factorization fails, and the loop must take
        # plain projected-gradient steps, silently, under the strictest settings
        problem, opts = problems.CONSTRUCTORS["example1_toy"]()
        prog = build_chance_sdp(scale_problem(problem), 2, omega_r=opts.omega_r)
        n, calls = prog.num_scalars, []

        def newton_matrix(self):
            calls.append(1)
            return 1e200 * (np.eye(n) - 2.0)

        monkeypatch.setattr(ConicProgram, "newton_matrix", newton_matrix)
        x0 = prog.simple_set.project(np.zeros(n))
        theta = np.zeros(len(prog.constants))
        L = operator_norm(prog).sigma ** 2
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            x, iters, reason, steps = newton_inner(prog, x0, 1.0, theta, L, 1e-12 * L, 25)
        assert reason == "iter_cap" and iters == 26 and steps == 0 and len(calls) == 25
        assert np.isfinite(x).all()
        expect = x0
        for _ in range(iters):
            g = prog.gradient(expect, prog.objective, theta + prog.constants)
            expect = prog.simple_set.project(expect - g / L)
        assert x.tobytes() == expect.tobytes()

    def test_empty_free_set(self):
        # x >= 2 over the box [-1, 1] from x = 1: the gradient points out of
        # the box, so the Newton system is 0x0 and its step is empty; the
        # loop accepts that zero step and stops, with nothing raised or warned
        prog = scalar_block_program([[1.0]], [2.0], [0.0])
        x0, theta = np.array([1.0]), np.zeros(1)
        assert prog.gradient(x0, prog.objective, theta + prog.constants)[0] < 0.0
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            x, iters, reason, steps = newton_inner(prog, x0, 1.0, theta, 1.0, 1e-3, 100)
        assert (x.tolist(), iters, reason, steps) == ([1.0], 2, "step_small", 1)

    def test_size_rule(self):
        small = build_chance_sdp(scale_problem(problems.CONSTRUCTORS["example2_union"]()[0]), 1)
        assert small.num_scalars <= alcc._NEWTON_MAX_SCALARS < _union_d2().num_scalars
        assert alcc.inner_solver(small) is newton_inner
        assert alcc.inner_solver(_union_d2()) is apg_inner

    def test_apg_is_looked_up_when_called(self, monkeypatch):
        calls = []

        def wrapped(*args):
            calls.append(1)
            return apg_inner(*args)

        monkeypatch.setattr(alcc, "apg_inner", wrapped)
        monkeypatch.setattr(alcc, "_NEWTON_MAX_SCALARS", 0)
        prog = scalar_block_program([[1.0]], [0.5], [1.0])
        assert alcc_solve(prog, SolverParams(max_outer=2)).inner_solver == "apg"
        assert calls


class TestAlccSolve:
    def test_fully_pinned_program(self):
        prog = scalar_block_program(np.eye(2), [-1.0, -1.0], [1.0, 1.0],
                                    pins=((0, 0.3), (1, -0.2)))
        trace = alcc_solve(prog, SolverParams(tol=1e-6, max_outer=5))
        assert trace.status == "converged"
        assert trace.outer_iterations == 1
        assert np.allclose(trace.x, [0.3, -0.2])

    def test_infeasible_program_stalls_on_apg_only(self, monkeypatch):
        # x >= 2 over the box [-1, 1]: x rests at its bound with the residual 1
        prog = scalar_block_program([[1.0]], [2.0], [0.0])
        params = SolverParams(tol=1e-6, max_outer=6)
        trace = alcc_solve(prog, params)
        assert trace.inner_solver == "newton" and trace.status == "max_outer"
        monkeypatch.setattr(alcc, "_NEWTON_MAX_SCALARS", 0)
        trace = alcc_solve(prog, params)
        assert trace.inner_solver == "apg" and trace.status == "stalled"
        assert trace.outer_iterations < params.max_outer
        assert trace.x[0] == 1.0 and trace.final_residual == pytest.approx(1.0)

    def test_zero_reduced_cost_on_an_unbounded_coordinate(self):
        # min x0 subject to x0 >= 1 over x0 in [-5, 5], and x1 free at zero
        # cost: at Z = 1 x1's reduced cost is 0 and its bounds infinite, and
        # it adds 0 to the dual bound, where 0 * inf would make it NaN
        prog = ConicProgram(
            objective=np.array([1.0, 0.0]),
            blocks=[PsdBlock(dim=1, label="x0 >= 1", coeffs=util.to_sparse([[1.0, 0.0]]),
                             constant=np.array([[1.0]]))],
            simple_set=SimpleSet(lower=np.array([-5.0, -np.inf]),
                                 upper=np.array([5.0, np.inf]),
                                 pinned_idx=np.array([], dtype=int), pinned_val=np.array([])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = alcc_solve(prog)
            assert dual_bound(prog, np.array([1.0])) == 1.0
            assert util.dual_bound(prog, np.array([1.0])) == 1.0
        assert trace.status == "converged" and trace.inner_solver == "newton"
        assert trace.x.tolist() == [1.0, 0.0]

    def test_two_scalar_toy_sdp(self):
        # maximize x1 subject to diag(1 - x1, x1) being PSD: optimum 1
        coeffs_x1 = np.array([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        blocks = [PsdBlock(
            dim=2, label="diag",
            coeffs=util.to_sparse(np.stack([svec(np.array([[-1.0, 0], [0, 1.0]])),
                                            svec(np.zeros((2, 2)))], axis=1)),
            constant=np.array([[-1.0, 0.0], [0.0, 0.0]]),
        )]
        simple = SimpleSet(lower=np.array([-1.0, -1.0]), upper=np.array([1.0, 1.0]),
                           pinned_idx=np.array([], dtype=int), pinned_val=np.array([]))
        prog = ConicProgram(objective=np.array([-1.0, 0.0]), blocks=blocks,
                            simple_set=simple)
        trace = alcc_solve(prog, SolverParams(tol=1e-7, max_outer=18))
        assert abs(trace.x[0] - 1.0) <= 1e-3

    def test_determinism(self):
        rng = np.random.default_rng(10)
        prog, _, _ = util.planted_program(rng, num_scalars=8, block_dims=[3])
        params = SolverParams(tol=1e-6, max_outer=8, max_inner_cap=500, seed=3)
        t1 = alcc_solve(prog, params)
        t2 = alcc_solve(prog, params)
        assert np.array_equal(t1.x, t2.x)
        assert [r.residual for r in t1.records] == [r.residual for r in t2.records]
        assert [r.inner_iters for r in t1.records] == [r.inner_iters for r in t2.records]

    def test_residual_tail_monotone(self):
        rng = np.random.default_rng(11)
        prog, _, _ = util.planted_program(rng, num_scalars=10, block_dims=[4])
        trace = alcc_solve(prog, SolverParams(tol=1e-9, max_outer=12,
                                              max_inner_cap=4000))
        tail = [r.residual for r in trace.records[-5:]]
        for a, b in zip(tail[:-1], tail[1:]):
            assert b <= a + 1e-12

    def test_residual_tail_monotone_on_bundled_program(self):
        from chanceopt.relaxation import build_chance_sdp
        prog = build_chance_sdp(util.toy_problem(), 2, omega_r=0.01)
        trace = alcc_solve(prog, SolverParams(nu0=1.0, tol=1e-6, max_outer=12,
                                              max_inner_cap=2000))
        assert trace.outer_iterations >= 6
        tail = [r.residual for r in trace.records[-5:]]
        for a, b in zip(tail[:-1], tail[1:]):
            assert b <= a + 1e-10

    @pytest.mark.parametrize("length", [1, 3])
    def test_start_point_of_wrong_length_rejected(self, length):
        # a length-1 start would broadcast over both scalars without the check
        from chanceopt.errors import DimensionError
        prog = scalar_block_program(np.eye(2), [-1.0, -1.0], [1.0, 1.0])
        with pytest.raises(DimensionError, match=r"x0 has shape \(%d,\), expected \(2,\)"
                           % length):
            alcc_solve(prog, SolverParams(max_outer=3), x0=np.ones(length))

    @pytest.mark.parametrize("dim", [1, 2], ids=["1x1", "2x2"])
    def test_non_finite_iterate_raises_with_trace(self, dim):
        # a NaN objective makes the inner iterate NaN, which the 1x1 block's
        # projection stops; a NaN block constant makes the 2x2
        # eigendecomposition fail before outer 1
        if dim == 1:
            prog = scalar_block_program([[1.0]], [0.5], [float("nan")])
        else:
            prog = ConicProgram(
                objective=np.array([0.5]),
                blocks=[PsdBlock(dim=2, label="b", coeffs=util.to_sparse([[1.0], [0.0], [1.0]]),
                                 constant=np.array([[np.nan, 0.0], [0.0, 0.0]]))],
                simple_set=SimpleSet(lower=np.array([-1.0]), upper=np.array([1.0]),
                                     pinned_idx=np.array([], dtype=int),
                                     pinned_val=np.array([])))
        with pytest.raises(NumericalError) as exc:
            alcc_solve(prog, SolverParams(max_outer=3))
        assert exc.value.trace.status == "numerical_error"
        assert exc.value.trace.records == []

    def test_failure_after_an_outer_keeps_its_state(self, monkeypatch):
        rng = np.random.default_rng(10)
        prog, _, _ = util.planted_program(rng, num_scalars=8, block_dims=[3])
        params = SolverParams(tol=1e-12, max_outer=3, max_inner_cap=500)
        real, calls = conic._eigh, {"n": 0, "limit": float("inf")}

        def eigh(mats, **kw):
            calls["n"] += 1
            real(mats, **kw)
            if calls["n"] > calls["limit"]:
                kw["out"][0][...] = np.nan

        monkeypatch.setattr(conic, "_eigh", eigh)
        first = alcc_solve(prog, SolverParams(tol=1e-12, max_outer=1, max_inner_cap=500))
        calls.update(n=0, limit=calls["n"])     # fail from the second outer's first call
        with pytest.raises(NumericalError, match="eigendecomposition failed") as exc:
            alcc_solve(prog, params)
        trace = exc.value.trace
        assert trace.status == "numerical_error"
        assert trace.records == first.records and len(trace.records) == 1
        assert trace.x.tobytes() == first.x.tobytes()
        assert trace.dual.tobytes() == first.dual.tobytes()

    def test_planted_kkt_quality(self):
        # ten random strictly complementary instances: the last outer's dual
        # is PSD and its weak-duality bound sits just below the optimum
        rng = np.random.default_rng(12)
        params = SolverParams(nu0=1.0, tol=1e-8, max_outer=22, max_inner_cap=3000)
        for trial in range(10):
            prog, x_star, opt = util.planted_program(rng)
            trace = alcc_solve(prog, params)
            z = trace.dual
            for blk, sl in zip(prog.blocks, prog.block_slices):
                low = float(np.linalg.eigvalsh(util.unsvec(z[sl], blk.dim))[0])
                assert low >= -1e-12 * np.linalg.norm(z), f"trial {trial}: eigenvalue {low}"
            bound = util.dual_bound(prog, z)
            assert bound <= opt + 1e-9, f"trial {trial}: bound {bound} above {opt}"
            assert abs(bound - opt) <= 1e-4 * (1.0 + abs(opt)), f"trial {trial}: {bound}"


class TestAlccSteps:
    """The generator behind alcc_solve, consumed by hand outside lanes()."""

    @staticmethod
    def run_by_hand(prog, params):
        """alcc_solve's outer stop over alcc_steps: the relative change of x,
        and on Newton steps a small residual and certified gap too."""
        x = prog.simple_set.project(np.zeros(prog.num_scalars))
        sigma = operator_norm(prog, seed=params.seed).sigma
        small = 1e-3 * (1.0 + float(np.linalg.norm(prog.constants)))
        newton = alcc.inner_solver(prog) is newton_inner
        states = []
        for state in alcc_steps(prog, params, x, sigma):
            states.append(state)
            moved = float(np.linalg.norm(state.x - x)) / (1.0 + float(np.linalg.norm(x)))
            x, f = state.x, state.record.objective
            gap = abs(f - util.dual_bound(prog, state.dual))
            if moved <= params.tol and (not newton or (state.record.residual <= small
                                                       and gap <= params.tol * (1.0 + abs(f)))):
                break
        return states

    HAND_STOP_CASES = [
        ("example1_toy", 2, SolverParams(nu0=1.0, tol=1e-3, max_outer=14, max_inner_cap=2000)),
        ("example2_union", 1, SolverParams(nu0=1.0, tol=1e-2, max_outer=30)),
    ]

    @pytest.mark.parametrize("name, order, params", HAND_STOP_CASES)
    def test_hand_stop_matches_alcc_solve(self, name, order, params):
        self.check_hand_stop(name, order, params, "newton")

    @pytest.mark.parametrize("name, order, params", HAND_STOP_CASES)
    def test_hand_stop_matches_alcc_solve_on_apg(self, name, order, params, monkeypatch):
        monkeypatch.setattr(alcc, "_NEWTON_MAX_SCALARS", 0)
        self.check_hand_stop(name, order, params, "apg")

    def check_hand_stop(self, name, order, params, solver):
        problem, _ = problems.CONSTRUCTORS[name]()
        prog = build_chance_sdp(scale_problem(problem), order, omega_r=0.01)
        states = self.run_by_hand(prog, params)
        trace = alcc_solve(prog, params)
        assert trace.inner_solver == solver
        assert trace.status == "converged" and len(states) < params.max_outer
        assert states[-1].x.tobytes() == trace.x.tobytes()
        assert states[-1].dual.tobytes() == trace.dual.tobytes()
        assert ([(s.record.inner_iters, s.record.inner_stop, s.record.residual) for s in states]
                == [(r.inner_iters, r.inner_stop, r.residual) for r in trace.records])

    def test_inner_solver_passed_by_hand(self):
        prog = build_chance_sdp(util.toy_problem(), 2, omega_r=0.01)
        params = SolverParams(tol=1e-12, max_outer=4, max_inner_cap=300)
        x0 = prog.simple_set.project(np.zeros(prog.num_scalars))
        sigma = operator_norm(prog).sigma
        runs = [list(alcc_steps(prog, params, x0, sigma, inner))
                for inner in (apg_inner, lambda *args: apg_inner(*args),
                              newton_inner, lambda *args: newton_inner(*args))]
        for plain, wrapped in (runs[:2], runs[2:]):
            assert [s.record for s in plain] == [s.record for s in wrapped]
            assert plain[-1].x.tobytes() == wrapped[-1].x.tobytes()
            assert plain[-1].dual.tobytes() == wrapped[-1].dual.tobytes()
        assert any(s.record.cap_limited for s in runs[1])
        assert all(s.record.newton_steps == 0 for s in runs[1])
        # a Newton solve counts its steps and is never cap-limited, wrapped or not
        assert all(s.record.newton_steps > 0 and not s.record.cap_limited for s in runs[3])

    def test_serial_steps_match_a_laned_solve(self, monkeypatch):
        util.plan_for_cpus(monkeypatch, 2)
        prog = _union_d2()
        params = SolverParams(tol=1e-12, max_outer=2, max_inner_cap=200)
        trace = alcc_solve(prog, params)
        assert trace.lanes == 2
        x0 = prog.simple_set.project(np.zeros(prog.num_scalars))
        states = list(alcc_steps(prog, params, x0, trace.sigma_max))
        assert len(states) == params.max_outer
        assert [s.record for s in states] == trace.records
        assert states[-1].x.tobytes() == trace.x.tobytes()
        assert states[-1].dual.tobytes() == trace.dual.tobytes()


def _union_d2():
    union, _ = problems.CONSTRUCTORS["example2_union"]()
    return build_chance_sdp(scale_problem(union), 2)


class TestLanes:
    """A solve projects in per-CPU lanes: the same bits for any lane count,
    and no thread, nor the one-thread OpenBLAS, outlives the solve."""

    def test_same_trajectory_for_any_lane_count(self, monkeypatch):
        runs = {}
        for cpus in (1, 2, 3):
            util.plan_for_cpus(monkeypatch, cpus)
            trace = alcc_solve(_union_d2(), SolverParams(max_outer=2, max_inner_cap=200))
            assert trace.lanes == cpus
            runs[cpus] = (trace.x.tobytes(),
                          [(r.inner_iters, r.inner_stop) for r in trace.records])
        assert runs[2] == runs[1]
        assert runs[3] == runs[1]

    @pytest.mark.parametrize("ending", ["return", "raise", "interrupt"])
    def test_nothing_outlives_a_solve(self, monkeypatch, ending):
        util.plan_for_cpus(monkeypatch, 2)
        prog = _union_d2()
        blas_threads, set_blas_threads = conic._openblas_threads()
        real, seen = conic._eigh, {"calls": 0, "blas": set()}

        def eigh(*args, **kw):
            if threading.current_thread() is threading.main_thread():
                seen["calls"] += 1
                seen["blas"].add(blas_threads())
                if ending == "interrupt" and seen["calls"] == 20:
                    raise KeyboardInterrupt
            elif ending == "raise" and seen["calls"] >= 20:
                raise RuntimeWarning("invalid value encountered in eigh_lo")
            return real(*args, **kw)

        monkeypatch.setattr(conic, "_eigh", eigh)
        params = SolverParams(max_outer=1, max_inner_cap=30)
        original = blas_threads()
        set_blas_threads(2)     # not 1, so a solve that leaves one thread is seen
        try:
            before = (threading.active_count(), blas_threads())
            if ending == "return":
                assert alcc_solve(prog, params).lanes == 2
            else:
                with pytest.raises(NumericalError if ending == "raise" else KeyboardInterrupt):
                    alcc_solve(prog, params)
            after = (threading.active_count(), blas_threads())
        finally:
            set_blas_threads(original)
        assert seen["blas"] == {1}
        assert after == before
        assert prog._pool is None
