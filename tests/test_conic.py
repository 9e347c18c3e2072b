"""Conic program container: simple set, block algebra, text export."""

import contextlib
import sys
import threading
import time
import warnings

import numpy as np
import pytest

import util
from chanceopt import conic, problems
from chanceopt.conic import ConicProgram, PsdBlock, SimpleSet, svec
from chanceopt.errors import DimensionError, NumericalError
from chanceopt.relaxation import (
    build_chance_sdp,
    build_refinement_sdp,
    min_relaxation_order,
    scale_problem,
)


class TestSimpleSet:
    def test_projection_clamps_and_pins(self):
        s = SimpleSet(lower=np.array([-1.0, -1.0, 0.0]),
                      upper=np.array([1.0, 1.0, 2.0]),
                      pinned_idx=np.array([1]), pinned_val=np.array([0.5]))
        out = s.project(np.array([3.0, -4.0, -1.0]))
        assert np.allclose(out, [1.0, 0.5, 0.0])

    def test_projection_is_clip_then_pin_bit_for_bit(self):
        rng = np.random.default_rng(3)
        lower, upper = -rng.uniform(0, 2, 40), rng.uniform(0, 2, 40)
        s = SimpleSet(lower=lower, upper=upper, pinned_idx=np.array([0, 7, 39]),
                      pinned_val=np.array([0.25, -1.5, 0.0]))
        for x in (rng.uniform(-3, 3, 40), lower.copy(), upper.copy()):
            want = np.clip(x, lower, upper)
            want[s.pinned_idx] = s.pinned_val
            assert s.project(x).tobytes() == want.tobytes()

    def test_diameter_skips_pins(self):
        s = SimpleSet(lower=np.array([-1.0, -1.0]), upper=np.array([1.0, 1.0]),
                      pinned_idx=np.array([0]), pinned_val=np.array([1.0]))
        assert s.diameter() == pytest.approx(2.0)

    def test_diameter_box(self):
        s = SimpleSet(lower=np.full(4, -1.0), upper=np.full(4, 1.0),
                      pinned_idx=np.array([], dtype=int), pinned_val=np.array([]))
        assert s.diameter() == pytest.approx(4.0)

    def test_diameter_infinite_bound(self):
        s = SimpleSet(lower=np.array([-np.inf, 0.0]), upper=np.array([1.0, np.inf]),
                      pinned_idx=np.array([1]), pinned_val=np.array([0.5]))
        assert s.diameter() == np.inf

    @pytest.mark.parametrize("field, message", [
        ("lower", "lower holds NaN"),
        ("upper", "upper holds NaN"),
        ("pinned_val", "pinned_val holds a value that is not finite"),
        ("unordered", r"lower\[1\] = 0.5 exceeds upper\[1\] = 0.25"),
    ])
    def test_bad_bounds_rejected_at_construction(self, field, message):
        kw = dict(lower=np.array([-1.0, -1.0]), upper=np.array([1.0, 1.0]),
                  pinned_idx=np.array([0]), pinned_val=np.array([0.5]))
        if field == "unordered":
            kw["lower"], kw["upper"] = np.array([-1.0, 0.5]), np.array([1.0, 0.25])
        else:
            kw[field][0] = np.nan
        with pytest.raises(ValueError, match=message):
            SimpleSet(**kw)


class TestBlocks:
    def test_value_and_coefficient_matrix(self):
        c1 = np.array([[1.0, 0.5], [0.5, 0.0]])
        c2 = np.array([[0.0, 0.0], [0.0, 2.0]])
        c0 = np.array([[0.1, 0.0], [0.0, 0.2]])
        coeffs = util.to_sparse(np.stack([svec(c1), svec(c2)], axis=1))
        blk = PsdBlock(dim=2, label="b", coeffs=coeffs, constant=c0)
        box = SimpleSet(lower=np.full(2, -1.0), upper=np.full(2, 1.0),
                        pinned_idx=np.array([], dtype=int), pinned_val=np.array([]))
        program = ConicProgram(objective=np.zeros(2), blocks=[blk], simple_set=box)
        x = np.array([2.0, -1.0])
        assert np.allclose(util.block_values(program, x)[0], 2 * c1 - c2 - c0)
        assert np.allclose(util.coefficient_matrix(blk, 0), c1)
        assert np.allclose(util.coefficient_matrix(blk, 1), c2)

    def test_cone_distance_feasible_zero(self):
        prog = build_chance_sdp(util.toy_problem(), 2)
        vec = util.toy_feasible_point(prog, 0.5)
        assert prog.cone_distance(vec) <= 1e-7

    def test_adjoint_identity(self):
        prog = build_chance_sdp(util.toy_problem(), 2)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(prog.num_scalars)
        z = rng.standard_normal(prog.operator.shape[0])
        lhs = float(z @ prog.apply(x))
        rhs = float(prog.adjoint(z) @ x)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @staticmethod
    def _parts(field):
        """A 1-scalar program's parts: a dim-2 and a 1x1 block and the box,
        with ``field`` made not to fit."""
        coeffs, constant = util.to_sparse([[1.0], [0.0], [1.0]]), np.eye(2)
        lower, pins = np.array([-1.0]), np.array([], dtype=int)
        if field == "coeff_row":        # svec row 4 of a 3-row block
            coeffs = conic.SparseMatrix.from_triplets([4], [0], [1.0], (5, 1))
        elif field == "coeff_col":      # scalar 2 of a 1-scalar program
            coeffs = conic.SparseMatrix.from_triplets([0], [2], [1.0], (3, 3))
        elif field == "constant":
            constant = np.eye(3)
        elif field == "lower":
            lower = np.array([-1.0, -1.0])
        elif field in ("pin", "negative_pin"):
            pins = np.array([1 if field == "pin" else -1])
        blocks = [PsdBlock(dim=2, label="pair", coeffs=coeffs, constant=constant),
                  PsdBlock(dim=1, label="half", coeffs=util.to_sparse([[1.0]]),
                           constant=np.zeros((1, 1)))]
        if field == "no_blocks":        # the operator's row count is block_slices[-1]
            blocks = []
        box = SimpleSet(lower=lower, upper=np.full(len(lower), 1.0), pinned_idx=pins,
                        pinned_val=np.zeros(len(pins)))
        return dict(objective=np.array([1.0]), blocks=blocks, simple_set=box)

    @pytest.mark.parametrize("field, message", [
        ("coeff_row", r"block 0 \(pair\): coeffs of shape \(5, 1\), expected \(3, 1\)"),
        ("coeff_col", r"block 0 \(pair\): coeffs of shape \(3, 3\), expected \(3, 1\)"),
        ("constant", r"block 0 \(pair\): constant of shape \(3, 3\), expected \(2, 2\)"),
        ("lower", r"simple set lower of shape \(2,\), expected \(1,\)"),
        ("pin", r"simple set pins index 1, outside 0\.\.0"),
        ("negative_pin", r"simple set pins index -1, outside 0\.\.0"),
        ("no_blocks", r"a conic program needs at least one PSD block"),
    ])
    def test_parts_that_do_not_fit_rejected_at_construction(self, field, message):
        # the products gather with mode="clip": without the check, the
        # operator of a stray row or column is built, and applying it clamps
        with pytest.raises(DimensionError, match=message):
            ConicProgram(**self._parts(field))
        program = ConicProgram(**self._parts(None))
        assert program.apply(np.array([2.0])).tolist() == [2.0, 0.0, 2.0, 2.0]


@contextlib.contextmanager
def _failure_mode(action):
    """Where LAPACK's invalid-value warning goes: the warnings filter
    ``action``, or, for "raise", numpy's error state that raises it as a
    ``FloatingPointError``."""
    with warnings.catch_warnings(), contextlib.ExitStack() as stack:
        if action == "raise":
            stack.enter_context(np.errstate(invalid="raise"))
        else:
            warnings.simplefilter(action)
        yield


def _union(order):
    union, _ = problems.CONSTRUCTORS["example2_union"]()
    return build_chance_sdp(scale_problem(union), order)


def _projection_programs():
    return {
        "toy_d2": build_chance_sdp(util.toy_problem(), 2),
        "union_d2": _union(2),
        "scalar_blocks": util.block_program(1, 3, 1, 2, 3),
        "stacked": util.block_program(66, 1, 2, 3, 6, 11, 21, 66, 21, 11, 6, 3, 2, 1),
    }


class TestProjectDual:
    """The batched projection against the dense oracle on each block's slice.

    The oracle is ``np.linalg.eigh``, the eigenvalues clipped at zero and
    ``(V * lambda) @ V.T``, read back through svec: the same operations in
    the same order, so the projection must match it bit for bit.
    """

    @pytest.fixture(scope="class")
    def programs(self):
        return _projection_programs()

    def test_block_dimensions(self, programs):
        dims = {k: [b.dim for b in p.blocks] for k, p in programs.items()}
        assert dims["toy_d2"] == [6, 3, 1, 6]
        assert dims["union_d2"] == [66, 11, 11, 66, 11, 11, 66]

    @pytest.mark.parametrize("name", ["toy_d2", "union_d2", "scalar_blocks", "stacked"])
    def test_matches_blockwise_oracle(self, programs, name):
        prog = programs[name]
        rng = np.random.default_rng(7)
        s = rng.standard_normal(prog.operator.shape[0])
        if name == "scalar_blocks":
            s[prog.block_slices[0]] = -0.7
            s[prog.block_slices[2]] = 0.4
        vectors = [s] + [rng.standard_normal(len(s)) for _ in range(2)]
        got = [prog.project_dual(v) for v in vectors]   # later calls reuse the buffers
        for v, out in zip(vectors, got):
            for blk, sl in zip(prog.blocks, prog.block_slices):
                want = svec(util.reference_psd_project(util.unsvec(v[sl], blk.dim)))
                assert out[sl].tobytes() == want.tobytes()
        if name == "scalar_blocks":
            assert got[0][prog.block_slices[0]][0] == 0.0
            assert got[0][prog.block_slices[2]][0] == 0.4

    @pytest.mark.parametrize("name", ["toy_d2", "union_d2", "scalar_blocks"])
    def test_idempotent(self, programs, name):
        prog = programs[name]
        s = np.random.default_rng(8).standard_normal(prog.operator.shape[0])
        once = prog.project_dual(s)
        assert np.max(np.abs(prog.project_dual(once) - once)) <= 1e-10

    @pytest.mark.parametrize("action", ["default", "error", "raise"])
    def test_failed_eigendecomposition_raises(self, programs, action):
        # under "error" and "raise" LAPACK's invalid-value warning comes
        # before the check, as a RuntimeWarning or a FloatingPointError
        for name, block, match in (("scalar_blocks", 1, "2 blocks of dim 3"),
                                   ("toy_d2", 1, "1 blocks of dim 3"),
                                   ("union_d2", 1, "4 blocks of dim 11")):
            prog = programs[name]
            s = np.zeros(prog.operator.shape[0])
            s[prog.block_slices[block]] = np.nan
            with _failure_mode(action):
                with pytest.raises(NumericalError, match=match):
                    prog.project_dual(s)

    def test_scalar_blocks_clip_at_zero(self):
        # a 1x1 block goes through the batched eigh like every other block;
        # LAPACK returns its value with the eigenvector [[1.0]], so the
        # projection is the clip max(v, 0): the same bytes, and for a signed
        # zero the same value
        values = np.array([-3.5, 2.25, -1e-300, 1e-300, -5e-324, 5e-324, 2.2e-308,
                           -1e154, 1e150, 1e153, -0.0, 0.0])
        prog = util.block_program(*[1] * len(values))
        got, want = prog.project_dual(values), np.maximum(values, 0.0)
        nonzero = values != 0.0
        assert got[nonzero].tobytes() == want[nonzero].tobytes()
        assert np.array_equal(got, want)
        for (lam, q), v in zip(prog.eigenpairs(), values):
            assert lam.tolist() == [v] and q.tolist() == [[1.0]]

    @pytest.mark.parametrize("action", ["default", "error", "raise"])
    def test_nan_in_a_scalar_block_raises(self, programs, action):
        # the toy's 1x1 block (block 2) stops a NaN in the projection, from
        # both project_dual and the gradient, as every other block does
        prog = programs["toy_d2"]
        theta_b = prog.constants.copy()
        theta_b[prog.block_slices[2]] = np.nan
        x = np.zeros(prog.num_scalars)
        with _failure_mode(action):
            with pytest.raises(NumericalError, match="1 blocks of dim 1 "):
                prog.project_dual(theta_b)
            with pytest.raises(NumericalError, match="1 blocks of dim 1 "):
                prog.gradient(x, prog.objective, theta_b)

    @staticmethod
    def _two_by_two():
        """A program of one 2x2 block whose operator sums the block's svec."""
        block = PsdBlock(dim=2, label="b0", coeffs=util.to_sparse(np.ones((3, 1))),
                         constant=np.zeros((2, 2)))
        box = SimpleSet(lower=np.array([-1.0]), upper=np.array([1.0]),
                        pinned_idx=np.array([], dtype=int), pinned_val=np.array([]))
        return ConicProgram(objective=np.zeros(1), blocks=[block], simple_set=box)

    @staticmethod
    @contextlib.contextmanager
    def _strict(action):
        """The warnings filter ``action``, or for "raise" numpy's error
        state raising every floating-point error, overflow included."""
        with warnings.catch_warnings(), contextlib.ExitStack() as stack:
            if action == "raise":
                stack.enter_context(np.errstate(all="raise"))
            else:
                warnings.simplefilter(action)
            yield

    @pytest.mark.parametrize("action", ["default", "error", "raise"])
    def test_huge_finite_eigenvalues_project(self, action):
        # eigenvalues +-1e160, whose squares overflow: the finiteness check
        # squares nothing, so nothing warns or raises, from project_dual or
        # from the gradient, and the projection is the clipped diagonal
        prog = self._two_by_two()
        s = np.array([1e160, 0.0, -1e160])
        with self._strict(action):
            got = prog.project_dual(s)
            grad = prog.gradient(np.zeros(1), np.zeros(1), s)
        assert got.tolist() == [1e160, 0.0, 0.0]
        assert grad.tolist() == [-1e160]

    @pytest.mark.parametrize("action", ["default", "error", "raise"])
    @pytest.mark.parametrize("s", [[np.inf, 0.0, 0.0], [-np.inf, 0.0, 1.0],
                                   [np.nan, 0.0, 1e160], [1e308, 1.4e308, 1e308]],
                             ids=["inf", "-inf", "nan", "eigenvalue-overflows"])
    def test_non_finite_eigenvalues_raise(self, action, s):
        # an infinite or NaN entry, or finite entries whose largest
        # eigenvalue (about 2e308) overflows, which LAPACK returns as inf
        # without a warning: NumericalError from project_dual and gradient
        prog = self._two_by_two()
        s = np.array(s)
        with self._strict(action):
            with pytest.raises(NumericalError, match="1 blocks of dim 2 "):
                prog.project_dual(s)
            with pytest.raises(NumericalError, match="1 blocks of dim 2 "):
                prog.gradient(np.zeros(1), np.zeros(1), s)

    @pytest.mark.parametrize("name", ["toy_d2", "union_d2"])
    def test_adjoint_is_transpose_on_repeated_calls(self, programs, name):
        prog = programs[name]
        rng = np.random.default_rng(9)
        for _ in range(3):
            z = rng.standard_normal(prog.operator.shape[0])
            assert np.allclose(prog.adjoint(z), util.to_dense(prog.operator).T @ z,
                               rtol=1e-13, atol=1e-13)


def _gradient_programs():
    """Builders of every bundled problem at its least order (1 where it is
    allowed; 2 for the toy and the control problem), and of the union at
    order 2."""
    out = {}
    for name, ctor in problems.CONSTRUCTORS.items():
        problem, _ = ctor()
        order = min_relaxation_order(problem)
        out[f"{name}_d{order}"] = lambda p=problem, d=order: build_chance_sdp(
            scale_problem(p), d)
    out["example2_union_d2"] = lambda: _union(2)
    return out


_GRADIENT_PROGRAMS = _gradient_programs()


class TestGradient:
    """``ConicProgram.gradient`` against the projection and the adjoint it
    fuses: the same operations in the same order, so the same bits."""

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("name", sorted(_GRADIENT_PROGRAMS))
    def test_same_bits_as_project_dual_then_adjoint(self, monkeypatch, name, cpus):
        util.plan_for_cpus(monkeypatch, cpus)
        prog = _GRADIENT_PROGRAMS[name]()
        rng = np.random.default_rng(21)
        with prog.lanes() as lanes:
            if name == "example2_union_d2":
                assert lanes == cpus
            for nu in (1.0, 3.7, 81.0):
                x = prog.simple_set.project(rng.uniform(-1.0, 1.0, prog.num_scalars))
                theta_b = rng.uniform(0.0, 0.5 / nu, len(prog.constants)) + prog.constants
                c_over_nu = prog.objective / nu
                want = c_over_nu - prog.adjoint(prog.project_dual(theta_b - prog.apply(x)))
                assert prog.gradient(x, c_over_nu, theta_b).tobytes() == want.tobytes()

    @pytest.mark.parametrize("arg", ["x", "c_over_nu", "theta_b"])
    @pytest.mark.parametrize("change", [-1, 1])
    def test_wrong_length_raises(self, arg, change):
        # without the check, the operator's gather would clamp its index
        prog = _GRADIENT_PROGRAMS["example1_toy_d2"]()
        n, m = prog.num_scalars, len(prog.constants)
        args = dict(x=np.zeros(n), c_over_nu=prog.objective, theta_b=prog.constants)
        args[arg] = np.zeros(len(args[arg]) + change)
        with pytest.raises(ValueError, match=rf"gradient of a \({m}, {n}\) operator"):
            prog.gradient(**args)

    @pytest.mark.parametrize("action", ["default", "error", "raise"])
    @pytest.mark.parametrize("where", ["x", "theta_b"])
    def test_non_finite_input_raises_as_project_dual(self, action, where):
        prog = _GRADIENT_PROGRAMS["example1_toy_d2"]()
        x, theta_b = np.zeros(prog.num_scalars), prog.constants.copy()
        if where == "x":
            x[prog.num_scalars // 2] = np.nan
        else:
            theta_b[prog.block_slices[1]] = np.nan
        s = theta_b - prog.apply(x)
        with _failure_mode(action):
            with pytest.raises(NumericalError, match="eigendecomposition failed") as want:
                prog.project_dual(s)
            with pytest.raises(NumericalError) as got:
                prog.gradient(x, prog.objective, theta_b)
        assert str(got.value) == str(want.value)


def _planted_sym(rng, vals):
    """A symmetric matrix with eigenvalues ``vals`` and random eigenvectors."""
    q, _ = np.linalg.qr(rng.standard_normal((len(vals), len(vals))))
    return (q * np.asarray(vals, dtype=float)) @ q.T


class TestProjectionDerivative:
    """The eigenpairs a projection leaves, and the derivative built from them."""

    def test_weights_on_known_eigenvalues(self):
        lam = np.array([-2.0, -0.5, 1.0, 3.0])
        mixed = [[0.0, 0.0, 1 / 3, 3 / 5], [0.0, 0.0, 1 / 1.5, 3 / 3.5],
                 [1 / 3, 1 / 1.5, 1.0, 1.0], [3 / 5, 3 / 3.5, 1.0, 1.0]]
        assert np.allclose(conic.psd_jacobian_weights(lam), mixed, rtol=0, atol=1e-15)
        # a repeated eigenvalue takes the limit of its side, 1 above zero and
        # 0 at or below; between 0 and 2 the quotient is 2 / 2
        assert conic.psd_jacobian_weights(np.array([0.0, 0.0, 2.0, 2.0])).tolist() == [
            [0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 1.0, 1.0],
            [1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0]]

    @pytest.mark.parametrize("dims, cpus", [((2,), 1), ((1, 3, 3, 6), 1), ((11, 1, 4), 1),
                                            ((30, 2, 30, 1, 2), 2)])
    def test_eigenpairs_rebuild_each_block(self, monkeypatch, dims, cpus):
        util.plan_for_cpus(monkeypatch, cpus)
        rng = np.random.default_rng(sum(dims))
        prog = util.block_program.__wrapped__(*dims)
        mats = [_planted_sym(rng, rng.standard_normal(d)) for d in dims]
        with prog.lanes() as lanes:
            assert lanes == cpus
            projected = prog.project_dual(np.concatenate([svec(m) for m in mats]))
        pairs = prog.eigenpairs()
        assert len(pairs) == len(dims)
        for mat, (lam, q) in zip(mats, pairs):
            assert not lam.flags.writeable and not q.flags.writeable
            assert np.all(np.diff(lam) >= 0)
            assert np.allclose((q * lam) @ q.T, mat, rtol=0, atol=1e-12)
        assert prog.projected_norm2() == pytest.approx(float(projected @ projected), rel=1e-14)

    def test_jacobian_product_matches_central_differences(self):
        # eigenvalues 0.4 apart at least and none near zero, so the
        # projection is smooth around S and J is its derivative
        rng = np.random.default_rng(7)
        prog = util.block_program.__wrapped__(5)
        s = svec(_planted_sym(rng, [-2.0, -1.1, 0.5, 1.5, 3.0]))
        prog.project_dual(s)
        lam, q = (arr.copy() for arr in prog.eigenpairs()[0])   # the next projections overwrite them
        omega = conic.psd_jacobian_weights(lam)
        eps = 1e-6
        for _ in range(5):
            h = _planted_sym(rng, rng.standard_normal(5))
            product = q @ (omega * (q.T @ h @ q)) @ q.T
            diff = (prog.project_dual(s + eps * svec(h))
                    - prog.project_dual(s - eps * svec(h))) / (2 * eps)
            assert np.max(np.abs(svec(product) - diff)) < 1e-8

    def test_newton_matrix_matches_gradient_differences(self):
        rng = np.random.default_rng(8)
        prog, x_star, _ = util.planted_program(rng, num_scalars=12, block_dims=[4, 3, 2])
        x = x_star + rng.uniform(-0.2, 0.2, 12)
        theta_b = rng.uniform(0, 0.5, prog.operator.shape[0]) + prog.constants
        c = prog.objective
        prog.gradient(x, c, theta_b)
        hess = prog.newton_matrix()    # at x: the gradient's projection left its eigenpairs
        assert np.allclose(hess, hess.T, rtol=0, atol=1e-12)
        eps = 1e-6
        for _ in range(5):
            v = rng.standard_normal(12)
            diff = (prog.gradient(x + eps * v, c, theta_b)
                    - prog.gradient(x - eps * v, c, theta_b)) / (2 * eps)
            assert np.max(np.abs(hess @ v - diff)) < 1e-6 * (1.0 + np.max(np.abs(diff)))


_LANE_PROGRAMS = {
    "union_d2": lambda: _union(2),
    # a fresh program each time: the plan is built for the CPUs of its first use
    "hand_built": lambda: util.block_program.__wrapped__(66, 66, 66, 11, 11, 1),
}


class TestLanes:
    """The projection split into per-CPU lanes: the partition, and the same
    bits for any number of lanes, failures included."""

    @pytest.mark.parametrize("name, cpus, layout", [
        ("toy_d2", 2, [[(1, 1), (3, 1), (6, 2)]]),
        ("union_d1", 2, [[(1, 4), (11, 3)]]),
        ("union_d1", 3, [[(1, 4), (11, 3)]]),
        ("union_d2", 1, [[(11, 4), (66, 3)]]),
        ("union_d2", 2, [[(66, 2)], [(11, 4), (66, 1)]]),
        ("union_d2", 3, [[(11, 2), (66, 1)], [(11, 1), (66, 1)], [(11, 1), (66, 1)]]),
    ])
    def test_partition(self, monkeypatch, name, cpus, layout):
        util.plan_for_cpus(monkeypatch, cpus)
        build = {"toy_d2": lambda: build_chance_sdp(util.toy_problem(), 2),
                 "union_d1": lambda: _union(1), "union_d2": lambda: _union(2)}
        prog = build[name]()
        assert util.lane_layout(prog) == layout
        with prog.lanes() as lanes:
            assert lanes == len(layout)

    def test_partition_rule(self):
        # largest first to the least-loaded lane; a lane needs a 30^3 load
        assert conic._partition([66, 11, 11, 66, 11, 11, 66], 2) == [[0, 6], [3, 1, 2, 4, 5]]
        assert conic._partition([6, 3, 6], 2) == [[0, 1, 2]]
        assert conic._partition([30, 30], 2) == [[0], [1]]
        assert conic._partition([30, 29], 2) == [[0, 1]]
        assert conic._partition([66, 66, 11], 4) == [[0, 2], [1]]
        assert conic._partition([66, 66], 1) == [[0, 1]]
        assert conic._partition([], 2) == [[]]

    @pytest.mark.parametrize("name", sorted(_LANE_PROGRAMS))
    def test_same_bits_for_any_lane_count(self, monkeypatch, name):
        rng = np.random.default_rng(11)
        util.plan_for_cpus(monkeypatch, 1)
        one = _LANE_PROGRAMS[name]()
        vectors = [rng.standard_normal(one.operator.shape[0]) for _ in range(3)]
        want = [one.project_dual(v).tobytes() for v in vectors]
        for cpus in (2, 3):
            util.plan_for_cpus(monkeypatch, cpus)
            prog = _LANE_PROGRAMS[name]()
            assert [prog.project_dual(v).tobytes() for v in vectors] == want  # one thread
            with prog.lanes() as lanes:
                assert lanes == cpus
                assert [prog.project_dual(v).tobytes() for v in vectors] == want

    @pytest.mark.parametrize("action", ["default", "error", "raise"])
    @pytest.mark.parametrize("blocks, match", [((1,), "3 blocks of dim 66"),
                                               ((3,), "2 blocks of dim 11"),
                                               ((0, 3), "2 blocks of dim 11")])
    def test_failure_in_a_worker_lane_raises(self, monkeypatch, action, blocks, match):
        # at 2 CPUs blocks 1 (66) and 3 (11) are in lane 1, a worker's, and
        # block 0 (66) in lane 0; as in one lane, the smallest dim is named
        util.plan_for_cpus(monkeypatch, 2)
        prog = _LANE_PROGRAMS["hand_built"]()
        assert util.lane_layout(prog) == [[(66, 2)], [(1, 1), (11, 2), (66, 1)]]
        good = np.random.default_rng(12).standard_normal(prog.operator.shape[0])
        bad = good.copy()
        for block in blocks:
            bad[prog.block_slices[block]] = np.nan
        want = prog.project_dual(good).tobytes()
        with prog.lanes():
            with _failure_mode(action):
                with pytest.raises(NumericalError, match=match):
                    prog.project_dual(bad)
            assert prog.project_dual(good).tobytes() == want   # the lanes stay in step

    @pytest.mark.parametrize("block, match", [(0, "3 blocks of dim 66"),
                                              (3, "2 blocks of dim 11")])
    def test_lanes_use_the_callers_error_state_at_call_time(self, monkeypatch, block,
                                                            match):
        # block 0 is in lane 0, the caller's, and block 3 in lane 1, a worker's;
        # the pool's thread exists before the error state is entered, so only
        # the state read at the call keeps LAPACK's warning silent there
        util.plan_for_cpus(monkeypatch, 2)
        prog = _LANE_PROGRAMS["hand_built"]()
        good = np.random.default_rng(17).standard_normal(prog.operator.shape[0])
        bad = good.copy()
        bad[prog.block_slices[block]] = np.nan
        with prog.lanes():
            prog.project_dual(good)
            with np.errstate(invalid="ignore"), warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                with pytest.raises(NumericalError, match=match):
                    prog.project_dual(bad)
        assert [w for w in seen if issubclass(w.category, RuntimeWarning)] == []

    def test_more_lanes_than_cores_under_fast_switching(self, monkeypatch):
        # four lanes of 45x45 blocks on any machine, the interpreter switching
        # threads every microsecond: every call must still give the one-lane bits
        dims = (45, 45, 45, 45, 6, 3, 1)
        rng = np.random.default_rng(14)
        util.plan_for_cpus(monkeypatch, 1)
        one = util.block_program.__wrapped__(*dims)
        util.plan_for_cpus(monkeypatch, 4)
        prog = util.block_program.__wrapped__(*dims)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with prog.lanes() as lanes:
                assert lanes == 4
                for _ in range(100):
                    s = rng.standard_normal(prog.operator.shape[0])
                    assert prog.project_dual(s).tobytes() == one.project_dual(s).tobytes()
        finally:
            sys.setswitchinterval(interval)

    def test_worker_exception_is_raised_by_the_caller(self, monkeypatch):
        util.plan_for_cpus(monkeypatch, 2)
        prog = _LANE_PROGRAMS["hand_built"]()
        s = np.random.default_rng(13).standard_normal(prog.operator.shape[0])
        real = conic._eigh

        def fails_on_workers(*args, **kw):
            if threading.current_thread() is not threading.main_thread():
                raise MemoryError("worker")
            return real(*args, **kw)

        with prog.lanes():
            monkeypatch.setattr(conic, "_eigh", fails_on_workers)
            with pytest.raises(MemoryError, match="worker"):
                prog.project_dual(s)
            monkeypatch.setattr(conic, "_eigh", real)
            prog.project_dual(s)

    def test_caller_failure_waits_for_every_lane(self, monkeypatch):
        # lane 0 raising reaches the caller only once no pool lane writes the
        # plan's buffers any more
        util.plan_for_cpus(monkeypatch, 2)
        prog = _LANE_PROGRAMS["hand_built"]()
        s = np.random.default_rng(16).standard_normal(prog.operator.shape[0])
        real, started, done = conic._eigh, threading.Event(), []

        def eigh(*args, **kw):
            if threading.current_thread() is threading.main_thread():
                started.wait(timeout=10)
                raise MemoryError("caller")
            started.set()
            time.sleep(0.05)
            real(*args, **kw)
            done.append(kw["out"][0].shape)

        with prog.lanes():
            monkeypatch.setattr(conic, "_eigh", eigh)
            with pytest.raises(MemoryError, match="caller"):
                prog.project_dual(s)
            assert done == [(1, 1), (2, 11), (1, 66)]    # lane 1's pieces, all finished

    def test_nested_lanes_start_nothing(self, monkeypatch):
        # an inner entry neither adds a thread per lane, which would write the
        # same buffers twice, nor stops the outer block's pool on its way out
        util.plan_for_cpus(monkeypatch, 1)
        one = _LANE_PROGRAMS["union_d2"]()
        util.plan_for_cpus(monkeypatch, 2)
        prog = _LANE_PROGRAMS["union_d2"]()
        rng = np.random.default_rng(15)
        vectors = [rng.standard_normal(prog.operator.shape[0]) for _ in range(30)]
        want = [one.project_dual(v).tobytes() for v in vectors]
        real, threads = conic._eigh, set()

        def eigh(*args, **kw):
            threads.add(threading.current_thread())
            return real(*args, **kw)

        monkeypatch.setattr(conic, "_eigh", eigh)
        with prog.lanes():
            prog.project_dual(vectors[0])
            outer = threading.active_count()
            with prog.lanes() as lanes:
                assert lanes == 2
                assert [prog.project_dual(v).tobytes() for v in vectors] == want
                assert threading.active_count() == outer
            threads.clear()
            assert [prog.project_dual(v).tobytes() for v in vectors] == want
            assert len(threads) == 2 and threading.main_thread() in threads


def _parse_export(path):
    """Rebuild objective / blocks from the text format (test-side reader)."""
    objective = {}
    coeffs = {}
    consts = {}
    dims = {}
    for line in path.read_text().splitlines():
        parts = line.split()
        if parts[0] == "objective":
            objective[int(parts[1])] = float(parts[2])
        elif parts[0] == "block":
            dims[int(parts[1])] = int(parts[2])
        elif parts[0] == "coeff":
            b, i, j, s = map(int, parts[1:5])
            coeffs[(b, i, j, s)] = coeffs.get((b, i, j, s), 0.0) + float(parts[5])
        elif parts[0] == "const":
            b, i, j = map(int, parts[1:4])
            consts[(b, i, j)] = float(parts[4])
    return objective, dims, coeffs, consts


class TestExport:
    def test_round_trip_against_program(self, tmp_path):
        prog = build_refinement_sdp(util.toy_problem(), [0.5], 2, mode="indicator")
        path = prog.export_text(tmp_path / "prog.txt")
        objective, dims, coeffs, consts = _parse_export(path)
        assert dims == {i: b.dim for i, b in enumerate(prog.blocks)}
        for i, v in objective.items():
            assert v == pytest.approx(prog.objective[i])
        # spot-check each block's coefficients and constants entrywise
        for bi, blk in enumerate(prog.blocks):
            for s in range(prog.num_scalars):
                mat = util.coefficient_matrix(blk, s)
                for i in range(blk.dim):
                    for j in range(i, blk.dim):
                        got = coeffs.get((bi, i, j, s), 0.0)
                        assert got == pytest.approx(mat[i, j], abs=1e-12)
            for i in range(blk.dim):
                for j in range(i, blk.dim):
                    got = consts.get((bi, i, j), 0.0)
                    assert got == pytest.approx(blk.constant[i, j], abs=1e-12)
