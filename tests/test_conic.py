"""Conic program container: simple set, block algebra, text export."""

import warnings

import numpy as np
import pytest

import util
from chanceopt import problems
from chanceopt.conic import ConicProgram, PsdBlock, SimpleSet, svec
from chanceopt.errors import NumericalError
from chanceopt.relaxation import build_chance_sdp, build_refinement_sdp, scale_problem


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


def _projection_programs():
    union, _ = problems.CONSTRUCTORS["example2_union"]()
    return {
        "toy_d2": build_chance_sdp(util.toy_problem(), 2),
        "union_d2": build_chance_sdp(scale_problem(union), 2),
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
        assert dims["toy_d2"] == [6, 3, 1, 3, 6]
        assert dims["union_d2"] == [66, 11, 11, 66, 11, 11, 21, 66]

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

    @pytest.mark.parametrize("action", ["default", "error"])
    def test_failed_eigendecomposition_raises(self, programs, action):
        # under "error" LAPACK's invalid-value warning comes before the check
        prog = programs["scalar_blocks"]
        s = np.zeros(prog.operator.shape[0])
        s[prog.block_slices[1]] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            with pytest.raises(NumericalError, match="2 blocks of dim 3"):
                prog.project_dual(s)

    @pytest.mark.parametrize("name", ["toy_d2", "union_d2"])
    def test_adjoint_is_transpose_on_repeated_calls(self, programs, name):
        prog = programs[name]
        rng = np.random.default_rng(9)
        for _ in range(3):
            z = rng.standard_normal(prog.operator.shape[0])
            assert np.allclose(prog.adjoint(z), util.to_dense(prog.operator).T @ z,
                               rtol=1e-13, atol=1e-13)


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
