"""``SparseMatrix`` against ``scipy.sparse`` as an oracle, byte for byte.

Every block the builders assemble goes through ``SparseMatrix.from_triplets``;
the same triplets through ``coo_matrix(...).tocsr()`` must give the same
entries, and both products must equal scipy's CSR products bit for bit,
signed zeros included.
"""

from itertools import product

import numpy as np
import pytest
import scipy.sparse as sp

from chanceopt import conic
from chanceopt.errors import OrderError
from chanceopt.moments import BASES
from chanceopt.problems import BUNDLED, load_bundled
from chanceopt.relaxation import build_chance_sdp, build_refinement_sdp

KINDS = ("chance", "indicator", "product")


def build(problem, order, basis, kind):
    if kind == "chance":
        return build_chance_sdp(problem, order, basis=basis)
    return build_refinement_sdp(problem, np.full(problem.n, 0.3), order, mode=kind,
                                basis=basis)


def assert_same_bytes(got, want, dtype=float):
    got, want = np.asarray(got, dtype=dtype), np.asarray(want, dtype=dtype)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.fixture
def assembled(monkeypatch):
    """The triplets and result of every ``from_triplets`` call, in order."""
    calls = []
    from_triplets = conic.SparseMatrix.from_triplets.__func__

    def recording(cls, rows, cols, data, shape):
        mat = from_triplets(cls, rows, cols, data, shape)
        calls.append(((rows, cols, data, shape), mat))
        return mat

    monkeypatch.setattr(conic.SparseMatrix, "from_triplets", classmethod(recording))
    return calls


@pytest.mark.parametrize("name", BUNDLED)
def test_programs_match_scipy(name, assembled):
    problem, _ = load_bundled(name)
    orders = (1, 2, 3) if problem.n + problem.m <= 8 else (1, 2)
    rng = np.random.default_rng(BUNDLED.index(name))
    built = 0
    for order, basis, kind in product(orders, BASES, KINDS):
        assembled.clear()
        try:
            prog = build(problem, order, basis, kind)
        except OrderError:
            continue
        built += 1
        triplets = {id(mat): args for args, mat in assembled}
        assert sorted(triplets) == sorted(id(b.coeffs) for b in prog.blocks)
        refs = []
        for mat in (b.coeffs for b in prog.blocks):
            rows, cols, data, shape = triplets[id(mat)]
            ref = sp.coo_matrix((data, (rows, cols)), shape=shape).tocsr()
            assert mat.shape == ref.shape
            assert_same_bytes(mat.rows, np.repeat(np.arange(shape[0]), np.diff(ref.indptr)),
                              np.int64)
            assert_same_bytes(mat.cols, ref.indices, np.int64)
            assert_same_bytes(mat.data, ref.data)
            refs.append(ref)
        stacked = sp.vstack(refs, format="csr")
        x = rng.standard_normal(prog.num_scalars)
        z = rng.standard_normal(stacked.shape[0])
        assert_same_bytes(prog.apply(x), stacked @ x)
        assert_same_bytes(prog.adjoint(z), stacked.T @ z)
        for blk, ref in zip(prog.blocks, refs):
            assert_same_bytes(blk.coeffs @ x, ref @ x)
            zb = z[:ref.shape[0]]
            assert_same_bytes(blk.coeffs.rmatvec(zb), ref.T @ zb)
    assert built


def test_signed_zeros_survive_assembly():
    # the Chebyshev dominance block cancels to -0.0 at 60 entries, which a
    # duplicate sum started from 0.0 would turn into 0.0
    problem, _ = load_bundled("example4_control")
    prog = build_chance_sdp(problem, 2, basis="chebyshev")
    (dominance,) = [b for b in prog.blocks if b.label == "dominance"]
    data = dominance.coeffs.data
    assert int(np.count_nonzero((data == 0.0) & np.signbit(data))) == 60


def test_duplicates_sum_in_input_order():
    rows, cols = [1, 0, 1, 1, 0], [2, 1, 2, 2, 1]
    data = [1.0, -0.0, 1e16, -1e16, -0.0]
    mat = conic.SparseMatrix.from_triplets(rows, cols, data, (2, 3))
    ref = sp.coo_matrix((data, (rows, cols)), shape=(2, 3)).tocsr()
    assert mat.nnz == ref.nnz == 2
    assert_same_bytes(mat.rows, [0, 1], np.int64)
    assert_same_bytes(mat.cols, ref.indices, np.int64)
    assert_same_bytes(mat.data, ref.data)
    assert_same_bytes(mat.data, [-0.0, 0.0])


def test_out_of_range_triplets_and_vectors_raise():
    with pytest.raises(ValueError, match="outside the shape"):
        conic.SparseMatrix.from_triplets([2], [0], [1.0], (2, 3))
    with pytest.raises(ValueError, match="outside the shape"):
        conic.SparseMatrix(np.array([0]), np.array([3]), np.array([1.0]), (2, 3))
    mat = conic.SparseMatrix.from_triplets([1], [2], [1.0], (2, 3))
    with pytest.raises(ValueError, match="shape"):
        mat @ np.ones(2)
    with pytest.raises(ValueError, match="shape"):
        mat.rmatvec(np.ones(3))
