"""Solver trajectories are pinned bit for bit.

Each case is the sha256 of ``trace.x.tobytes()`` for one solve, with the
(inner iterations, inner stop) pair of every outer iteration: the toy at
order 2 (the main solve, and the indicator refinement at its decoded
decision), the toy in the Chebyshev basis, and the union at order 1, all
with an inner cap of 2000.  A change to the solver or its kernels that
moves one bit of an iterate changes a digest, even when every reported
value stays within tolerance.  A change that keeps the arithmetic must
leave every digest unchanged; a deliberate change to the trajectory must
update them and say why.

The digests hold for one rounding of LAPACK's symmetric eigensolver and
BLAS's products, which vary with the library build and the CPU kernels
it picks.  A probe hashes those calls, made straight through numpy on
fixed inputs at the block sizes and vector lengths these solves use, and
selects the digest set recorded under the same rounding.  Two are
recorded, both with numpy 2.4.6 and its bundled OpenBLAS 0.3.31 on
x86-64: the kernel OpenBLAS picks on an AVX-512 host (SkylakeX), and the
one ``OPENBLAS_CORETYPE=Haswell`` forces, which any AVX2 host runs, so
the solves can be checked on such hosts by setting that variable.  The
kernels round the last bits differently but take the same inner
iterations.  Where the probe matches neither, the solves cannot
reproduce the digests and the test is skipped.
"""

import hashlib

import numpy as np
import pytest

import util
from chanceopt.alcc import SolverParams, alcc_solve
from chanceopt.problems import load_bundled
from chanceopt.relaxation import build_chance_sdp, build_refinement_sdp, decode

_CAPPED = [(2001, "iter_cap")]

# (inner iterations, inner stop) of every outer iteration, under either kernel
INNER = {
    "toy_d2": [(34, "step_small"), (161, "step_small"), (338, "step_small"),
               (845, "step_small")] + 8 * _CAPPED,
    "toy_d2_indicator": [(23, "step_small"), (54, "step_small"), (61, "step_small"),
                         (541, "step_small"), (975, "step_small")] + 6 * _CAPPED,
    "toy_d2_chebyshev": [(53, "step_small"), (863, "step_small"),
                         (772, "step_small")] + 9 * _CAPPED,
    "union_d1": [(89, "step_small"), (272, "step_small")] + 6 * _CAPPED,
}

# the sha256 of each solve's final x, keyed by the probe of the rounding
DIGESTS = {
    # OpenBLAS's own choice on an AVX-512 host (SkylakeX)
    "e4b31601115a0097a5f0c57569ffe74d169ad39bf6d5cdeb8f5c13023f0f0a05": {
        "toy_d2": "ea93e9b893bb9b8ada3726b62d33076a66a209034c881de7eb61af03ac047f64",
        "toy_d2_indicator":
            "216b6196c6ab235f0d28bae119b5ebd4373f353511997af94d0210c6b64a3844",
        "toy_d2_chebyshev":
            "375b5d49f503685b1224d3efac8c57b53ad48554b13c06667b04ffe322a8f00f",
        "union_d1": "149c678d9a1c25d4a2a1a715225cd4d3f432fb6bb54788c0cf3629c685019736",
    },
    # OPENBLAS_CORETYPE=Haswell
    "cde437eb8c7135eb10347ca3fbff3b3cf393f0b032c2c57b65c39b0b5f7fe416": {
        "toy_d2": "2baeb7d035cac719da47db6f49ae6a6509bb78dc91cf8938880c541a63c38170",
        "toy_d2_indicator":
            "5a20f45aece3abc2a97195f44e8e2b4d772f09a158d466a08300dfcaa4973793",
        "toy_d2_chebyshev":
            "0d2c2bfb6a7b51660ec382e4fc14dca52be7f569b20078f47d6c0fe802359e9f",
        "union_d1": "97af59d100da38e221e146306b58995c17623b0941eb5833352cb679358f548a",
    },
}


def _rounding_probe() -> str:
    """sha256 of eigh, batched matmul and dot on fixed inputs of the solves' sizes."""
    rng = np.random.default_rng(0)
    h = hashlib.sha256()
    for dim in (2, 3, 6, 11):
        a = rng.standard_normal((3, dim, dim))
        vals, vecs = np.linalg.eigh(a + a.transpose(0, 2, 1))
        h.update(vals.tobytes())
        h.update(np.matmul(vecs * vals[:, None, :], vecs.transpose(0, 2, 1)).tobytes())
    for length in (5, 16, 20, 55, 153, 223):
        v = rng.standard_normal(length)
        h.update(v.dot(v).tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def digests():
    found = DIGESTS.get(_rounding_probe())
    if found is None:
        pytest.skip("LAPACK/BLAS round differently here than where the digests were recorded")
    return found


@pytest.fixture(scope="module")
def traces(digests):
    params = SolverParams(max_inner_cap=2000)
    toy = util.toy_problem()
    union, _ = load_bundled("example2_union")
    main = build_chance_sdp(toy, 2)
    out = {"toy_d2": alcc_solve(main, params)}
    x_scaled = decode(main, out["toy_d2"].x).x_scaled
    for name, program in (
        ("toy_d2_indicator", build_refinement_sdp(toy, x_scaled, 2, mode="indicator")),
        ("toy_d2_chebyshev", build_chance_sdp(toy, 2, basis="chebyshev")),
        ("union_d1", build_chance_sdp(union, 1)),
    ):
        out[name] = alcc_solve(program, params)
    return out


@pytest.mark.parametrize("name", sorted(INNER))
def test_solver_trajectory_pinned(digests, traces, name):
    trace = traces[name]
    assert [(r.inner_iters, r.inner_stop) for r in trace.records] == INNER[name]
    assert trace.status == "converged"
    assert hashlib.sha256(trace.x.tobytes()).hexdigest() == digests[name]
