"""Solver trajectories are pinned bit for bit.

Each case is the sha256 of ``trace.x.tobytes()`` for one solve, with the
(inner iterations, inner stop) pair of every outer iteration: the toy at
order 2 (the main solve, and the indicator refinement at its decoded
decision), the toy in the Chebyshev basis, and the union at order 1, all
with an inner cap of 2000 and all small enough for Newton inner solves.
The toy at order 2 and the union at order 1 are pinned once more on APG
inner solves, forced by lowering the Newton size limit to 0, as APG
serves every larger program.
One more case is the sha256 of the series CSV of the seed-0 toy sweep at
order 2 with an inner cap of 6000, the benchmark's toy operation: its
three solves, decoded decisions and Monte Carlo estimate.  A change to
the solver or its kernels that moves one bit of an iterate changes a
digest, even when every reported value stays within tolerance.  A change that keeps the arithmetic must
leave every digest unchanged; a deliberate change to the trajectory must
update them and say why.

The digests hold for one rounding of LAPACK's symmetric eigensolver and
BLAS's products, which vary with the library build and the CPU kernels
it picks.  A probe hashes those calls and the Cholesky solve of the
Newton steps, made straight through numpy on fixed inputs at the block
sizes, vector lengths and Newton system sizes these solves use, and
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
from chanceopt import alcc
from chanceopt.alcc import SolverParams, alcc_solve
from chanceopt.cli import main
from chanceopt.problems import load_bundled
from chanceopt.relaxation import build_chance_sdp, build_refinement_sdp, decode

def _steps(*counts, last="step_small"):
    """(inner iterations, inner stop) per outer: every stop step_small but the last."""
    return [(n, "step_small") for n in counts[:-1]] + [(counts[-1], last)]


# (inner iterations, inner stop) of every outer iteration, under either kernel
INNER = {
    "toy_d2": _steps(8, 7, 13, 7, 9, 8, 16, 32, 12, 9, 9, 6),
    "toy_d2_indicator": _steps(4, 5, 4, 6, 7, 7, 7, 7, 7, 6, 5),
    "toy_d2_chebyshev": _steps(19, 24, 7, 10, 13, 9, 14, 29, 17, 9, 12, 6, last="floor"),
    "union_d1": _steps(15, 7, 65, 25, 11, 7),
    "toy_d2_apg": _steps(34, 161, 338, 845) + [(2001, "iter_cap")] * 8,
    "union_d1_apg": _steps(89, 272) + [(2001, "iter_cap")] * 6,
}

# the sha256 of each solve's final x, keyed by the probe of the rounding
DIGESTS = {
    # OpenBLAS's own choice on an AVX-512 host (SkylakeX)
    "be54703c51b0e2a015d44263aaf636f147def56fd26cb230a5c128b3a80634f3": {
        "toy_d2": "10bd5ed537c9890e4b19ff466f0d8e46249e0f8c9d3f5b0b8ea9428cf4b29af9",
        "toy_d2_indicator":
            "c98635ce678bfb945351026bdaeb7d884d4080f35b10e446fef2ad0d6809c4d1",
        "toy_d2_chebyshev":
            "aa976704b1a3dd8e7f5bfb522c223f51d67679834f25c70d95630bef52abb45c",
        "union_d1": "9ffc32d75330dc1400bc1bc9633a3d14696646a40d90a0f94e9eb25c78bf1945",
        "toy_d2_apg": "ea93e9b893bb9b8ada3726b62d33076a66a209034c881de7eb61af03ac047f64",
        "union_d1_apg":
            "149c678d9a1c25d4a2a1a715225cd4d3f432fb6bb54788c0cf3629c685019736",
        "toy_d2_sweep_csv":
            "915860db407b69ee8d10af683d842544dd21b3ce948df2b6f2cd34cda5d9b9bc",
    },
    # OPENBLAS_CORETYPE=Haswell
    "59fd8464cb142e5755e73b27eafbfd1ec4f8821224731340438af8ce26ba712d": {
        "toy_d2": "fd1da4c4ca6e8deb242718e884a9d76234befa70582ddc751c133c0a9fd7b740",
        "toy_d2_indicator":
            "cb5925d643fb1777673d8c5e4a050508e469efd6e287d5fd5050bccbe08e2b44",
        "toy_d2_chebyshev":
            "8c6cb8d335dd52c4443ce4dcfc635b32901850dc1b7b88cabdb6fe0b74cd4a51",
        "union_d1": "8b07e782d70c1a70b738a8b02f3bfe813f278e82ec1ef4bd782f1ce11619c303",
        "toy_d2_apg": "2baeb7d035cac719da47db6f49ae6a6509bb78dc91cf8938880c541a63c38170",
        "union_d1_apg":
            "97af59d100da38e221e146306b58995c17623b0941eb5833352cb679358f548a",
        "toy_d2_sweep_csv":
            "915860db407b69ee8d10af683d842544dd21b3ce948df2b6f2cd34cda5d9b9bc",
    },
}


def _rounding_probe() -> str:
    """sha256 of eigh, batched matmul, dot and the Newton steps' Cholesky solve
    on fixed inputs of the solves' sizes."""
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
    for size in (5, 19, 20, 150, 153):
        m = rng.standard_normal((size, size))
        chol = np.linalg.cholesky(m @ m.T + np.eye(size))
        b = rng.standard_normal(size)
        h.update(chol.tobytes())
        h.update(np.linalg.solve(chol.T, np.linalg.solve(chol, b)).tobytes())
    return h.hexdigest()


def test_newton_calls_match_the_probed_calls(monkeypatch):
    # the Newton step factors and solves through the gufuncs that
    # np.linalg.cholesky and np.linalg.solve wrap; on every input the probe
    # passes to the public calls they give the same bytes, so the probe
    # selects the digest set for the calls the solver makes
    seen = {"cholesky": [], "solve": []}

    def recorder(name, public):
        def call(*args):
            seen[name].append(args)
            return public(*args)
        return call

    with monkeypatch.context() as patch:
        for name in seen:
            patch.setattr(np.linalg, name, recorder(name, getattr(np.linalg, name)))
        _rounding_probe()
    assert len(seen["cholesky"]) == 5 and len(seen["solve"]) == 10
    for (a,) in seen["cholesky"]:
        assert alcc._cholesky(a, signature="d->d").tobytes() == np.linalg.cholesky(a).tobytes()
    for a, b in seen["solve"]:
        assert alcc._solve(a, b, signature="dd->d").tobytes() == np.linalg.solve(a, b).tobytes()


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
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(alcc, "_NEWTON_MAX_SCALARS", 0)
        out["toy_d2_apg"] = alcc_solve(build_chance_sdp(toy, 2), params)
        out["union_d1_apg"] = alcc_solve(build_chance_sdp(union, 1), params)
    return out


@pytest.mark.parametrize("name", sorted(INNER))
def test_solver_trajectory_pinned(digests, traces, name):
    trace = traces[name]
    assert [(r.inner_iters, r.inner_stop) for r in trace.records] == INNER[name]
    assert trace.status == "converged"
    assert trace.inner_solver == ("apg" if name.endswith("_apg") else "newton")
    assert hashlib.sha256(trace.x.tobytes()).hexdigest() == digests[name]


def test_toy_sweep_series_pinned(digests, tmp_path):
    argv = ["sweep", "example1_toy", "--dmin", "2", "--dmax", "2", "--max-inner-cap", "6000",
            "--seed", "0", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    csv = (tmp_path / "example1_toy_series.csv").read_bytes()
    assert hashlib.sha256(csv).hexdigest() == digests["toy_d2_sweep_csv"]
