"""Shared helpers for the test suite, and the independent reference
definitions (oracles) that the package's fast paths are checked against."""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np

from chanceopt.conic import (
    ConicProgram,
    PsdBlock,
    SimpleSet,
    SparseMatrix,
    svec,
    triu_info,
)
from chanceopt.errors import DimensionError
from chanceopt.measures import (
    Beta,
    DistributionSpec,
    Uniform,
    lift_factors,
    univariate_moment,
)
from chanceopt.moments import (
    CHEBYSHEV,
    MONOMIAL,
    MomentVector,
    _check_basis,
    cheb_mono_coeffs,
    localizing_block_terms,
    moment_block_terms,
    terms_matrix,
)
from chanceopt.poly import (
    Exponent,
    Polynomial,
    basis_size,
    exponent_array,
    exponents,
    grevlex_key,
)
from chanceopt.relaxation import ChanceProblem


@lru_cache(maxsize=None)
def _ranks(n: int, d: int) -> dict:
    return {alpha: i for i, alpha in enumerate(exponents(n, d))}


def monomial_rank(alpha) -> int:
    """Rank oracle: an exponent's index in the grevlex list up to its degree."""
    alpha = tuple(alpha)
    return _ranks(len(alpha), sum(alpha))[alpha]


def literal_grevlex_compare(a, b):
    """The defining rule, kept as an independent oracle for the sort key:
    lower total degree first, ties broken by the sign of the last nonzero
    entry of a - b."""
    da, db = sum(a), sum(b)
    if da != db:
        return -1 if da < db else 1
    for ai, bi in zip(reversed(a), reversed(b)):
        diff = ai - bi
        if diff:
            return -1 if diff < 0 else 1
    return 0


def key_compare(a, b) -> int:
    """-1, 0 or +1 as ``grevlex_key``, the package's sort key, puts ``a``
    before, level with, or after ``b``."""
    ka, kb = grevlex_key(a), grevlex_key(b)
    return (ka > kb) - (ka < kb)


def unsvec(vec: np.ndarray, dim: int) -> np.ndarray:
    """The symmetric matrix of an svec vector (inverse of ``conic.svec``)."""
    tri = triu_info(dim)
    return vec[tri.position] / tri.scale[tri.position]


def block_values(program: ConicProgram, x) -> list:
    """Dense block matrices sum_i x_i C_i - C_0 at a point, block by block."""
    return [unsvec(b.coeffs @ x, b.dim) - b.constant for b in program.blocks]


def basis_values(point: np.ndarray, order: int, basis: str = MONOMIAL) -> np.ndarray:
    """Vector of all basis polynomials of degree <= order evaluated at a point."""
    _check_basis(basis)
    point = np.asarray(point, dtype=float)
    n = len(point)
    exps = exponent_array(n, order)
    if basis == MONOMIAL:
        # univariate power tables, then product across coordinates
        pows = np.vstack([point[i] ** np.arange(order + 1) for i in range(n)])
    else:
        pows = np.vstack([_cheb_values(point[i], order) for i in range(n)])
    out = np.ones(exps.shape[0])
    for i in range(n):
        out *= pows[i, exps[:, i]]
    return out


def _cheb_values(x: float, order: int) -> np.ndarray:
    vals = np.empty(order + 1)
    vals[0] = 1.0
    if order >= 1:
        vals[1] = x
    for k in range(2, order + 1):
        vals[k] = 2.0 * x * vals[k - 1] - vals[k - 2]
    return vals


def dirac_moments(point, order: int, basis: str = MONOMIAL) -> MomentVector:
    """Moments of the unit point mass at ``point``."""
    point = np.asarray(point, dtype=float)
    return MomentVector(len(point), order, basis_values(point, order, basis))


def discrete_moments(points, weights, order: int, basis: str = MONOMIAL) -> MomentVector:
    """Moments of the discrete measure sum_k weights[k] * delta(points[k])."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    weights = np.asarray(weights, dtype=float)
    if len(weights) != points.shape[0]:
        raise DimensionError("one weight per point required")
    vals = np.zeros(basis_size(points.shape[1], order))
    for pt, w in zip(points, weights):
        vals += w * basis_values(pt, order, basis)
    return MomentVector(points.shape[1], order, vals)


@lru_cache(maxsize=None)
def cheb_basis_poly(alpha: Exponent) -> Polynomial:
    """The product Chebyshev basis polynomial b_alpha in monomial coordinates."""
    n = len(alpha)
    out = Polynomial.constant(n, 1.0)
    for i, e in enumerate(alpha):
        if e == 0:
            continue
        coeffs = cheb_mono_coeffs(e)
        uni = Polynomial(n, {
            tuple(j if t == i else 0 for t in range(n)): c
            for j, c in enumerate(coeffs) if c != 0.0
        })
        out = out * uni
    return out


@lru_cache(maxsize=None)
def _exact_power_in_cheb(k: int) -> tuple:
    """(j, c) pairs with x^k = sum c T_j, exactly: the closed form
    x^k = 2^(1-k) sum over j = k, k-2, ... of C(k, (k-j)/2) T_j, with the
    j = 0 term halved."""
    if k == 0:
        return ((0, Fraction(1)),)
    return tuple((j, Fraction(math.comb(k, (k - j) // 2), 2 ** (k - 1) * (2 if j == 0 else 1)))
                 for j in range(k, -1, -2))


def exact_cheb_localizer_entry(p: Polynomial, alpha_i: Exponent,
                               alpha_j: Exponent) -> dict:
    """Oracle: the exact Chebyshev coefficients of p * b_alpha_i * b_alpha_j.

    The product is formed over the rationals in monomial coordinates (every
    float is an exact rational, and b_alpha has integer coefficients), then
    each monomial is expanded by the closed form for x^k.  No product rule
    for Chebyshev polynomials is used.  Returns exponent -> nonzero Fraction.
    """
    prod = {}
    for a, ca in p.terms.items():
        for b, cb in cheb_basis_poly(tuple(alpha_i)).terms.items():
            for c, cc in cheb_basis_poly(tuple(alpha_j)).terms.items():
                key = tuple(x + y + z for x, y, z in zip(a, b, c))
                prod[key] = prod.get(key, 0) + Fraction(ca) * Fraction(cb) * Fraction(cc)
    out = {}
    for gamma, coef in prod.items():
        for parts in product(*(_exact_power_in_cheb(g) for g in gamma)):
            beta = tuple(j for j, _ in parts)
            out[beta] = out.get(beta, 0) + coef * math.prod(w for _, w in parts)
    return {beta: c for beta, c in out.items() if c}


def ulps_off(value: float, exact: Fraction) -> float:
    """Distance of ``value`` from ``exact`` in units in the last place of the
    float nearest ``exact`` (any nonzero value is infinitely off from 0)."""
    if exact == 0:
        return 0.0 if value == 0.0 else math.inf
    return float(abs(Fraction(value) - exact) / Fraction(np.spacing(abs(float(exact)))))


def chebyshev_transform(n: int, d: int) -> np.ndarray:
    """Change-of-basis matrix: row i holds the monomial coefficients of b_alpha(i).

    Lower triangular with positive diagonal under the grevlex layout, hence
    invertible.
    """
    size = basis_size(n, d)
    T = np.zeros((size, size))
    for i, alpha in enumerate(exponents(n, d)):
        for beta, coef in cheb_basis_poly(alpha).terms.items():
            T[i, monomial_rank(beta)] = coef
    return T


def joint_moment(spec: DistributionSpec, beta) -> float:
    """Product of per-coordinate moments (coordinates are independent)."""
    if len(beta) != spec.m:
        raise DimensionError(f"exponent length {len(beta)} for {spec.m} random coordinates")
    out = 1.0
    for dist, k in zip(spec.coords, beta):
        out *= univariate_moment(dist, int(k))
    return out


def lift(y_x: MomentVector, spec: DistributionSpec, order: int) -> MomentVector:
    """Joint moments of (decision measure) x (random measure), by ``lift_factors``."""
    x_rank, qfac = lift_factors(y_x.num_vars, spec, order)
    return MomentVector(y_x.num_vars + spec.m, order, qfac * y_x.values[x_rank])


def to_sparse(dense) -> SparseMatrix:
    """The nonzero entries of a dense 2-D array as a ``SparseMatrix``."""
    dense = np.asarray(dense, dtype=float)
    rows, cols = np.nonzero(dense)
    return SparseMatrix.from_triplets(rows, cols, dense[rows, cols], dense.shape)


def to_dense(mat: SparseMatrix) -> np.ndarray:
    """The dense 2-D array of a ``SparseMatrix``."""
    out = np.zeros(mat.shape)
    out[mat.rows, mat.cols] = mat.data
    return out


def reference_psd_project(mat: np.ndarray) -> np.ndarray:
    """Dense PSD projection oracle: eigendecomposition, then clip at zero."""
    vals, vecs = np.linalg.eigh(mat)
    return (vecs * np.maximum(vals, 0.0)) @ vecs.T


@lru_cache(maxsize=None)
def block_program(*dims: int) -> ConicProgram:
    """Program with zero blocks of the given dimensions, for projecting."""
    blocks = [PsdBlock(dim=d, label=f"b{i}",
                       coeffs=to_sparse(np.zeros((d * (d + 1) // 2, 1))),
                       constant=np.zeros((d, d)))
              for i, d in enumerate(dims)]
    box = SimpleSet(lower=np.array([-1.0]), upper=np.array([1.0]),
                    pinned_idx=np.array([], dtype=int), pinned_val=np.array([]))
    return ConicProgram(objective=np.zeros(1), blocks=blocks, simple_set=box)


def plan_for_cpus(monkeypatch, cpus: int) -> None:
    """Make projection plans built from now on split for ``cpus`` usable CPUs.

    Where numpy's BLAS is not an OpenBLAS whose thread count can be set, a
    stand-in count takes its place, so the lanes run on every machine.
    """
    from chanceopt import conic

    monkeypatch.setattr(conic, "_usable_cpus", lambda: cpus)
    if conic._openblas_threads() is None:
        count = [1]
        monkeypatch.setattr(conic, "_openblas_threads",
                            lambda: (lambda: count[0], lambda n: count.__setitem__(0, n)))


def lane_layout(program: ConicProgram) -> list:
    """(dim, blocks) of each piece of each lane of the program's projection plan."""
    return [[(piece.dim, len(piece.mats)) for piece in lane.pieces]
            for lane in program._plan.lanes]


def project_psd(mat: np.ndarray) -> np.ndarray:
    """PSD projection of one symmetric matrix by ``ConicProgram.project_dual``."""
    dim = mat.shape[0]
    return unsvec(block_program(dim).project_dual(svec(mat)), dim)


def coefficient_matrix(block: PsdBlock, scalar: int) -> np.ndarray:
    """Dense C_i of ``block`` for one scalar variable, from its svec column."""
    return unsvec(to_dense(block.coeffs)[:, scalar], block.dim)


def moment_matrix(y: MomentVector, d: int, basis: str = "monomial") -> np.ndarray:
    """Order-d moment matrix at ``y``: the block terms the builder uses."""
    return terms_matrix(moment_block_terms(y.num_vars, d, basis), y.values,
                        basis_size(y.num_vars, d))


def localizing_matrix(y: MomentVector, p: Polynomial, d: int,
                      basis: str = "monomial") -> np.ndarray:
    """Order-d localizing matrix of ``p`` at ``y`` from the builder's block terms."""
    return terms_matrix(localizing_block_terms(p, d, basis), y.values,
                        basis_size(p.num_vars, d))


def with_decision_block(program: ConicProgram) -> ConicProgram:
    """The chance program with the decision moment block M_d(y_x) >= 0 put
    back just before the dominance block: the program as built before the
    dominance and set blocks were shown to imply that block, kept as an
    oracle for the reduced one."""
    info = program.meta
    n = info.scaled.problem.n
    xr, xc, xranks, xcoefs = moment_block_terms(n, info.order, info.basis)
    block = PsdBlock.from_terms(basis_size(n, info.order), "decision_moment",
                                program.num_scalars,
                                [(xr, xc, info.yx_slice.start + xranks, xcoefs)])
    blocks = program.blocks[:-1] + [block, program.blocks[-1]]
    return ConicProgram(objective=program.objective, blocks=blocks,
                        simple_set=program.simple_set, meta=info)


def reference_measure_matrix(points, weights, d: int, basis: str = "monomial",
                             p: Polynomial | None = None) -> np.ndarray:
    """Oracle: sum_k w_k p(z_k) b(z_k) b(z_k)^T over a discrete measure.

    ``b`` is ``basis_values`` at order d; without ``p`` this is the moment
    matrix of the measure, with it the localizing matrix of ``p``.
    """
    out = 0.0
    for z, w in zip(points, weights):
        v = basis_values(z, d, basis)
        out = out + w * (1.0 if p is None else p(z)) * np.outer(v, v)
    return out


def toy_problem() -> ChanceProblem:
    """One decision, one uniform parameter, the quartic single-set instance."""
    x = Polynomial.coordinate(2, 0)
    q = Polynomial.coordinate(2, 1)
    s = x - 0.5
    p = 0.5 * q * (q**2 + s**2) - (q**4 + q**2 * s**2 + s**4)
    return ChanceProblem(
        name="toy", n=1, m=1, sets=((p,),),
        dist=DistributionSpec((Uniform(-1.0, 1.0),)),
        decision_box=((-1.0, 1.0),),
    )


def toy_feasible_region(x_val: float) -> list:
    """Intervals of q in [-1, 1] where the toy constraint holds at x_val.

    The constraint polynomial is quartic in q, so the region boundary comes
    from real root isolation; endpoints are polished by the factored form.
    """
    p = toy_problem().sets[0][0]
    coeffs = np.zeros(5)
    for (ex, eq), c in p.terms.items():
        coeffs[eq] += c * x_val**ex
    # numpy wants highest degree first
    roots = np.roots(coeffs[::-1])
    cuts = sorted({-1.0, 1.0} | {
        float(r.real) for r in roots
        if abs(r.imag) < 1e-9 and -1.0 <= r.real <= 1.0
    })
    intervals = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        mid = (lo + hi) / 2.0
        if np.polyval(coeffs[::-1], mid) >= 0.0:
            intervals.append((lo, hi))
    return intervals


def toy_restricted_moments(x_val: float, order: int) -> MomentVector:
    """Moments over q of the uniform law restricted to the toy feasible set."""
    vals = np.zeros(order + 1)
    for lo, hi in toy_feasible_region(x_val):
        for k in range(order + 1):
            vals[k] += (hi ** (k + 1) - lo ** (k + 1)) / (2.0 * (k + 1))
    return MomentVector(1, order, vals)


def toy_feasible_point(program, x_val: float) -> np.ndarray:
    """Build a genuinely measure-backed feasible vector for a toy chance program.

    The decision measure is the point mass at x_val; the joint measure is
    the product measure restricted to the constraint set.  All program
    blocks are then moment matrices of true measures, hence PSD.
    """
    info = program.meta
    prob = info.scaled.problem
    order = 2 * info.order
    restricted = toy_restricted_moments(x_val, order)

    # joint moments of (dirac at x) x (restricted uniform): value at (a, b)
    # is x^a times the restricted moment b
    joint = np.zeros(info.set_slices[0].stop - info.set_slices[0].start)
    for t, theta in enumerate(exponents(2, order)):
        joint[t] = x_val ** theta[0] * restricted.values[theta[1]]
    y_x = dirac_moments([x_val], order)

    if info.basis == CHEBYSHEV:
        joint = chebyshev_transform(2, order) @ joint
        y_x = dirac_moments([x_val], order, basis=CHEBYSHEV)

    vec = np.zeros(program.num_scalars)
    vec[info.set_slices[0]] = joint
    vec[info.yx_slice] = y_x.values
    return vec


def dirac_law_point(program, x) -> np.ndarray:
    """Vector of a single-set, monomial-basis chance program at decision x.

    The decision measure is the point mass at x (original coordinates); the
    joint measure is that point mass times the whole scaled distribution,
    not restricted to the set, so the set's localizers decide feasibility.
    Joint moments are built by definition, x^alpha * joint_moment(spec,
    beta), independent of the program's lift.
    """
    info = program.meta
    assert info.basis == "monomial" and len(info.set_slices) == 1
    prob = info.scaled.problem
    order = 2 * info.order
    dmap = info.scaled.decision_map
    x_scaled = (np.asarray(x, dtype=float) - dmap.offset) / dmap.half
    joint = np.array([
        np.prod(x_scaled ** np.array(theta[:prob.n]))
        * joint_moment(prob.dist, theta[prob.n:])
        for theta in exponents(prob.n + prob.m, order)
    ])
    vec = np.zeros(program.num_scalars)
    vec[info.set_slices[0]] = joint
    vec[info.yx_slice] = dirac_moments(x_scaled, order).values
    return vec


def reference_sample(spec: DistributionSpec, count: int, seed) -> np.ndarray:
    """Sampling oracle: one ``rng.uniform``/``rng.beta`` call per coordinate,
    in coordinate order, stacked as the columns of a row-major (count, m)
    array."""
    rng = np.random.default_rng(seed)
    cols = []
    for dist in spec.coords:
        if isinstance(dist, Uniform):
            cols.append(rng.uniform(dist.lo, dist.hi, size=count))
        else:
            assert isinstance(dist, Beta)
            cols.append(rng.beta(dist.alpha, dist.beta, size=count))
    return np.column_stack(cols)


def reference_membership(problem: ChanceProblem, x, draws) -> np.ndarray:
    """Union membership by evaluating every polynomial term by term.

    Independent of the compiled evaluator in ``chanceopt.mc``: each
    polynomial is evaluated with ``Polynomial.eval_many`` on the joint
    points (decision columns first), only on draws not yet counted.
    """
    points = np.empty((draws.shape[0], problem.n + problem.m))
    points[:, : problem.n] = x
    points[:, problem.n:] = draws
    member = np.zeros(draws.shape[0], dtype=bool)
    for s in problem.sets:
        inside = ~member          # only points not yet counted need checking
        for p in s:
            if not inside.any():
                break
            inside[inside] = p.eval_many(points[inside]) >= 0.0
        member |= inside
    return member


def reference_grid_search(problem: ChanceProblem, cfg) -> tuple:
    """Grid baseline as a plain loop over :func:`reference_sample` and
    :func:`reference_membership`.

    Same grid, per-point seeds and grevlex tie-break as
    ``chanceopt.mc.grid_search``.
    """
    axes = [np.linspace(lo, hi, cfg.grid_points) for lo, hi in problem.decision_box]
    best = None
    for flat, idx in enumerate(product(range(cfg.grid_points), repeat=problem.n)):
        x = np.array([axes[i][idx[i]] for i in range(problem.n)])
        draws = reference_sample(problem.dist, cfg.samples,
                                 np.random.SeedSequence([cfg.seed, flat]))
        est = float(np.mean(reference_membership(problem, x, draws)))
        if best is None or est > best[0] or (
                est == best[0] and grevlex_key(idx) < grevlex_key(best[1])):
            best = (est, idx, x)
    return best[2], best[0]


def planted_program(rng, num_scalars=None, block_dims=None):
    """Random conic program with a known strictly complementary optimum.

    Per block, a boundary matrix S (PSD, rank-deficient) and a dual
    certificate Z (PSD, complementary support, ranks adding to the
    dimension) are planted at a random interior point x*; the objective is
    the adjoint of Z, making (x*, Z) a KKT pair of
    min c.x  s.t.  sum x_i C_i - C_0 in PSD, x in [-1, 1]^S.

    Returns (program, x_star, optimal_value).
    """
    if num_scalars is None:
        num_scalars = int(rng.integers(6, 31))
    if block_dims is None:
        block_dims = [int(d) for d in rng.integers(2, 7, size=rng.integers(1, 4))]
    x_star = rng.uniform(-0.6, 0.6, num_scalars)

    blocks = []
    c = np.zeros(num_scalars)
    for bi, dim in enumerate(block_dims):
        basis_mats = rng.standard_normal((num_scalars, dim, dim))
        basis_mats = (basis_mats + basis_mats.transpose(0, 2, 1)) / 2.0

        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        rank_s = int(rng.integers(1, dim))        # strict complementarity:
        eig_s = np.zeros(dim)                     # rank(S) + rank(Z) = dim
        eig_s[:rank_s] = rng.uniform(0.5, 2.0, rank_s)
        eig_z = np.zeros(dim)
        eig_z[rank_s:] = rng.uniform(0.5, 2.0, dim - rank_s)
        s_mat = (q * eig_s) @ q.T
        z_mat = (q * eig_z) @ q.T

        constant = np.einsum("i,ijk->jk", x_star, basis_mats) - s_mat
        coeffs = to_sparse(
            np.stack([svec(basis_mats[i]) for i in range(num_scalars)], axis=1)
        )
        blocks.append(PsdBlock(dim=dim, label=f"planted[{bi}]",
                               coeffs=coeffs, constant=constant))
        c += np.array([float(np.sum(basis_mats[i] * z_mat))
                       for i in range(num_scalars)])

    simple = SimpleSet(
        lower=np.full(num_scalars, -1.0),
        upper=np.full(num_scalars, 1.0),
        pinned_idx=np.array([], dtype=int),
        pinned_val=np.array([]),
    )
    program = ConicProgram(objective=c, blocks=blocks, simple_set=simple)
    return program, x_star, float(c @ x_star)


def dual_bound(prog, z):
    """g(Z) = <Z, b> + sum_i min(r_i l_i, r_i u_i) with r = c - A^T Z.

    Every PSD Z gives a lower bound on min c.x over the program: the
    Lagrangian's PSD term is nonnegative and the box term is minimised
    coordinate by coordinate.  A coordinate with r_i = 0 adds 0, whatever
    its bounds, infinite ones included.
    """
    lo, hi = prog.simple_set.bounds
    r = prog.objective - to_dense(prog.operator).T @ z
    terms = r * 0.0      # 0, or NaN where r is
    up, down = r > 0, r < 0
    terms[up], terms[down] = r[up] * lo[up], r[down] * hi[down]
    return float(z @ prog.constants + terms.sum())
