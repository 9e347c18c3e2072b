"""Build the chance-optimization SDP hierarchy and its refinement programs.

Given a problem (decision box, union of polynomial-inequality sets over
decision and random variables, random-parameter distributions) and an
order d, the main builder emits a conic program over

* one joint moment block per set (mass being maximized),
* localizing blocks for every set polynomial plus an always-added ball
  certificate that makes the representation of each set satisfy the
  algebraic compactness condition required by the moment machinery, and
* a dominance block tying the summed set moments under the lift of the
  decision moments (pinned total mass, clamped coordinates) against the
  known random-parameter moments.

The decision moment matrix M_d(y_x) needs no block: the dominance rows
with q-exponent 0 have lift factor 1 (the law's mass; T_0 = 1), so they
hold M_d(y_x) minus a principal submatrix of every set's moment block,
and M_d(y_x) is PSD.  Its trace in the monomial basis, the expectation of
sum_{|alpha| <= d} x^(2 alpha), is added to the objective with a small
weight to steer the decision measure toward a point mass.  A Chebyshev
program takes the same expectation from its Chebyshev moments, so the two
bases give one relaxation and the basis changes only its conditioning.

The refinement builder fixes the decoded decision and re-estimates the
probability by a volume-style program over random-parameter measures
dominated by the known distribution, either maximizing plain mass
("indicator") or a mass weighted by the set polynomials evaluated at the
fixed decision ("product" / "single"), which trades the discontinuous
indicator for a continuous weight and converges faster in practice.

The refinement is the relaxation with the decision measure replaced by a
point mass, so both builders share one assembly.  ``_localized_sets``
prepends the ball certificate (fixing the decision for a refinement) and
checks every localizer against the order; ``_assemble`` emits the per-set
moment and localizing blocks, the dominance terms subtracting each set's
moments, the weighted-mass objective (plain mass is weight 1), the box
with pins and the ``ProgramMeta`` that ``decode`` reads from
``program.meta``.  The chance builder adds the lift of the decision
moments into the dominance block, the mass pin and the trace term; the
refinement builder adds the weights and the known law's moments.  Blocks
are written as moment terms; ``conic.PsdBlock.from_terms`` alone places
them in the svec layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .conic import ConicProgram, PsdBlock, SimpleSet
from .errors import DimensionError, ModelError, OrderError
from .measures import DistributionSpec, Uniform, lift_factors, moment_vector
from .moments import (
    MONOMIAL,
    _check_basis,
    basis_coeffs,
    localizing_block_terms,
    moment_block_terms,
    terms_matrix,
)
from .poly import (
    Polynomial,
    affine_substitutions,
    basis_size,
    encode_exponents,
    exponents,
    lookup_ranks,
)

REFINE_MODES = ("indicator", "product", "single")


@dataclass(frozen=True)
class ChanceProblem:
    """A chance-optimization instance in user coordinates.

    ``sets`` is the union structure: a point q is counted when, for at
    least one set, every polynomial of that set is nonnegative at (x, q).
    Polynomials live over n decision variables followed by m random ones.
    """

    name: str
    n: int
    m: int
    sets: tuple
    dist: DistributionSpec
    decision_box: tuple

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ModelError("need at least one decision and one random variable")
        sets = tuple(tuple(s) for s in self.sets)
        if not sets or any(len(s) == 0 for s in sets):
            raise ModelError("need at least one set with at least one polynomial")
        for k, s in enumerate(sets):
            for j, p in enumerate(s):
                if p.num_vars != self.n + self.m:
                    raise DimensionError(
                        f"set {k} polynomial {j} has {p.num_vars} variables, "
                        f"expected {self.n + self.m}"
                    )
                if not p.terms:
                    raise ModelError(f"set {k} polynomial {j} is identically zero",
                                     f"sets[{k}][{j}]")
        box = tuple((float(lo), float(hi)) for lo, hi in self.decision_box)
        if len(box) != self.n:
            raise DimensionError(f"decision box has {len(box)} entries, expected {self.n}")
        for i, (lo, hi) in enumerate(box):
            if not (lo < hi and math.isfinite(hi - lo)):
                raise ModelError(f"decision box entry {i} must be an interval of finite "
                                 f"width, got [{lo}, {hi}]", f"decision_box[{i}]")
        if self.dist.m != self.m:
            raise DimensionError(
                f"{self.dist.m} distribution entries for {self.m} random variables"
            )
        object.__setattr__(self, "sets", sets)
        object.__setattr__(self, "decision_box", box)

    @property
    def num_sets(self) -> int:
        return len(self.sets)


@dataclass(frozen=True)
class ScalingMap:
    """Affine map scaled -> original: x = offset + half * u, coordinatewise."""

    offset: np.ndarray
    half: np.ndarray

    def to_original(self, u):
        return self.offset + self.half * np.asarray(u, dtype=float)

    @property
    def is_identity(self) -> bool:
        return bool(np.all(self.offset == 0.0) and np.all(self.half == 1.0))


@dataclass(frozen=True)
class ScaledProblem:
    """A problem rewritten so the decision box is [-1,1]^n and random supports
    sit inside [-1,1]^m, along with the maps back to user coordinates."""

    problem: ChanceProblem
    original: ChanceProblem
    decision_map: ScalingMap
    random_map: ScalingMap


def scale_problem(p: ChanceProblem) -> ScaledProblem:
    """Affinely substitute coordinates so the standing assumptions hold.

    Decision coordinates are always mapped onto [-1,1].  Uniform random
    coordinates are mapped onto exactly [-1,1]; beta (support [0,1]) and
    explicit-moment coordinates are left alone, their supports already
    being inside [-1,1].
    """
    dec_off = np.array([(lo + hi) / 2.0 for lo, hi in p.decision_box])
    dec_half = np.array([(hi - lo) / 2.0 for lo, hi in p.decision_box])

    rnd_off = np.zeros(p.m)
    rnd_half = np.ones(p.m)
    new_coords = []
    for i, dist in enumerate(p.dist.coords):
        if isinstance(dist, Uniform) and (dist.lo, dist.hi) != (-1.0, 1.0):
            rnd_off[i] = (dist.lo + dist.hi) / 2.0
            rnd_half[i] = (dist.hi - dist.lo) / 2.0
            new_coords.append(Uniform(-1.0, 1.0))
        else:
            new_coords.append(dist)

    dmap = ScalingMap(dec_off, dec_half)
    rmap = ScalingMap(rnd_off, rnd_half)
    if dmap.is_identity and rmap.is_identity:
        return ScaledProblem(p, p, dmap, rmap)

    subs = affine_substitutions(
        np.concatenate([dec_off, rnd_off]), np.concatenate([dec_half, rnd_half])
    )
    new_sets = tuple(tuple(poly.compose(subs) for poly in s) for s in p.sets)
    scaled = ChanceProblem(
        name=p.name,
        n=p.n,
        m=p.m,
        sets=new_sets,
        dist=DistributionSpec(tuple(new_coords)),
        decision_box=tuple((-1.0, 1.0) for _ in range(p.n)),
    )
    return ScaledProblem(scaled, p, dmap, rmap)


def add_ball_certificate(set_polys: Sequence[Polynomial], n: int, m: int) -> tuple:
    """Prepend (n + m) - |x|^2 - |q|^2, nonnegative on the scaled box.

    With this polynomial in the description, the set's representation
    certifies compactness algebraically, which the moment machinery needs.
    """
    nm = n + m
    terms = {(0,) * nm: float(nm)}
    for i in range(nm):
        e = [0] * nm
        e[i] = 2
        terms[tuple(e)] = -1.0
    ball = Polynomial(nm, terms)
    return (ball,) + tuple(set_polys)


def _localizer_order(p: Polynomial) -> int:
    return math.ceil(p.degree / 2)


def min_relaxation_order(p: ChanceProblem) -> int:
    """Smallest order for which every localizing block is well defined."""
    r = 1  # the ball certificate has degree 2
    for s in p.sets:
        for poly in s:
            r = max(r, _localizer_order(poly))
    return r


def _as_scaled(p) -> ScaledProblem:
    return p if isinstance(p, ScaledProblem) else scale_problem(p)


@dataclass
class ProgramMeta:
    """Decode bookkeeping attached to every built program."""

    kind: str
    order: int
    basis: str
    scaled: ScaledProblem
    set_slices: list
    yx_slice: Optional[slice] = None


def _localized_sets(prob: ChanceProblem, order: int, x_scaled=None) -> list:
    """Each set with the ball certificate first, the decision fixed at
    ``x_scaled`` when given; every localizing block must fit ``order``."""
    n = prob.n
    sets = [add_ball_certificate(s, n, prob.m) for s in prob.sets]
    fixed = ""
    if x_scaled is not None:
        sets = [tuple(substitute_decision(p, n, x_scaled) for p in s) for s in sets]
        fixed = " after fixing the decision"
    need = max(_localizer_order(p) for s in sets for p in s)
    for k, s in enumerate(sets):
        for j, p in enumerate(s):
            if _localizer_order(p) > order:
                what = f"polynomial {j - 1}" if j else "ball certificate"
                raise OrderError(f"set {k} {what} has degree {p.degree}{fixed}; "
                                 f"the minimum relaxation order is {need}")
    return sets


def _assemble(kind: str, scaled: ScaledProblem, sets: list, order: int, basis: str,
              weights: Optional[list] = None, yx_slice: Optional[slice] = None,
              lift=None, law: Optional[np.ndarray] = None) -> ConicProgram:
    """The part both programs share: one measure per set, dominated jointly.

    Set k's moment vector (its variables are those of ``sets``) occupies
    the k-th slice of the scalars.  It gets a moment block, a localizing
    block per polynomial that has not vanished, and enters the objective
    as its mass weighted by ``weights[k]`` (plain mass when omitted).  The
    dominance block subtracts every set's moments from the law's: a
    constant ``law`` moment vector, or the ``lift`` (scalar index, factor)
    of decision moments placed at ``yx_slice``, whose mass is pinned to 1.
    """
    num_vars = sets[0][0].num_vars
    if weights is None:
        weights = [Polynomial.constant(num_vars, 1.0)] * len(sets)
    for k, w in enumerate(weights):
        if w.degree > 2 * order:
            raise OrderError(
                f"weight polynomial of set {k} has degree {w.degree} > {2 * order}; "
                f"increase the order or use indicator mode"
            )

    s_set = basis_size(num_vars, 2 * order)
    set_slices = [slice(k * s_set, (k + 1) * s_set) for k in range(len(sets))]
    num_scalars = yx_slice.stop if yx_slice else len(sets) * s_set

    blocks = []
    mom_terms = moment_block_terms(num_vars, order, basis)
    mom_rows, mom_cols, mom_ranks, mom_coefs = mom_terms
    dim = basis_size(num_vars, order)
    for k, polys in enumerate(sets):
        off = set_slices[k].start
        blocks.append(PsdBlock.from_terms(
            dim, f"moment[{k}]", num_scalars,
            [(mom_rows, mom_cols, off + mom_ranks, mom_coefs)],
        ))
        for j, p in enumerate(polys):
            if not p.terms:
                continue    # vanished at the fixed decision: 0 >= 0 is vacuous
            dloc = order - _localizer_order(p)
            lr, lc, lranks, lcoefs = localizing_block_terms(p, dloc, basis)
            blocks.append(PsdBlock.from_terms(
                basis_size(num_vars, dloc), f"localizer[{k},{j}]", num_scalars,
                [(lr, lc, off + lranks, lcoefs)],
            ))

    groups = [(mom_rows, mom_cols, sl.start + mom_ranks, -mom_coefs) for sl in set_slices]
    if lift is not None:
        lift_idx, lift_fac = lift
        groups.insert(0, (mom_rows, mom_cols, lift_idx[mom_ranks],
                          mom_coefs * lift_fac[mom_ranks]))
    constant = None if law is None else -terms_matrix(mom_terms, law, dim)
    blocks.append(PsdBlock.from_terms(dim, "dominance", num_scalars, groups,
                                      constant=constant))

    objective = np.zeros(num_scalars)
    for sl, w in zip(set_slices, weights):
        ranks, values = _expectation(w, order, basis)
        objective[sl.start + ranks] -= values

    pinned = [] if yx_slice is None else [yx_slice.start]
    simple = SimpleSet(
        lower=np.full(num_scalars, -1.0),
        upper=np.full(num_scalars, 1.0),
        pinned_idx=np.array(pinned, dtype=int),
        pinned_val=np.ones(len(pinned)),
    )
    meta = ProgramMeta(kind=kind, order=order, basis=basis, scaled=scaled,
                       set_slices=set_slices, yx_slice=yx_slice)
    return ConicProgram(objective=objective, blocks=blocks, simple_set=simple, meta=meta)


def _expectation(p: Polynomial, order: int, basis: str) -> tuple[np.ndarray, np.ndarray]:
    """(ranks, weights) that take E[p] from a degree-2*order moment vector in ``basis``."""
    coeffs = basis_coeffs(p, basis)
    gammas = np.array(list(coeffs), dtype=np.int64).reshape(len(coeffs), p.num_vars)
    ranks = lookup_ranks(encode_exponents(gammas, 2 * order + 1), p.num_vars, 2 * order)
    return ranks, np.fromiter(coeffs.values(), float, len(coeffs))


def build_chance_sdp(problem, order: int, omega_r: float = 0.01,
                     basis: str = MONOMIAL) -> ConicProgram:
    """Emit the order-d conic relaxation of a chance problem.

    Scalar variables are the per-set joint moment vectors followed by the
    decision moment vector, all truncated at total degree 2*order.  The
    objective (minimization sense) is omega_r times the trace of M_d(y_x)
    in monomials, E[sum_{|alpha| <= d} x^(2 alpha)] in either basis, minus
    the total set mass; M_d(y_x) has no block of its own, since the
    dominance and set blocks imply it is PSD.
    """
    _check_basis(basis)
    if not math.isfinite(omega_r):
        raise ValueError("omega_r must be finite")
    if omega_r < 0:
        raise ValueError("omega_r must be nonnegative")
    scaled = _as_scaled(problem)
    prob = scaled.problem
    n = prob.n
    sets = _localized_sets(prob, order)

    yx_off = prob.num_sets * basis_size(n + prob.m, 2 * order)
    yx_slice = slice(yx_off, yx_off + basis_size(n, 2 * order))
    x_rank, q_fac = lift_factors(n, prob.dist, 2 * order, basis)
    program = _assemble("chance", scaled, sets, order, basis, yx_slice=yx_slice,
                        lift=(yx_off + x_rank, q_fac))
    trace = Polynomial(n, {tuple(2 * e for e in alpha): 1.0 for alpha in exponents(n, order)})
    ranks, values = _expectation(trace, order, basis)
    program.objective[yx_off + ranks] += omega_r * values
    return program


def substitute_decision(p: Polynomial, n: int, x: Sequence[float]) -> Polynomial:
    """Partially evaluate the first n variables at x, leaving the rest free."""
    m = p.num_vars - n
    if m < 1:
        raise DimensionError("no random variables left after substitution")
    if len(x) != n:
        raise DimensionError(f"{len(x)} values for {n} decision variables")
    subs = [Polynomial.constant(m, float(v)) for v in x]
    subs += [Polynomial.coordinate(m, j) for j in range(m)]
    return p.compose(subs)


def build_refinement_sdp(problem, x_scaled: Sequence[float], order: int,
                         mode: str = "indicator", weight_index: Optional[int] = None,
                         basis: str = MONOMIAL) -> ConicProgram:
    """Fixed-decision volume program sharpening the probability estimate.

    Variables are per-set moment vectors of measures on the random
    parameters, jointly dominated by the known distribution.  ``indicator``
    maximizes total mass; ``product`` maximizes mass weighted by the
    product of each set's own polynomials at the fixed decision;
    ``single`` uses just one polynomial (0-based ``weight_index``).
    """
    _check_basis(basis)
    if mode not in REFINE_MODES:
        raise ValueError(f"mode must be one of {REFINE_MODES}, got {mode!r}")
    if mode == "single" and weight_index is None:
        raise ValueError("mode 'single' needs weight_index")
    scaled = _as_scaled(problem)
    prob = scaled.problem
    n = prob.n
    x_scaled = np.asarray(x_scaled, dtype=float)
    if x_scaled.shape != (n,):
        raise DimensionError(f"decision point has shape {x_scaled.shape}, expected ({n},)")
    if not np.isfinite(x_scaled).all():
        raise ModelError("decision point is not finite")
    if np.any(np.abs(x_scaled) > 1.0 + 1e-9):
        raise ModelError("decision point lies outside the scaled box [-1,1]^n")
    if mode == "single":
        for k, s in enumerate(prob.sets):
            if not 0 <= weight_index < len(s):
                raise ValueError(
                    f"weight_index {weight_index} out of range for set {k} "
                    f"with {len(s)} polynomials"
                )
    sets = _localized_sets(prob, order, x_scaled)

    # the weights multiply the user's polynomials, after the ball certificate
    weights = None
    if mode == "product":
        weights = [math.prod(s[1:], start=Polynomial.constant(prob.m, 1.0)) for s in sets]
    elif mode == "single":
        weights = [s[1 + weight_index] for s in sets]
    law = moment_vector(prob.dist, 2 * order, basis).values
    return _assemble("refinement", scaled, sets, order, basis, weights=weights, law=law)


@dataclass
class DecodedSolution:
    """Solver output of a chance program mapped back to user coordinates."""

    x: np.ndarray              # decision estimate, original coordinates
    x_scaled: np.ndarray
    probability: float         # total mass of the set measures
    y_x: np.ndarray            # decision moment vector (program basis)


@dataclass
class RefinementDecode:
    mass: float                # summed zeroth moments: the probability estimate


def decode(program: ConicProgram, solution: np.ndarray):
    """Interpret a solver point for a program built by this module."""
    info: ProgramMeta = program.meta
    solution = np.asarray(solution, dtype=float)
    if solution.shape != (program.num_scalars,):
        raise DimensionError(
            f"solution has shape {solution.shape}, expected ({program.num_scalars},)"
        )
    mass = float(sum(solution[s.start] for s in info.set_slices))
    if info.kind == "refinement":
        return RefinementDecode(mass=mass)
    y_x = solution[info.yx_slice]
    x_scaled = np.clip(y_x[1: info.scaled.problem.n + 1], -1.0, 1.0)
    return DecodedSolution(
        x=info.scaled.decision_map.to_original(x_scaled), x_scaled=x_scaled,
        probability=mass, y_x=y_x.copy(),
    )
