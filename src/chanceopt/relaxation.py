"""Build the chance-optimization SDP hierarchy and its refinement programs.

Given a problem (decision box, union of polynomial-inequality sets over
decision and random variables, random-parameter distributions) and an
order d, the main builder emits a conic program over

* one joint moment block per set (mass being maximized),
* the decision moment block (pinned total mass, clamped coordinates),
* localizing blocks for every set polynomial plus an always-added ball
  certificate that makes the representation of each set satisfy the
  algebraic compactness condition required by the moment machinery, and
* a dominance block tying the summed set moments under the lift of the
  decision moments against the known random-parameter moments.

The trace of the decision moment block is added to the objective with a
small weight to steer the decision measure toward a point mass.

The refinement builder fixes the decoded decision and re-estimates the
probability by a volume-style program over random-parameter measures
dominated by the known distribution, either maximizing plain mass
("indicator") or a mass weighted by the set polynomials evaluated at the
fixed decision ("product" / "single"), which trades the discontinuous
indicator for a continuous weight and converges faster in practice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .conic import ConicProgram, PsdBlock, SimpleSet
from .errors import DimensionError, ModelError, OrderError
from .measures import DistributionSpec, Uniform, lift_factors, moment_vector
from .moments import (
    MONOMIAL,
    _check_basis,
    localizing_block_terms,
    moment_block_terms,
    monomial_rank,
    poly_cheb_coeffs,
    terms_matrix,
    trace_functional,
)
from .poly import Polynomial, affine_substitutions, basis_size

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
                    raise ModelError(
                        f"set {k} polynomial {j} is identically zero"
                    )
        box = tuple((float(lo), float(hi)) for lo, hi in self.decision_box)
        if len(box) != self.n:
            raise DimensionError(f"decision box has {len(box)} entries, expected {self.n}")
        for i, (lo, hi) in enumerate(box):
            if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                raise ModelError(f"decision box entry {i} must be a finite interval, "
                                 f"got [{lo}, {hi}]")
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

    def to_scaled(self, x):
        return (np.asarray(x, dtype=float) - self.offset) / self.half

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
    name: str
    order: int
    basis: str
    scaled: ScaledProblem
    set_slices: list
    yx_slice: Optional[slice] = None
    omega_r: float = 0.0
    mode: str = ""
    weight_index: Optional[int] = None
    x_scaled: Optional[np.ndarray] = None


def _svec_row_index(dim: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    # row-major upper triangle: entries before row i, plus offset in the row
    return rows * dim - (rows * (rows - 1)) // 2 + (cols - rows)


def _block_from_terms(dim: int, label: str, num_scalars: int, groups,
                      constant: Optional[np.ndarray] = None) -> PsdBlock:
    """Assemble a PSD block from (rows, cols, scalar_idx, values) groups.

    Values are matrix-entry coefficients for entries with rows <= cols;
    the svec sqrt(2) scaling is applied here.  Duplicate triples add up.
    """
    parts_r, parts_c, parts_v = [], [], []
    for rows, cols, scalars, vals in groups:
        sidx = _svec_row_index(dim, rows, cols)
        scale = np.where(rows == cols, 1.0, np.sqrt(2.0))
        parts_r.append(sidx)
        parts_c.append(scalars)
        parts_v.append(vals * scale)
    tri = dim * (dim + 1) // 2
    coeffs = sp.coo_matrix(
        (np.concatenate(parts_v), (np.concatenate(parts_r), np.concatenate(parts_c))),
        shape=(tri, num_scalars),
    ).tocsr()
    if constant is None:
        constant = np.zeros((dim, dim))
    return PsdBlock(dim=dim, label=label, coeffs=coeffs, constant=constant)


def build_chance_sdp(problem, order: int, omega_r: float = 0.01,
                     basis: str = MONOMIAL) -> ConicProgram:
    """Emit the order-d conic relaxation of a chance problem.

    Scalar variables are the per-set joint moment vectors followed by the
    decision moment vector, all truncated at total degree 2*order.  The
    objective (minimization sense) is omega_r times the trace of the
    decision moment block minus the total set mass.
    """
    _check_basis(basis)
    if omega_r < 0:
        raise ValueError("omega_r must be nonnegative")
    scaled = _as_scaled(problem)
    prob = scaled.problem
    n, m, nm = prob.n, prob.m, prob.n + prob.m

    sets_b = [add_ball_certificate(s, n, m) for s in prob.sets]
    d_min = min_relaxation_order(prob)
    if order < d_min:
        for k, s in enumerate(prob.sets):
            for j, poly in enumerate(s):
                if _localizer_order(poly) > order:
                    raise OrderError(
                        f"set {k} polynomial {j} has degree {poly.degree}; "
                        f"the minimum relaxation order for this problem is {d_min}"
                    )
        raise OrderError(f"the minimum relaxation order for this problem is {d_min}")

    s_joint = basis_size(nm, 2 * order)
    s_dec = basis_size(n, 2 * order)
    num_sets = prob.num_sets
    num_scalars = num_sets * s_joint + s_dec
    yx_off = num_sets * s_joint
    set_slices = [slice(k * s_joint, (k + 1) * s_joint) for k in range(num_sets)]

    blocks = []
    mom_rows, mom_cols, mom_ranks, mom_coefs = moment_block_terms(nm, order, basis)
    dim_joint = basis_size(nm, order)
    for k in range(num_sets):
        off = k * s_joint
        blocks.append(_block_from_terms(
            dim_joint, f"moment[{k}]", num_scalars,
            [(mom_rows, mom_cols, off + mom_ranks, mom_coefs)],
        ))
        for j, poly in enumerate(sets_b[k]):
            dloc = order - _localizer_order(poly)
            lr, lc, lranks, lcoefs = localizing_block_terms(poly, dloc, basis)
            blocks.append(_block_from_terms(
                basis_size(nm, dloc), f"localizer[{k},{j}]", num_scalars,
                [(lr, lc, off + lranks, lcoefs)],
            ))

    xr, xc, xranks, xcoefs = moment_block_terms(n, order, basis)
    blocks.append(_block_from_terms(
        basis_size(n, order), "decision_moment", num_scalars,
        [(xr, xc, yx_off + xranks, xcoefs)],
    ))

    # dominance: lift of decision moments minus the summed set moments
    x_rank, q_fac = lift_factors(n, prob.dist, 2 * order, basis)
    groups = [(mom_rows, mom_cols, yx_off + x_rank[mom_ranks], mom_coefs * q_fac[mom_ranks])]
    for k in range(num_sets):
        off = k * s_joint
        groups.append((mom_rows, mom_cols, off + mom_ranks, -mom_coefs))
    blocks.append(_block_from_terms(dim_joint, "dominance", num_scalars, groups))

    objective = np.zeros(num_scalars)
    for k in range(num_sets):
        objective[k * s_joint] -= 1.0
    if omega_r:
        for rank, w in trace_functional(n, order, basis).items():
            objective[yx_off + rank] += omega_r * w

    simple = SimpleSet(
        lower=np.full(num_scalars, -1.0),
        upper=np.full(num_scalars, 1.0),
        pinned_idx=np.array([yx_off], dtype=int),
        pinned_val=np.array([1.0]),
    )
    meta = ProgramMeta(
        kind="chance", name=prob.name, order=order, basis=basis, scaled=scaled,
        set_slices=set_slices, yx_slice=slice(yx_off, yx_off + s_dec), omega_r=omega_r,
    )
    return ConicProgram(objective=objective, blocks=blocks, simple_set=simple,
                        meta={"info": meta})


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
    n, m = prob.n, prob.m
    x_scaled = np.asarray(x_scaled, dtype=float)
    if x_scaled.shape != (n,):
        raise DimensionError(f"decision point has shape {x_scaled.shape}, expected ({n},)")
    if np.any(np.abs(x_scaled) > 1.0 + 1e-9):
        raise ModelError("decision point lies outside the scaled box [-1,1]^n")

    sub_sets = []       # ball certificate first, then the user's polynomials
    weights = []
    for k, s in enumerate(prob.sets):
        with_ball = add_ball_certificate(s, n, m)
        subbed = tuple(substitute_decision(p, n, x_scaled) for p in with_ball)
        sub_sets.append(subbed)
        if mode == "product":
            w = Polynomial.constant(m, 1.0)
            for p in subbed[1:]:
                w = w * p
        elif mode == "single":
            user_polys = subbed[1:]
            if not 0 <= weight_index < len(user_polys):
                raise ValueError(
                    f"weight_index {weight_index} out of range for set {k} "
                    f"with {len(user_polys)} polynomials"
                )
            w = user_polys[weight_index]
        else:
            w = None
        weights.append(w)

    if order < 1:
        raise OrderError("refinement order must be at least 1")
    for k, subbed in enumerate(sub_sets):
        for j, p in enumerate(subbed):
            if _localizer_order(p) > order:
                raise OrderError(
                    f"set {k} polynomial {j} has degree {p.degree} after fixing "
                    f"the decision; needs order >= {_localizer_order(p)}"
                )
    if mode != "indicator":
        for k, w in enumerate(weights):
            if w.degree > 2 * order:
                raise OrderError(
                    f"weight polynomial of set {k} has degree {w.degree} > {2 * order}; "
                    f"increase the order or use indicator mode"
                )

    s_q = basis_size(m, 2 * order)
    num_sets = prob.num_sets
    num_scalars = num_sets * s_q
    set_slices = [slice(k * s_q, (k + 1) * s_q) for k in range(num_sets)]

    blocks = []
    mom_terms = moment_block_terms(m, order, basis)
    mom_rows, mom_cols, mom_ranks, mom_coefs = mom_terms
    dim_q = basis_size(m, order)
    for k in range(num_sets):
        off = k * s_q
        blocks.append(_block_from_terms(
            dim_q, f"moment[{k}]", num_scalars,
            [(mom_rows, mom_cols, off + mom_ranks, mom_coefs)],
        ))
        for j, p in enumerate(sub_sets[k]):
            if not p.terms:
                continue    # vanished at the fixed decision: 0 >= 0 is vacuous
            dloc = order - _localizer_order(p)
            lr, lc, lranks, lcoefs = localizing_block_terms(p, dloc, basis)
            blocks.append(_block_from_terms(
                basis_size(m, dloc), f"localizer[{k},{j}]", num_scalars,
                [(lr, lc, off + lranks, lcoefs)],
            ))

    # dominance against the known random-parameter moments
    y_q = moment_vector(prob.dist, 2 * order, basis)
    dom_const = terms_matrix(mom_terms, y_q.values, dim_q)
    groups = [(mom_rows, mom_cols, k * s_q + mom_ranks, -mom_coefs)
              for k in range(num_sets)]
    blocks.append(_block_from_terms(dim_q, "dominance", num_scalars, groups,
                                    constant=-dom_const))

    objective = np.zeros(num_scalars)
    for k in range(num_sets):
        if mode == "indicator":
            objective[k * s_q] -= 1.0
        else:
            w = weights[k]
            coeff_map = (w.terms if basis == MONOMIAL else poly_cheb_coeffs(w))
            for gamma, coef in coeff_map.items():
                objective[k * s_q + monomial_rank(gamma)] -= coef

    simple = SimpleSet(
        lower=np.full(num_scalars, -1.0),
        upper=np.full(num_scalars, 1.0),
        pinned_idx=np.array([], dtype=int),
        pinned_val=np.array([]),
    )
    meta = ProgramMeta(
        kind="refinement", name=prob.name, order=order, basis=basis, scaled=scaled,
        set_slices=set_slices, mode=mode, weight_index=weight_index,
        x_scaled=x_scaled.copy(),
    )
    return ConicProgram(objective=objective, blocks=blocks, simple_set=simple,
                        meta={"info": meta})


@dataclass
class DecodedSolution:
    """Solver output of a chance program mapped back to user coordinates."""

    x: np.ndarray              # decision estimate, original coordinates
    x_scaled: np.ndarray
    probability: float         # total mass of the set measures
    y_x: np.ndarray            # decision moment vector (program basis)
    y_sets: list
    residuals: dict            # block label -> max(0, -min eigenvalue)
    objective: float
    order: int
    basis: str


@dataclass
class RefinementDecode:
    mass: float                # summed zeroth moments: the probability estimate
    objective: float           # the maximized objective value
    y_sets: list
    residuals: dict
    mode: str
    order: int
    basis: str


def _residuals(program: ConicProgram, x: np.ndarray) -> dict:
    out = {}
    for blk, mat in zip(program.blocks, program.block_values(x)):
        mn = float(np.linalg.eigvalsh(mat)[0])
        out[blk.label] = max(0.0, -mn)
    return out


def decode(program: ConicProgram, solution: np.ndarray):
    """Interpret a solver point for a program built by this module."""
    info: ProgramMeta = program.meta["info"]
    solution = np.asarray(solution, dtype=float)
    if solution.shape != (program.num_scalars,):
        raise DimensionError(
            f"solution has shape {solution.shape}, expected ({program.num_scalars},)"
        )
    if info.kind == "chance":
        prob = info.scaled.problem
        y_x = solution[info.yx_slice]
        x_scaled = np.clip(y_x[1: prob.n + 1], -1.0, 1.0)
        x = info.scaled.decision_map.to_original(x_scaled)
        y_sets = [solution[s].copy() for s in info.set_slices]
        probability = float(sum(ys[0] for ys in y_sets))
        return DecodedSolution(
            x=x, x_scaled=x_scaled, probability=probability, y_x=y_x.copy(),
            y_sets=y_sets, residuals=_residuals(program, solution),
            objective=float(program.objective @ solution),
            order=info.order, basis=info.basis,
        )
    y_sets = [solution[s].copy() for s in info.set_slices]
    return RefinementDecode(
        mass=float(sum(ys[0] for ys in y_sets)),
        objective=float(-(program.objective @ solution)),
        y_sets=y_sets, residuals=_residuals(program, solution),
        mode=info.mode, order=info.order, basis=info.basis,
    )
