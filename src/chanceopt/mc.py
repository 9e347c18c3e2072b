"""Monte Carlo probability estimation and grid-search baseline.

For a fixed decision, the probability of the union is estimated by the
fraction of random-parameter draws that land in at least one set (a draw
in several sets counts once); membership is non-strict, so boundary
points count as inside.  The grid search evaluates that estimator on a
uniform grid over the decision box with a fixed sample budget per point
and per-point derived seeds, so results do not depend on evaluation
order.

Membership is decided by a :class:`UnionEvaluator`, compiled once per
problem.  Its term table stacks every polynomial of every set, set by set,
into P rows and splits each term's exponent into a decision part and a
random-variable part; the distinct random-variable parts are the K
monomials the draws are evaluated on.  For a decision ``x`` the table
folds into a (P, K) coefficient matrix ``C`` (each term contributes
``coef * x**alpha`` to its row and monomial).  For a block of draws each
monomial row of ``M`` is the product of its factors, read in place from
the coordinate-major draws of ``sample``, and one ``C @ M`` evaluates
all P polynomials; a draw is inside a set when all of the set's rows (a
contiguous range) are ``>= 0``, and inside the union when it is inside
any set.  The estimate is the count of draws inside over the number of
draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np

from .errors import DimensionError, ModelError, ResourceError
from .measures import sample
from .poly import grevlex_key
from .relaxation import ChanceProblem

_GRID_GUARD = 10**7

# Draws per evaluation block.  The block buffers belong to the evaluator and
# are reused by every block and every call, so a grid point touches no fresh
# pages.
_BLOCK = 4096


@dataclass(frozen=True)
class McConfig:
    samples: int = 100_000
    grid_points: int = 41
    seed: int | np.random.SeedSequence = 0

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be at least 1")
        if self.grid_points < 1:
            raise ValueError("grid_points must be at least 1")
        if isinstance(self.seed, int) and self.seed < 0:
            raise ValueError("seed must be nonnegative")


class UnionEvaluator:
    """Union membership of random draws at a decision, compiled per problem.

    The block work buffers belong to the instance and are reused by every
    call, so one instance must not be shared between threads.
    """

    def __init__(self, problem: ChanceProblem):
        n = problem.n
        polys = [p for s in problem.sets for p in s]
        sizes = [len(s) for s in problem.sets]
        ends = np.cumsum(sizes, dtype=int)
        self._set_rows = list(zip(ends - sizes, ends))
        terms = [(row, alpha, coef) for row, p in enumerate(polys)
                 for alpha, coef in p.terms.items()]
        monomials = sorted({alpha[n:] for _, alpha, _ in terms}, key=grevlex_key)
        column = {beta: k for k, beta in enumerate(monomials)}
        self.shape = (len(polys), len(monomials))
        self._coefs = np.array([coef for _, _, coef in terms], dtype=float)
        self._x_exps = np.array([alpha[:n] for _, alpha, _ in terms],
                                dtype=np.int64).reshape(len(terms), n)
        self._slots = np.array(
            [row * len(monomials) + column[alpha[n:]] for row, alpha, _ in terms],
            dtype=np.intp)
        self._factors = [[(j, e) for j, e in enumerate(beta) if e] for beta in monomials]
        self._mono = np.empty((len(monomials), _BLOCK))
        self._values = np.empty((len(polys), _BLOCK))
        self._nonneg = np.empty((len(polys), _BLOCK), dtype=bool)
        self._inside = np.empty(_BLOCK, dtype=bool)

    def coefficients(self, x: np.ndarray) -> np.ndarray:
        """The (P, K) matrix of the polynomials with the decision folded in."""
        weights = self._coefs * np.prod(x ** self._x_exps, axis=1)
        return np.bincount(self._slots, weights=weights,
                           minlength=self.shape[0] * self.shape[1]).reshape(self.shape)

    def membership(self, x: np.ndarray, draws: np.ndarray) -> np.ndarray:
        """Boolean array: which rows of ``draws`` lie in the union at ``x``.

        ``draws`` is read in blocks of columns of ``draws.T``, without a
        copy; the transposed view that :func:`~chanceopt.measures.sample`
        returns makes each coordinate's block contiguous.  A monomial row is
        the product of its factors in coordinate order, left to right: a
        first factor of power 1 times the second in one ``np.multiply``
        (or copied when it is the only one), any other first factor raised
        by ``np.power``, then each later factor multiplied in place.
        """
        coef = self.coefficients(x)
        member = np.empty(draws.shape[0], dtype=bool)
        for start in range(0, draws.shape[0], _BLOCK):
            q = draws[start:start + _BLOCK].T
            width = q.shape[1]
            mono = self._mono[:, :width]
            nonneg = self._nonneg[:, :width]
            inside = self._inside[:width]
            for row, factors in zip(mono, self._factors):
                if not factors:             # the constant monomial
                    row.fill(1.0)
                    continue
                (j, e), rest = factors[0], factors[1:]
                if e != 1:
                    np.power(q[j], e, out=row)
                elif rest:                  # the first two factors in one pass
                    (k, f), rest = rest[0], rest[1:]
                    np.multiply(q[j], q[k] if f == 1 else q[k] ** f, out=row)
                else:
                    np.copyto(row, q[j])
                for j, e in rest:
                    row *= q[j] if e == 1 else q[j] ** e
            values = np.matmul(coef, mono, out=self._values[:, :width])
            np.greater_equal(values, 0.0, out=nonneg)
            hit = member[start:start + width]
            hit.fill(False)
            for lo, hi in self._set_rows:
                np.logical_and.reduce(nonneg[lo:hi], axis=0, out=inside)
                hit |= inside
        return member


def estimate_probability(problem: ChanceProblem, x: Sequence[float],
                         cfg: McConfig) -> tuple[float, float]:
    """Estimate the union probability at decision ``x``.

    Returns the sample mean and the binomial 3-sigma half width.
    Deterministic for a fixed seed.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.n,):
        raise DimensionError(f"decision has shape {x.shape}, expected ({problem.n},)")
    if len(bad := np.flatnonzero(~np.isfinite(x))):
        raise ModelError(f"decision entry {bad[0]} is {x[bad[0]]}, not finite")
    draws = sample(problem.dist, cfg.samples, cfg.seed)
    member = UnionEvaluator(problem).membership(x, draws)
    est = float(np.count_nonzero(member) / cfg.samples)
    half = 3.0 * float(np.sqrt(est * (1.0 - est) / cfg.samples))
    return est, half


def grid_search(problem: ChanceProblem, cfg: McConfig) -> tuple[np.ndarray, float]:
    """Exhaustive baseline: best grid point of the decision box.

    Ties are broken toward the lowest grid index in graded reverse
    lexicographic order, making the result deterministic.
    """
    total = cfg.grid_points**problem.n
    if total > _GRID_GUARD:
        raise ResourceError(
            f"{cfg.grid_points}^{problem.n} = {total} grid evaluations exceed "
            f"the {_GRID_GUARD} guard; use a coarser grid"
        )
    axes = [np.linspace(lo, hi, cfg.grid_points) for lo, hi in problem.decision_box]
    evaluator = UnionEvaluator(problem)

    best_est = -1.0
    best_idx = None
    best_x = None
    for flat, idx in enumerate(product(range(cfg.grid_points), repeat=problem.n)):
        x = np.array([axes[i][idx[i]] for i in range(problem.n)])
        # per-point derived seed: independent of evaluation order, no
        # up-front allocation for huge grids
        draws = sample(problem.dist, cfg.samples,
                       np.random.SeedSequence([cfg.seed, flat]))
        est = float(np.count_nonzero(evaluator.membership(x, draws)) / cfg.samples)
        if est > best_est or (est == best_est and grevlex_key(idx) < grevlex_key(best_idx)):
            best_est, best_idx, best_x = est, idx, x
    return best_x, best_est
