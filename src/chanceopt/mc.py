"""Monte Carlo probability estimation and grid-search baseline.

For a fixed decision, the probability of the union is estimated by the
fraction of random-parameter draws that land in at least one set (a draw
in several sets counts once); membership is non-strict, so boundary
points count as inside.  The grid search evaluates that estimator on a
uniform grid over the decision box with a fixed sample budget per point
and per-point derived seeds, so results do not depend on evaluation
order: the points are split into contiguous ranges, one per usable CPU,
evaluated by forked children into one shared array where the platform
can fork and in-process elsewhere, with identical results.

Membership is decided by a :class:`UnionEvaluator`, compiled once per
problem.  Its term table stacks every polynomial of every set, set by set,
into P rows and splits each term's exponent into a decision part and a
random-variable part; the distinct random-variable parts are the K
monomials the draws are evaluated on.  For a decision ``x`` the table
folds into a (P, K) coefficient matrix ``C`` (each term contributes
``coef * x**alpha`` to its row and monomial).  For a block of draws each
monomial row of ``M`` multiplies its factors, read in place from the
coordinate-major draws of ``sample_blocks``, a power being its coordinate
repeated (``q1**2 * q3`` is ``q1 * q1 * q3``), and one ``C @ M``
evaluates all P polynomials; a draw is inside a set when all of the
set's rows (a contiguous range) are ``>= 0``, and inside the union when
it is inside any set.  The estimate is the count of draws inside over
the number of draws.

The estimator and the grid search stream their draws from
``sample_blocks`` one block of ``_BLOCK`` draws at a time, so an estimate
holds O(m x 4,096) draws whatever its sample count, and a decision is
folded into ``C`` once per estimate, not once per block.  The grid search
stops drawing for a point as soon as the point can no longer win: once its
draws inside plus its draws left fall below the most draws inside of any
point evaluated in full.  Such a point can neither beat nor tie that one,
so the best point and its estimate are those of the exhaustive search.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice, product
from typing import Sequence

import numpy as np

from .conic import _usable_cpus
from .errors import ChanceOptError, DimensionError, ModelError, ResourceError
from .measures import check_samplable, sample_blocks
# No caller here: ``sample`` stays importable from this module because
# perfbench/layers.py wraps ``chanceopt.mc.sample`` by name, and a traced
# benchmark run fails on the missing attribute without it.
from .measures import sample  # noqa: F401
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
        # coordinate indices, a power repeated: q1**2 * q3 is [1, 1, 3]
        self._factors = [[j for j, e in enumerate(beta) for _ in range(e)]
                         for beta in monomials]
        self._mono = np.empty((len(monomials), _BLOCK))
        self._values = np.empty((len(polys), _BLOCK))
        self._nonneg = np.empty((len(polys), _BLOCK), dtype=bool)
        self._inside = np.empty(_BLOCK, dtype=bool)

    def coefficients(self, x: np.ndarray) -> np.ndarray:
        """The (P, K) matrix of the polynomials with the decision folded in."""
        weights = self._coefs * np.prod(x ** self._x_exps, axis=1)
        return np.bincount(self._slots, weights=weights,
                           minlength=self.shape[0] * self.shape[1]).reshape(self.shape)

    def membership(self, coef: np.ndarray, draws: np.ndarray) -> np.ndarray:
        """Boolean array: which rows of ``draws`` lie in the union at the
        decision that :meth:`coefficients` folded into ``coef``.

        ``draws`` is read in blocks of columns of ``draws.T``, without a
        copy; the transposed views that :mod:`~chanceopt.measures` returns
        make each coordinate's block contiguous.  A monomial row is the
        product of its factors in coordinate order, left to right, a power
        being its coordinate repeated: the constant row is 1, a lone
        factor is copied, and otherwise the first two factors take one
        ``np.multiply`` and each later factor one in-place multiply.
        """
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
                elif len(factors) == 1:
                    np.copyto(row, q[factors[0]])
                else:                       # the first two factors in one pass
                    np.multiply(q[factors[0]], q[factors[1]], out=row)
                    for j in factors[2:]:
                        row *= q[j]
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
    Deterministic for a fixed seed.  The draws are streamed in blocks of
    ``_BLOCK`` (:func:`~chanceopt.measures.sample_blocks`), so memory
    stays O(m x 4,096) whatever ``cfg.samples`` is.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.n,):
        raise DimensionError(f"decision has shape {x.shape}, expected ({problem.n},)")
    if len(bad := np.flatnonzero(~np.isfinite(x))):
        raise ModelError(f"decision entry {bad[0]} is {x[bad[0]]}, not finite")
    evaluator = UnionEvaluator(problem)
    coef = evaluator.coefficients(x)
    inside = sum(np.count_nonzero(evaluator.membership(coef, draws))
                 for draws in sample_blocks(problem.dist, cfg.samples, cfg.seed, _BLOCK))
    est = float(inside / cfg.samples)
    half = 3.0 * float(np.sqrt(est * (1.0 - est) / cfg.samples))
    return est, half


def grid_workers(points: int) -> int:
    """Processes :func:`grid_search` evaluates a grid of ``points`` points on.

    One per usable CPU, at most one per point; 1 (in-process) where the
    platform cannot fork or the caller is a daemonic process, which may
    not have children.
    """
    import multiprocessing

    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return 1
    return min(_usable_cpus(), points)


def _estimate_range(problem: ChanceProblem, cfg: McConfig, axes: list,
                    estimates: np.ndarray, bests: np.ndarray, worker: int,
                    start: int, stop: int) -> None:
    """Write the estimate of every grid point ``start <= flat < stop`` into
    ``estimates[flat]``; ``flat`` counts grid indices in lexicographic
    order, the last coordinate fastest.

    ``bests`` holds, per worker, the most draws inside of any point that
    worker evaluated in full; this one writes only ``bests[worker]``, and
    only upward.  A point whose draws inside plus draws left fall below
    their maximum can neither beat nor tie that point: it draws no more,
    and its estimate is -1.0, below every estimate.  A stale maximum only
    abandons fewer points.
    """
    evaluator = UnionEvaluator(problem)
    points = product(range(cfg.grid_points), repeat=problem.n)
    for flat, idx in enumerate(islice(points, start, stop), start):
        coef = evaluator.coefficients(np.array([axes[i][idx[i]] for i in range(problem.n)]))
        inside, left = 0, cfg.samples
        # per-point derived seed: independent of evaluation order and of
        # how the points are split between workers
        for draws in sample_blocks(problem.dist, cfg.samples,
                                   np.random.SeedSequence([cfg.seed, flat]), _BLOCK):
            inside += np.count_nonzero(evaluator.membership(coef, draws))
            left -= len(draws)
            if inside + left < bests.max():
                estimates[flat] = -1.0
                break
        else:
            estimates[flat] = inside / cfg.samples
            if inside > bests[worker]:
                bests[worker] = inside


def grid_search(problem: ChanceProblem, cfg: McConfig) -> tuple[np.ndarray, float]:
    """Exact baseline: best grid point of the decision box.

    Ties are broken toward the lowest grid index in graded reverse
    lexicographic order, making the result deterministic.  A point stops
    drawing once ``inside + left < best``: its draws inside so far plus
    its draws left, the most it can still reach, are fewer than ``best``,
    the most draws inside of any point evaluated in full.  It can then
    neither beat nor tie that point, so the result is that of evaluating
    every point in full.  The points are split into :func:`grid_workers`
    contiguous ranges; all but the first are evaluated by forked children
    writing into one shared array, which also holds each worker's
    ``best``, so every range abandons points against the best of all, and
    the result is the same for any number of workers.
    """
    total = cfg.grid_points**problem.n
    if total > _GRID_GUARD:
        raise ResourceError(
            f"{cfg.grid_points}^{problem.n} = {total} grid evaluations exceed "
            f"the {_GRID_GUARD} guard; use a coarser grid"
        )
    check_samplable(problem.dist)
    import mmap
    import multiprocessing

    axes = [np.linspace(lo, hi, cfg.grid_points) for lo, hi in problem.decision_box]
    workers = grid_workers(total)
    bounds = [total * w // workers for w in range(workers + 1)]
    # an anonymous mapping is shared with forked children, not copied: the
    # estimates, then one best count per worker (aligned float64 stores,
    # which are atomic)
    shared = np.frombuffer(mmap.mmap(-1, 8 * (total + workers)))
    estimates, bests = shared[:total], shared[total:]
    estimates.fill(np.nan)
    bests.fill(0.0)
    children = []
    try:
        for worker, (start, stop) in enumerate(zip(bounds[1:-1], bounds[2:]), 1):
            child = multiprocessing.get_context("fork").Process(
                target=_estimate_range,
                args=(problem, cfg, axes, estimates, bests, worker, start, stop))
            child.start()
            children.append(child)      # only started children are ended and joined
        _estimate_range(problem, cfg, axes, estimates, bests, 0, bounds[0], bounds[1])
    except BaseException:
        for child in children:
            child.terminate()
        raise
    finally:
        for child in children:
            child.join()
    for child, start, stop in zip(children, bounds[1:-1], bounds[2:]):
        if child.exitcode != 0:
            raise ChanceOptError(f"grid worker for points {start}..{stop - 1} exited "
                                 f"with code {child.exitcode}")

    neg_est, best_idx = min(zip((-estimates).tolist(),
                                product(range(cfg.grid_points), repeat=problem.n)),
                            key=lambda pair: (pair[0], grevlex_key(pair[1])))
    return np.array([axes[i][best_idx[i]] for i in range(problem.n)]), float(-neg_est)
