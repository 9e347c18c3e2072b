"""Closed-form moments, sampling, and the product-measure lift.

Random coordinates are mutually independent.  Supported marginals:

* ``Uniform(lo, hi)`` with the exact k-th moment
  ``(hi^(k+1) - lo^(k+1)) / ((hi - lo) (k + 1))``;
* ``Beta(alpha, beta)`` on [0, 1] with the recursion
  ``y_k = (alpha + k - 1) / (alpha + beta + k - 1) * y_{k-1}``, ``y_0 = 1``;
* ``ExplicitMoments``, a stored list of raw moments for anything else.

The lift maps decision moments to the joint moments of the independent
product of the decision measure with the random-parameter measure: the
joint entry at exponent (alpha, beta) is the decision moment at alpha
times the random moment at beta, with decision coordinates first.

Sampling draws every coordinate from one generator, in coordinate order.
:func:`sample_blocks` yields the draws block by block from one reused
buffer, so the Monte Carlo verification and each grid point hold
O(m x 4,096) draws whatever their sample count, and a grid point that can
no longer win stops drawing; :func:`sample` returns the same draws at
once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Union

import numpy as np

from .errors import ModelError, OrderError
from .moments import MONOMIAL, MomentVector, _check_basis, cheb_mono_coeffs
from .poly import encode_exponents, exponent_array, lookup_ranks


@dataclass(frozen=True)
class Uniform:
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ModelError(f"uniform needs lo < hi, got [{self.lo}, {self.hi}]")
        if not math.isfinite(float(self.hi) - float(self.lo)):
            raise ModelError(f"uniform needs a finite width hi - lo, got "
                             f"[{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class Beta:
    """Beta distribution on [0, 1]."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (0 < self.alpha < np.inf and 0 < self.beta < np.inf):
            raise ModelError("beta shape parameters must be positive and finite")


@dataclass(frozen=True)
class ExplicitMoments:
    """Raw moments of a probability measure supported inside [-1, 1].

    The stored list must start with 1 (total mass) and stay within [-1, 1];
    both are necessary for a probability measure on [-1, 1] and are checked.
    Sampling is not available for this entry type.
    """

    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if len(vals) < 1 or vals[0] != 1.0:
            raise ModelError("explicit moment list must start with total mass 1")
        if not all(abs(v) <= 1.0 for v in vals):
            raise ModelError("explicit moments of a measure on [-1,1] must lie in [-1,1]")
        object.__setattr__(self, "values", vals)


Distribution = Union[Uniform, Beta, ExplicitMoments]


@dataclass(frozen=True)
class DistributionSpec:
    """Independent per-coordinate marginals of the random parameter vector."""

    coords: tuple

    def __post_init__(self):
        coords = tuple(self.coords)
        for i, c in enumerate(coords):
            if not isinstance(c, (Uniform, Beta, ExplicitMoments)):
                raise ModelError(f"coordinate {i}: unsupported distribution {type(c).__name__}")
        object.__setattr__(self, "coords", coords)

    @property
    def m(self) -> int:
        return len(self.coords)


def univariate_moment(dist: Distribution, k: int) -> float:
    """Exact k-th raw moment of a single marginal."""
    if k < 0:
        raise ValueError("moment index must be nonnegative")
    if isinstance(dist, Uniform):
        a, b = dist.lo, dist.hi
        return (b ** (k + 1) - a ** (k + 1)) / ((b - a) * (k + 1))
    if isinstance(dist, Beta):
        y = 1.0
        for i in range(1, k + 1):
            y *= (dist.alpha + i - 1) / (dist.alpha + dist.beta + i - 1)
        return y
    if isinstance(dist, ExplicitMoments):
        if k >= len(dist.values):
            raise OrderError(
                f"explicit moment list of length {len(dist.values)} has no moment {k}"
            )
        return dist.values[k]
    raise ModelError(f"unsupported distribution {type(dist).__name__}")


def univariate_cheb_moment(dist: Distribution, k: int) -> float:
    """Expectation of the degree-k Chebyshev polynomial under a marginal."""
    coeffs = cheb_mono_coeffs(k)
    return float(sum(c * univariate_moment(dist, j) for j, c in enumerate(coeffs) if c))


def _moment_tables(spec: DistributionSpec, order: int, basis: str) -> np.ndarray:
    """(m, order+1) table of univariate moments in the requested basis."""
    _check_basis(basis)
    fn = univariate_moment if basis == MONOMIAL else univariate_cheb_moment
    return np.array([[fn(c, k) for k in range(order + 1)] for c in spec.coords])


def moment_vector(spec: DistributionSpec, order: int, basis: str = MONOMIAL) -> MomentVector:
    """Joint moment vector of the random-parameter measure up to ``order``."""
    tables = _moment_tables(spec, order, basis)
    exps = exponent_array(spec.m, order)
    vals = np.ones(exps.shape[0])
    for i in range(spec.m):
        vals *= tables[i, exps[:, i]]
    return MomentVector(spec.m, order, vals)


@lru_cache(maxsize=None)
def _joint_split_ranks(n: int, m: int, order: int) -> np.ndarray:
    """Rank of the decision part alpha of each joint exponent (alpha, beta)."""
    exps = exponent_array(n + m, order)
    codes = encode_exponents(np.ascontiguousarray(exps[:, :n]), order + 1)
    ranks = lookup_ranks(codes, n, order)
    ranks.setflags(write=False)
    return ranks


def lift_factors(n: int, spec: DistributionSpec, order: int,
                 basis: str = MONOMIAL) -> tuple[np.ndarray, np.ndarray]:
    """Structure of the product lift at a given order.

    Returns ``(x_rank, q_factor)`` over joint grevlex indices t with
    exponent (alpha, beta): the lifted entry is
    ``q_factor[t] * y_x[x_rank[t]]``.
    """
    tables = _moment_tables(spec, order, basis)
    exps = exponent_array(n + spec.m, order)
    qfac = np.ones(exps.shape[0])
    for i in range(spec.m):
        qfac *= tables[i, exps[:, n + i]]
    return _joint_split_ranks(n, spec.m, order), qfac


def check_samplable(spec: DistributionSpec) -> None:
    """Raise ``ModelError`` unless every marginal can be sampled."""
    for i, dist in enumerate(spec.coords):
        if isinstance(dist, ExplicitMoments):
            raise ModelError(f"coordinate {i}: cannot sample from an explicit moment list")


def _draw(rng: np.random.Generator, dist: Distribution, row: np.ndarray) -> None:
    """Fill ``row`` with draws of one marginal, in a single call on ``rng``."""
    if isinstance(dist, Uniform):
        # numpy's uniform is lo + (hi - lo) * u, rounded step by step
        rng.random(out=row)
        row *= dist.hi - dist.lo
        row += dist.lo
    else:   # Beta: check_samplable turned explicit moment lists away
        row[:] = rng.beta(dist.alpha, dist.beta, size=len(row))


def sample_blocks(spec: DistributionSpec, count: int, seed,
                  block: int) -> Iterator[np.ndarray]:
    """Yield the draws of ``sample(spec, count, seed)`` in blocks of ``block``.

    Each block is a ``(width, m)`` transposed view of one ``(m, block)``
    buffer that the next block overwrites, so a caller streaming ``count``
    draws holds ``m * block`` of them at a time, the Beta coordinates
    aside.  Together the blocks are the rows of :func:`sample`, bit for
    bit.  Where the generator is PCG64 (``default_rng``'s), a Uniform
    coordinate draws from its own copy of the bit generator, set where
    ``sample``'s single call for it would start, and the shared one is
    advanced past those ``count`` draws (``Generator.random`` takes one
    64-bit step per double).  A Beta coordinate is drawn by rejection, a
    variable number of steps, so it is drawn whole in coordinate order
    and handed out a block at a time.  With ``count <= block``, or another
    bit generator, the only block holds every draw.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    check_samplable(spec)
    rng = np.random.default_rng(seed)
    if count <= block or not isinstance(rng.bit_generator, np.random.PCG64):
        out = np.empty((spec.m, count))
        for dist, row in zip(spec.coords, out):
            _draw(rng, dist, row)
        yield out.T
        return
    streams = []
    for dist in spec.coords:
        if isinstance(dist, Uniform):
            own = np.random.PCG64()
            own.state = rng.bit_generator.state
            rng.bit_generator.advance(count)
            streams.append(np.random.Generator(own))
        else:
            streams.append(rng.beta(dist.alpha, dist.beta, size=count))
    out = np.empty((spec.m, block))
    for start in range(0, count, block):
        width = min(block, count - start)
        for dist, row, stream in zip(spec.coords, out[:, :width], streams):
            if isinstance(dist, Uniform):
                _draw(stream, dist, row)
            else:
                row[:] = stream[start:start + width]
        yield out[:, :width].T


def sample(spec: DistributionSpec, count: int, seed) -> np.ndarray:
    """Draw ``count`` independent joint samples; deterministic per seed.

    ``seed`` may be anything accepted by ``numpy.random.default_rng``.
    The result has shape ``(count, m)`` but is the transposed view of a
    C-ordered ``(m, count)`` array: each coordinate's draws are contiguous,
    which is the layout :class:`chanceopt.mc.UnionEvaluator` reads.
    Coordinates are drawn one after another from one generator, each in a
    single call, so the draws equal ``rng.uniform(lo, hi, count)`` and
    ``rng.beta(a, b, count)`` column by column.  It holds all ``count * m``
    draws at once; the Monte Carlo verification and the grid search take
    the same draws from :func:`sample_blocks`, 4,096 at a time, so they
    hold O(m x 4,096) draws whatever their sample count.
    """
    return next(sample_blocks(spec, count, seed, count))
