"""Multivariate monomial ordering, indexing, and sparse polynomial arithmetic.

Exponents are plain tuples of nonnegative ints, one entry per variable.
Every index used in the package is induced by the graded reverse
lexicographic (grevlex) order: lower total degree first; within a degree,
the exponent whose last nonzero entry of the difference is negative comes
first.  For two variables the layout is 1, x1, x2, x1^2, x1*x2, x2^2, ...

Within a fixed total degree the grevlex rule is equivalent to ordinary
lexicographic comparison of the *reversed* exponent tuples, which is what
the sort key below uses; the literal last-nonzero rule is kept in
``grevlex_compare`` and cross-checked in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionError

Exponent = tuple[int, ...]

# Largest index we allow; beyond this the int64 arrays used for vectorized
# rank lookups would overflow.
_MAX_BASIS = 2**62


def basis_size(n: int, d: int) -> int:
    """Number of monomials in ``n`` variables of total degree <= ``d``."""
    if n < 0 or d < 0:
        raise ValueError(f"basis_size needs n, d >= 0, got ({n}, {d})")
    size = math.comb(n + d, n)
    if size > _MAX_BASIS:
        raise OverflowError(f"basis of {n} vars up to degree {d} exceeds index range")
    return size


def grevlex_key(alpha: Exponent) -> tuple:
    """Sort key realizing the grevlex order."""
    return (sum(alpha), alpha[::-1])


def grevlex_compare(a: Exponent, b: Exponent) -> int:
    """Return -1, 0, or +1 as ``a`` precedes, equals, or follows ``b``.

    ``a`` precedes ``b`` iff ``|a| < |b|``, or the degrees tie and the last
    nonzero entry of ``a - b`` is negative.
    """
    if len(a) != len(b):
        raise DimensionError(f"exponent lengths differ: {len(a)} vs {len(b)}")
    da, db = sum(a), sum(b)
    if da != db:
        return -1 if da < db else 1
    for ai, bi in zip(reversed(a), reversed(b)):
        if ai != bi:
            return -1 if ai < bi else 1
    return 0


@lru_cache(maxsize=None)
def _degree_slice(n: int, t: int) -> tuple[Exponent, ...]:
    """All exponents of ``n`` variables with total degree exactly ``t``, sorted."""
    if n == 1:
        return ((t,),)

    def gen(rem_vars: int, rem_deg: int):
        if rem_vars == 1:
            yield (rem_deg,)
            return
        for head in range(rem_deg + 1):
            for tail in gen(rem_vars - 1, rem_deg - head):
                yield (head,) + tail

    return tuple(sorted(gen(n, t), key=grevlex_key))


@lru_cache(maxsize=None)
def exponents(n: int, d: int) -> tuple[Exponent, ...]:
    """All exponents of total degree <= ``d`` in grevlex order."""
    if n < 1:
        raise ValueError("need at least one variable")
    out: list[Exponent] = []
    for t in range(d + 1):
        out.extend(_degree_slice(n, t))
    return tuple(out)


@lru_cache(maxsize=None)
def _slice_index(n: int, t: int) -> dict[Exponent, int]:
    return {alpha: i for i, alpha in enumerate(_degree_slice(n, t))}


def monomial_rank(alpha: Exponent) -> int:
    """0-based grevlex rank of an exponent; the zero exponent has rank 0."""
    alpha = tuple(alpha)
    if any(e < 0 for e in alpha):
        raise ValueError(f"negative entry in exponent {alpha}")
    n, t = len(alpha), sum(alpha)
    below = basis_size(n, t - 1) if t > 0 else 0
    return below + _slice_index(n, t)[alpha]


def monomial_unrank(n: int, i: int) -> Exponent:
    """Inverse of :func:`monomial_rank` for ``n`` variables."""
    if i < 0:
        raise ValueError("rank must be nonnegative")
    t = 0
    while basis_size(n, t) <= i:
        t += 1
    below = basis_size(n, t - 1) if t > 0 else 0
    return _degree_slice(n, t)[i - below]


@lru_cache(maxsize=None)
def exponent_array(n: int, d: int) -> np.ndarray:
    """Grevlex-ordered exponents as an int64 array of shape (S_{n,d}, n)."""
    arr = np.array(exponents(n, d), dtype=np.int64).reshape(basis_size(n, d), n)
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=None)
def _code_table(n: int, maxdeg: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted injective codes for all exponents of degree <= maxdeg, with ranks.

    The code of an exponent is its evaluation in base ``maxdeg + 1``; it is
    additive under exponent addition as long as every entry of the sum stays
    <= maxdeg, which callers guarantee by degree checks.
    """
    exps = exponent_array(n, maxdeg)
    codes = encode_exponents(exps, maxdeg + 1)
    order = np.argsort(codes)
    sorted_codes = np.ascontiguousarray(codes[order])
    order = np.ascontiguousarray(order)
    sorted_codes.setflags(write=False)
    order.setflags(write=False)
    return sorted_codes, order


def encode_exponents(exps: np.ndarray, base: int) -> np.ndarray:
    """Base-``base`` codes of an (..., n) exponent array."""
    n = exps.shape[-1]
    weights = (base ** np.arange(n, dtype=np.int64)).astype(np.int64)
    return exps @ weights


def lookup_ranks(codes: np.ndarray, n: int, maxdeg: int) -> np.ndarray:
    """Grevlex ranks of exponents given by base-(maxdeg+1) codes."""
    sorted_codes, order = _code_table(n, maxdeg)
    pos = np.searchsorted(sorted_codes, codes)
    if np.any(pos >= len(sorted_codes)) or np.any(sorted_codes[pos] != codes):
        raise ValueError("exponent code outside the lookup table")
    return order[pos]


@dataclass(frozen=True, eq=True)
class Polynomial:
    """Sparse real polynomial: a map from exponent tuples to coefficients.

    Instances are immutable; arithmetic returns new objects.  Stored
    coefficients are never exactly zero.
    """

    num_vars: int
    terms: dict

    def __post_init__(self):
        if self.num_vars < 1:
            raise DimensionError("polynomial needs at least one variable")
        clean = {}
        for alpha, coef in self.terms.items():
            alpha = tuple(int(e) for e in alpha)
            if len(alpha) != self.num_vars:
                raise DimensionError(
                    f"exponent {alpha} has length {len(alpha)}, expected {self.num_vars}"
                )
            if any(e < 0 for e in alpha):
                raise ValueError(f"negative exponent entry in {alpha}")
            coef = float(coef)
            if coef != 0.0:
                clean[alpha] = coef
        object.__setattr__(self, "terms", clean)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, num_vars: int) -> "Polynomial":
        return cls(num_vars, {})

    @classmethod
    def constant(cls, num_vars: int, value: float) -> "Polynomial":
        return cls(num_vars, {(0,) * num_vars: value})

    @classmethod
    def coordinate(cls, num_vars: int, index: int) -> "Polynomial":
        if not 0 <= index < num_vars:
            raise DimensionError(f"coordinate {index} out of range for {num_vars} vars")
        alpha = [0] * num_vars
        alpha[index] = 1
        return cls(num_vars, {tuple(alpha): 1.0})

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Max total degree over nonzero terms; 0 for the zero polynomial."""
        if not self.terms:
            return 0
        return max(sum(a) for a in self.terms)

    def coefficient(self, alpha: Exponent) -> float:
        return self.terms.get(tuple(alpha), 0.0)

    def sorted_terms(self) -> list[tuple[Exponent, float]]:
        return sorted(self.terms.items(), key=lambda kv: grevlex_key(kv[0]))

    def __repr__(self):
        if not self.terms:
            return f"Polynomial({self.num_vars}, 0)"
        bits = [f"{c:+g}*x^{a}" for a, c in self.sorted_terms()]
        return f"Polynomial({self.num_vars}, {' '.join(bits)})"

    def __hash__(self):
        return hash((self.num_vars, frozenset(self.terms.items())))

    # -- arithmetic --------------------------------------------------------

    def _check_same_space(self, other: "Polynomial"):
        if self.num_vars != other.num_vars:
            raise DimensionError(
                f"polynomials over {self.num_vars} and {other.num_vars} variables"
            )

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = Polynomial.constant(self.num_vars, other)
        self._check_same_space(other)
        out = dict(self.terms)
        for alpha, coef in other.terms.items():
            out[alpha] = out.get(alpha, 0.0) + coef
        return Polynomial(self.num_vars, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.num_vars, {a: -c for a, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = Polynomial.constant(self.num_vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Polynomial(self.num_vars, {a: c * other for a, c in self.terms.items()})
        self._check_same_space(other)
        out: dict[Exponent, float] = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                key = tuple(x + y for x, y in zip(a, b))
                out[key] = out.get(key, 0.0) + ca * cb
        return Polynomial(self.num_vars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = Polynomial.constant(self.num_vars, 1.0)
        for _ in range(k):
            out = out * self
        return out

    # -- evaluation and composition ----------------------------------------

    def __call__(self, point: Sequence[float]) -> float:
        if len(point) != self.num_vars:
            raise DimensionError(
                f"point has {len(point)} coordinates, expected {self.num_vars}"
            )
        total = 0.0
        for alpha, coef in self.terms.items():
            mon = 1.0
            for x, e in zip(point, alpha):
                if e:
                    mon *= x**e
            total += coef * mon
        return total

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        """Evaluate on each row of an (N, num_vars) array."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.num_vars:
            raise DimensionError(
                f"expected (N, {self.num_vars}) array, got {points.shape}"
            )
        total = np.zeros(points.shape[0])
        for alpha, coef in self.terms.items():
            mon = np.full(points.shape[0], coef)
            for i, e in enumerate(alpha):
                if e:
                    mon *= points[:, i] ** e
            total += mon
        return total

    def compose(self, substitutions: Sequence["Polynomial"]) -> "Polynomial":
        """Substitute ``substitutions[i]`` for variable ``i``.

        All substituted polynomials must share one target variable space.
        """
        if len(substitutions) != self.num_vars:
            raise DimensionError(
                f"{len(substitutions)} substitutions for {self.num_vars} variables"
            )
        target = substitutions[0].num_vars
        for s in substitutions:
            if s.num_vars != target:
                raise DimensionError("substitutions live in different variable spaces")
        powers: list[list[Polynomial]] = [[Polynomial.constant(target, 1.0)] for _ in substitutions]

        def power(i: int, e: int) -> Polynomial:
            cache = powers[i]
            while len(cache) <= e:
                cache.append(cache[-1] * substitutions[i])
            return cache[e]

        out = Polynomial.zero(target)
        for alpha, coef in self.terms.items():
            term = Polynomial.constant(target, coef)
            for i, e in enumerate(alpha):
                if e:
                    term = term * power(i, e)
            out = out + term
        return out


def affine_substitutions(offsets: Iterable[float], halves: Iterable[float]) -> list[Polynomial]:
    """Substitution list mapping variable i to offsets[i] + halves[i] * z_i."""
    offsets = list(offsets)
    halves = list(halves)
    n = len(offsets)
    subs = []
    for i, (c, h) in enumerate(zip(offsets, halves)):
        subs.append(Polynomial(n, {(0,) * n: c, tuple(1 if j == i else 0 for j in range(n)): h}))
    return subs
