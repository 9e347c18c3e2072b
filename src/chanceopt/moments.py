"""Moment vectors, the Riesz functional, and moment/localizing matrices.

Two bases are supported.  In the monomial basis a moment vector holds
``y_alpha = integral of x^alpha``; in the Chebyshev basis it holds
``integral of b_alpha`` where ``b_alpha(x) = prod_i T_{alpha_i}(x_i)`` is
the product Chebyshev basis on [-1,1]^n.  Both are grevlex-indexed, so a
basis switch changes only how matrix entries combine coordinates.

Chebyshev matrix entries are assembled from exact expansion tables
(``T_a T_b = (T_{a+b} + T_{|a-b|}) / 2`` and the closed form for ``x^k`` in
Chebyshev coordinates); the change-of-basis matrix is never inverted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import DimensionError, OrderError
from .poly import (
    Exponent,
    Polynomial,
    basis_size,
    encode_exponents,
    exponent_array,
    exponents,
    lookup_ranks,
    monomial_rank,
)

MONOMIAL = "monomial"
CHEBYSHEV = "chebyshev"
BASES = (MONOMIAL, CHEBYSHEV)


def _check_basis(basis: str):
    if basis not in BASES:
        raise ValueError(f"unknown basis {basis!r}; expected one of {BASES}")


@dataclass(frozen=True)
class MomentVector:
    """Truncated moment sequence up to total degree ``order``, grevlex-indexed."""

    num_vars: int
    order: int
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).copy()
        expected = basis_size(self.num_vars, self.order)
        if vals.shape != (expected,):
            raise DimensionError(
                f"moment vector for n={self.num_vars}, order={self.order} "
                f"needs length {expected}, got {vals.shape}"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __getitem__(self, alpha: Exponent) -> float:
        alpha = tuple(alpha)
        if len(alpha) != self.num_vars:
            raise DimensionError(f"exponent {alpha} for {self.num_vars} variables")
        if sum(alpha) > self.order:
            raise OrderError(f"exponent {alpha} beyond stored order {self.order}")
        return float(self.values[monomial_rank(alpha)])

    @classmethod
    def from_dirac(cls, point: Sequence[float], order: int, basis: str = MONOMIAL):
        """Moments of the unit point mass at ``point``."""
        point = np.asarray(point, dtype=float)
        return cls(len(point), order, basis_values(point, order, basis))

    @classmethod
    def from_samples(cls, points: np.ndarray, weights: Sequence[float], order: int,
                     basis: str = MONOMIAL):
        """Moments of the discrete measure sum_k weights[k] * delta(points[k])."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        weights = np.asarray(weights, dtype=float)
        if len(weights) != points.shape[0]:
            raise DimensionError("one weight per point required")
        vals = np.zeros(basis_size(points.shape[1], order))
        for pt, w in zip(points, weights):
            vals += w * basis_values(pt, order, basis)
        return cls(points.shape[1], order, vals)


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


# -- Riesz functional and matrices in the monomial basis ---------------------


def riesz(y: MomentVector, p: Polynomial) -> float:
    """Apply the moment functional to a polynomial: sum of p_alpha * y_alpha."""
    if p.num_vars != y.num_vars:
        raise DimensionError(
            f"polynomial over {p.num_vars} vars, moments over {y.num_vars}"
        )
    if p.degree > y.order:
        raise OrderError(f"polynomial degree {p.degree} exceeds moment order {y.order}")
    return float(sum(coef * y.values[monomial_rank(a)] for a, coef in p.terms.items()))


# -- Chebyshev tables ---------------------------------------------------------


@lru_cache(maxsize=None)
def cheb_mono_coeffs(k: int) -> tuple[float, ...]:
    """Monomial coefficients (degree 0..k) of the Chebyshev polynomial T_k."""
    if k == 0:
        return (1.0,)
    if k == 1:
        return (0.0, 1.0)
    prev2 = cheb_mono_coeffs(k - 2)
    prev1 = cheb_mono_coeffs(k - 1)
    out = [0.0] * (k + 1)
    for i, c in enumerate(prev1):
        out[i + 1] += 2.0 * c
    for i, c in enumerate(prev2):
        out[i] -= c
    return tuple(out)


@lru_cache(maxsize=None)
def mono_cheb_coeffs(k: int) -> tuple[float, ...]:
    """Chebyshev coefficients (T_0..T_k) of the monomial x^k.

    Closed form: x^k = 2^(1-k) * sum over j = k, k-2, ... of C(k, (k-j)/2) T_j,
    with the j = 0 term halved.
    """
    out = [0.0] * (k + 1)
    if k == 0:
        out[0] = 1.0
        return tuple(out)
    scale = 2.0 ** (1 - k)
    for j in range(k, -1, -2):
        c = scale * math.comb(k, (k - j) // 2)
        if j == 0:
            c /= 2.0
        out[j] = c
    return tuple(out)


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


@lru_cache(maxsize=None)
def cheb_product_expansion(a: Exponent, b: Exponent) -> tuple[tuple[Exponent, float], ...]:
    """Chebyshev coefficients of b_a * b_b via the univariate product rule."""
    if len(a) != len(b):
        raise DimensionError("exponent lengths differ")
    acc: dict[Exponent, float] = {(): 1.0}
    for ai, bi in zip(a, b):
        nxt: dict[Exponent, float] = {}
        for prefix, w in acc.items():
            for e in (ai + bi, abs(ai - bi)):
                key = prefix + (e,)
                nxt[key] = nxt.get(key, 0.0) + 0.5 * w
        acc = nxt
    return tuple(acc.items())


@lru_cache(maxsize=None)
def monomial_cheb_expansion(gamma: Exponent) -> tuple[tuple[Exponent, float], ...]:
    """Chebyshev coefficients of the monomial x^gamma (tensor of univariate tables)."""
    acc: dict[Exponent, float] = {(): 1.0}
    for g in gamma:
        table = mono_cheb_coeffs(g)
        nxt: dict[Exponent, float] = {}
        for prefix, w in acc.items():
            for j, c in enumerate(table):
                if c == 0.0:
                    continue
                key = prefix + (j,)
                nxt[key] = nxt.get(key, 0.0) + w * c
        acc = nxt
    return tuple(acc.items())


def poly_cheb_coeffs(p: Polynomial) -> dict[Exponent, float]:
    """Chebyshev coefficients of a polynomial given in monomial coordinates."""
    out: dict[Exponent, float] = {}
    for gamma, coef in p.terms.items():
        for beta, w in monomial_cheb_expansion(gamma):
            val = out.get(beta, 0.0) + coef * w
            out[beta] = val
    return {b: c for b, c in out.items() if c != 0.0}


# -- Moment and localizing matrices as term structures ------------------------
#
# Each helper returns parallel arrays (rows, cols, ranks, coefs) describing,
# for entries (rows[t], cols[t]) with rows <= cols of the matrix, a term
# coefs[t] * y[ranks[t]].  Repeated (row, col, rank) triples accumulate.
# ``conic.PsdBlock.from_terms`` turns them into block coefficients;
# ``terms_matrix`` evaluates them at a moment vector.  In the monomial basis
# the moment matrix is the localizing matrix of the constant 1; in the
# Chebyshev basis it keeps the exact product rule, which needs no polynomial
# products.  A trace is the sum of the terms with rows == cols.


def moment_block_terms(n: int, d: int, basis: str = MONOMIAL):
    _check_basis(basis)
    if basis == MONOMIAL:
        return localizing_block_terms(Polynomial.constant(n, 1.0), d, basis)
    size = basis_size(n, d)
    exps = exponents(n, d)
    rows, cols, ranks, coefs = [], [], [], []
    for i in range(size):
        for j in range(i, size):
            for gamma, w in cheb_product_expansion(exps[i], exps[j]):
                rows.append(i)
                cols.append(j)
                ranks.append(monomial_rank(gamma))
                coefs.append(w)
    return (np.array(rows), np.array(cols), np.array(ranks, dtype=np.int64),
            np.array(coefs))


def localizing_block_terms(p: Polynomial, d: int, basis: str = MONOMIAL):
    _check_basis(basis)
    n = p.num_vars
    size = basis_size(n, d)
    if basis == MONOMIAL:
        maxdeg = 2 * d + p.degree
        base = maxdeg + 1
        codes = encode_exponents(exponent_array(n, d), base)
        iu, ju = np.triu_indices(size)
        pair = codes[iu] + codes[ju]
        rows, cols, ranks, coefs = [], [], [], []
        for gamma, coef in p.terms.items():
            g = int(encode_exponents(np.array([gamma], dtype=np.int64), base)[0])
            rows.append(iu)
            cols.append(ju)
            ranks.append(lookup_ranks(pair + g, n, maxdeg))
            coefs.append(np.full(len(iu), coef))
        return (np.concatenate(rows), np.concatenate(cols),
                np.concatenate(ranks), np.concatenate(coefs))
    exps = exponents(n, d)
    rows, cols, ranks, coefs = [], [], [], []
    for i in range(size):
        bi = cheb_basis_poly(exps[i])
        for j in range(i, size):
            prod = p * bi * cheb_basis_poly(exps[j])
            for gamma, coef in poly_cheb_coeffs(prod).items():
                rows.append(i)
                cols.append(j)
                ranks.append(monomial_rank(gamma))
                coefs.append(coef)
    return (np.array(rows), np.array(cols), np.array(ranks, dtype=np.int64),
            np.array(coefs))


def terms_matrix(terms, y: np.ndarray, size: int) -> np.ndarray:
    """Dense symmetric (size, size) matrix of a term structure at moments ``y``.

    Entry (rows[t], cols[t]) and its mirror receive coefs[t] * y[ranks[t]].
    """
    rows, cols, ranks, coefs = terms
    out = np.zeros((size, size))
    vals = coefs * y[ranks]
    np.add.at(out, (rows, cols), vals)
    off_diag = rows != cols
    np.add.at(out, (cols[off_diag], rows[off_diag]), vals[off_diag])
    return out
