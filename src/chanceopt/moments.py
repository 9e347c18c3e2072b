"""Moment vectors and moment/localizing matrices.

Two bases are supported.  In the monomial basis a moment vector holds
``y_alpha = integral of x^alpha``; in the Chebyshev basis it holds
``integral of b_alpha`` where ``b_alpha(x) = prod_i T_{alpha_i}(x_i)`` is
the product Chebyshev basis on [-1,1]^n.  Both are grevlex-indexed, so a
basis switch changes only how matrix entries combine coordinates.

A polynomial enters a matrix through its coefficients in the basis (for
Chebyshev, products over coordinates of ``numpy.polynomial``'s tables of
``x^k``, dyadic and so exact, imported only for this basis), and
products of basis elements expand by the basis's product rule
(``x^a x^b = x^{a+b}``, ``T_a T_b = (T_{a+b} + T_{|a-b|}) / 2``); the
change-of-basis matrix is never inverted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .errors import DimensionError, OrderError
from .poly import (
    Exponent,
    Polynomial,
    basis_size,
    encode_exponents,
    exponent_array,
    lookup_ranks,
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
        if min(alpha) < 0:
            raise ValueError(f"negative entry in exponent {alpha}")
        if sum(alpha) > self.order:
            raise OrderError(f"exponent {alpha} beyond stored order {self.order}")
        code = encode_exponents(np.array([alpha], dtype=np.int64), self.order + 1)
        return float(self.values[lookup_ranks(code, self.num_vars, self.order)[0]])


# -- Chebyshev tables ---------------------------------------------------------


@lru_cache(maxsize=None)
def cheb_mono_coeffs(k: int) -> tuple[float, ...]:
    """Monomial coefficients (degree 0..k) of the Chebyshev polynomial T_k."""
    from numpy.polynomial.chebyshev import cheb2poly

    return tuple(cheb2poly([0.0] * k + [1.0]).tolist())


@lru_cache(maxsize=None)
def mono_cheb_coeffs(k: int) -> tuple[float, ...]:
    """Chebyshev coefficients (T_0..T_k) of the monomial x^k."""
    from numpy.polynomial.chebyshev import poly2cheb

    return tuple(poly2cheb([0.0] * k + [1.0]).tolist())


@lru_cache(maxsize=None)
def monomial_cheb_expansion(gamma: Exponent) -> tuple[tuple[Exponent, float], ...]:
    """Chebyshev coefficients of the monomial x^gamma (tensor of univariate tables)."""
    tables = [[(j, c) for j, c in enumerate(mono_cheb_coeffs(g)) if c != 0.0] for g in gamma]
    return tuple((tuple(j for j, _ in parts), math.prod((c for _, c in parts), start=1.0))
                 for parts in product(*tables))


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
# Each builder returns parallel arrays (rows, cols, ranks, coefs) describing,
# for entries (rows[t], cols[t]) with rows <= cols of the matrix, a term
# coefs[t] * y[ranks[t]]; each (row, col, rank) triple appears once.
# ``conic.PsdBlock.from_terms`` turns them into block coefficients;
# ``terms_matrix`` evaluates them at a moment vector.  Entry (i, j) of the
# localizing matrix of p applies the moment functional to p * b_i * b_j.
# With p written in the basis, every product of two basis elements expands
# by the basis's product rule, vectorized over the base-(maxdeg + 1) codes of
# the exponents (``poly.encode_exponents``), so both bases share one path,
# and the moment matrix is the localizing matrix of the constant 1.
# A trace is the sum of the terms with rows == cols.


def _monomial_product(a, b, base: int, n: int):
    """x^a * x^b row by row, for exponent codes a and b: (row, code, weight)."""
    code = a + b
    return np.arange(len(code)), code, np.ones(len(code))


def _chebyshev_product(a, b, base: int, n: int):
    """b_a * b_b row by row, for exponent codes a and b: (row, code, weight).

    Each coordinate where both exponents are positive splits every term in
    two by T_s T_t = (T_{s+t} + T_{|s-t|}) / 2; in that coordinate's digit
    the second code is the first minus 2 min(s, t).
    """
    code = a + b
    row, weight = np.arange(len(code)), np.ones(len(code))
    for k in range(n):
        place = base**k
        low = np.minimum(a // place % base, b // place % base)
        split = np.flatnonzero(low[row] > 0)
        src = row[split]
        weight[split] *= 0.5
        row = np.concatenate([row, src])
        code = np.concatenate([code, code[split] - 2 * place * low[src]])
        weight = np.concatenate([weight, weight[split]])
    return row, code, weight


# per basis: a polynomial's coefficients in it, and its product rule
_BASIS_RULES = {
    MONOMIAL: (lambda p: p.terms, _monomial_product),
    CHEBYSHEV: (poly_cheb_coeffs, _chebyshev_product),
}


def basis_coeffs(p: Polynomial, basis: str) -> dict[Exponent, float]:
    """The nonzero coefficients of ``p`` in ``basis``, keyed by exponent."""
    _check_basis(basis)
    return _BASIS_RULES[basis][0](p)


def moment_block_terms(n: int, d: int, basis: str = MONOMIAL):
    return localizing_block_terms(Polynomial.constant(n, 1.0), d, basis)


def localizing_block_terms(p: Polynomial, d: int, basis: str = MONOMIAL):
    coeffs = basis_coeffs(p, basis)
    product = _BASIS_RULES[basis][1]
    n = p.num_vars
    maxdeg = 2 * d + p.degree
    base = maxdeg + 1
    codes = encode_exponents(exponent_array(n, d), base)
    iu, ju = np.triu_indices(len(codes))
    pair, pair_codes, pair_weight = product(codes[iu], codes[ju], base, n)
    num_ranks = basis_size(n, maxdeg)
    keys, vals = [], []
    for gamma, coef in coeffs.items():
        g = encode_exponents(np.array(gamma, dtype=np.int64), base)
        src, term_codes, weight = product(g, pair_codes, base, n)
        keys.append(pair[src] * num_ranks + lookup_ranks(term_codes, n, maxdeg))
        vals.append(coef * (pair_weight[src] * weight))
    # the terms of one (entry, moment) add up once, in order; exact zeros go
    keys, inverse = np.unique(np.concatenate(keys), return_inverse=True)
    sums = np.bincount(inverse, weights=np.concatenate(vals))
    keep = sums != 0.0
    entry, ranks = np.divmod(keys[keep], num_ranks)
    return iu[entry], ju[entry], ranks, sums[keep]


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
