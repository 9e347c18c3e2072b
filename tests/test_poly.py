"""Monomial ordering, indexing, and polynomial arithmetic."""

from functools import cmp_to_key
from itertools import product

import numpy as np
import pytest

from chanceopt.errors import DimensionError
from chanceopt.poly import (
    Polynomial,
    basis_size,
    encode_exponents,
    exponents,
    grevlex_key,
    lookup_ranks,
)
from util import key_compare, literal_grevlex_compare


def ranks(exps, n: int, d: int) -> list:
    """Grevlex ranks of ``exps`` (degree <= d) by the package's code lookup."""
    codes = encode_exponents(np.array(exps, dtype=np.int64).reshape(-1, n), d + 1)
    return lookup_ranks(codes, n, d).tolist()


class TestGrevlex:
    def test_degree_dominates(self):
        assert key_compare((0, 0), (1, 0)) == -1

    def test_same_degree_examples(self):
        # the n=2 moment matrix column order: y20, y11, y02
        assert key_compare((2, 0), (1, 1)) == -1
        assert key_compare((1, 1), (0, 2)) == -1

    def test_equal(self):
        assert key_compare((1, 2, 3), (1, 2, 3)) == 0

    def test_matches_literal_rule(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            n = rng.integers(1, 6)
            a = tuple(int(v) for v in rng.integers(0, 5, n))
            b = tuple(int(v) for v in rng.integers(0, 5, n))
            assert key_compare(a, b) == literal_grevlex_compare(a, b)

    def test_strict_total_order_axioms(self):
        rng = np.random.default_rng(1)
        exps = [tuple(int(v) for v in rng.integers(0, 4, 3)) for _ in range(60)]
        for a in exps:
            for b in exps:
                cab, cba = key_compare(a, b), key_compare(b, a)
                assert cab == -cba                      # antisymmetry
                assert (cab == 0) == (a == b)           # totality
        for _ in range(300):
            a, b, c = (exps[i] for i in rng.integers(0, len(exps), 3))
            if key_compare(a, b) <= 0 and key_compare(b, c) <= 0:
                assert key_compare(a, c) <= 0           # transitivity


class TestIndexing:
    def test_basis_size_examples(self):
        assert basis_size(2, 2) == 6
        assert basis_size(10, 2) == 66
        assert basis_size(5, 2) == 21
        assert basis_size(10, 2) + basis_size(5, 2) == 87
        for n in (1, 3, 7, 12):
            assert basis_size(n, 0) == 1

    def test_basis_size_is_count(self):
        for n in (1, 2, 3, 4):
            for d in (0, 1, 2, 5):
                assert len(exponents(n, d)) == basis_size(n, d)

    def test_rank_examples(self):
        assert ranks([(0, 0), (0, 1), (0, 2)], 2, 2) == [0, 2, 5]

    def test_exponent_list_sorted(self):
        exps = exponents(3, 4)
        assert list(exps) == sorted(exps, key=grevlex_key)

    def test_exponent_list_matches_brute_force(self):
        # every entry tuple up to d, kept at total degree <= d and ordered by
        # the literal rule rather than the package's sort key
        for n in range(1, 5):
            for d in range(6):
                brute = sorted((a for a in product(range(d + 1), repeat=n) if sum(a) <= d),
                               key=cmp_to_key(literal_grevlex_compare))
                assert list(exponents(n, d)) == brute, (n, d)

    def test_rank_unrank_inverse_exhaustive(self):
        # every exponent of N^n_d ranks at its place in the grevlex list, so
        # the rank is a bijection onto 0..S-1; every n <= 10 at a degree cap
        # that keeps the total count manageable, plus the spec's d = 8 cases
        for n in range(1, 11):
            d = 8 if n <= 6 else 4
            assert ranks(exponents(n, d), n, d) == list(range(basis_size(n, d)))

    def test_rank_strictly_increasing(self):
        # a rank does not depend on the degree cap of the table it is read from
        exps = exponents(4, 5)
        assert ranks(exps, 4, 7) == list(range(len(exps)))


class TestPolynomial:
    def test_zero_eval(self):
        z = Polynomial.zero(3)
        assert z([1.0, -2.0, 0.5]) == 0.0

    def test_single_constraint_quartic_value(self):
        # ((x - 1/2) = 0 collapses the polynomial to q^3/2 - q^4)
        x = Polynomial.coordinate(2, 0)
        q = Polynomial.coordinate(2, 1)
        s = x - 0.5
        p = 0.5 * q * (q**2 + s**2) - (q**4 + q**2 * s**2 + s**4)
        assert p([0.5, 0.25]) == pytest.approx(0.00390625, abs=1e-15)

    def test_affine_substitution_value(self):
        a, b, c = 1.3, 0.4, -2.0
        p = Polynomial(2, {(0, 0): a, (1, 0): -b, (0, 2): -c})
        assert p([1.0, 1.0]) == pytest.approx(a - b - c)

    def test_mul_identity(self):
        rng = np.random.default_rng(2)
        p = _random_poly(rng, 3, 3)
        one = Polynomial.constant(3, 1.0)
        assert p * one == p

    def test_binomial_square(self):
        x1 = Polynomial.coordinate(2, 0)
        x2 = Polynomial.coordinate(2, 1)
        sq = (x1 + x2) ** 2
        assert sq.terms == {(2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0}

    def test_mul_eval_consistency(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            p = _random_poly(rng, 2, 3)
            q = _random_poly(rng, 2, 3)
            z = rng.uniform(-1, 1, 2)
            lhs = (p * q)(z)
            rhs = p(z) * q(z)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_eval_many_matches_scalar(self):
        rng = np.random.default_rng(4)
        p = _random_poly(rng, 3, 4)
        pts = rng.uniform(-1, 1, (20, 3))
        batch = p.eval_many(pts)
        for row, val in zip(pts, batch):
            assert val == pytest.approx(p(row), rel=1e-13, abs=1e-13)

    def test_compose_affine(self):
        # substituting x = (u + 1) / 2 into x gives the shifted coordinate
        x = Polynomial.coordinate(1, 0)
        sub = Polynomial(1, {(0,): 0.5, (1,): 0.5})
        comp = x.compose([sub])
        assert comp == sub

    def test_compose_eval_consistency(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = _random_poly(rng, 2, 3)
            subs = [_random_poly(rng, 2, 2) for _ in range(2)]
            z = rng.uniform(-1, 1, 2)
            lhs = p.compose(subs)(z)
            rhs = p([s(z) for s in subs])
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_degree_tracks_terms(self):
        p = Polynomial(2, {(1, 2): 1.0, (0, 0): -2.0})
        assert p.degree == 3
        assert Polynomial.zero(2).degree == 0

    def test_dropped_zero_coefficients(self):
        p = Polynomial(2, {(1, 0): 0.0, (0, 1): 2.0})
        assert (1, 0) not in p.terms

    @pytest.mark.parametrize("alpha,error", [((-1, 0), ValueError),
                                             ((2.7, 0), TypeError)])
    def test_invalid_exponent_entry_rejected(self, alpha, error):
        # 2.7 once truncated to 2, so x^2.7 evaluated as x^2
        with pytest.raises(error):
            Polynomial(2, {alpha: 1.0})
        assert Polynomial(2, {(np.int64(2), 0): 1.0})([2.0, 0.0]) == 4.0

    def test_dimension_mismatch(self):
        p = Polynomial.coordinate(2, 0)
        q = Polynomial.coordinate(3, 0)
        with pytest.raises(DimensionError):
            p * q
        with pytest.raises(DimensionError):
            p([1.0])


def _random_poly(rng, num_vars, degree):
    terms = {}
    for _ in range(rng.integers(2, 7)):
        alpha = tuple(int(v) for v in rng.integers(0, degree + 1, num_vars))
        if sum(alpha) > degree:
            continue
        terms[alpha] = float(rng.uniform(-2, 2))
    terms[(0,) * num_vars] = float(rng.uniform(-2, 2))
    return Polynomial(num_vars, terms)
