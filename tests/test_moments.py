"""Moment vectors, moment/localizing matrices, Chebyshev basis.

Dense matrices come from the SDP builder's block terms evaluated at a
moment vector (``util.moment_matrix`` / ``util.localizing_matrix``).
"""

import numpy as np
import pytest

from chanceopt.moments import (
    MomentVector,
    cheb_mono_coeffs,
    localizing_block_terms,
    mono_cheb_coeffs,
    poly_cheb_coeffs,
)
from chanceopt.measures import DistributionSpec, Uniform
from chanceopt.poly import Polynomial, basis_size, exponents
from chanceopt.problems import load_bundled
from chanceopt.relaxation import ChanceProblem, build_chance_sdp, scale_problem
from util import (
    _exact_power_in_cheb,
    basis_values,
    cheb_basis_poly,
    chebyshev_transform,
    dirac_moments,
    discrete_moments,
    exact_cheb_localizer_entry,
    localizing_matrix,
    moment_matrix,
    monomial_rank,
    reference_measure_matrix,
    toy_problem,
    ulps_off,
)


def random_vec(rng, n, order):
    return MomentVector(n, order, rng.standard_normal(basis_size(n, order)))


class TestMomentMatrix:
    def test_order_zero(self):
        rng = np.random.default_rng(2)
        y = random_vec(rng, 2, 2)
        M = moment_matrix(y, 0)
        assert M.shape == (1, 1) and M[0, 0] == pytest.approx(y.values[0])

    def test_layout_matches_displayed_6x6(self):
        # rows/cols ordered 1, x1, x2, x1^2, x1 x2, x2^2
        rng = np.random.default_rng(3)
        y = random_vec(rng, 2, 4)
        M = moment_matrix(y, 2)
        assert M[1, 2] == pytest.approx(y[(1, 1)])
        assert M[5, 5] == pytest.approx(y[(0, 4)])
        assert M[3, 4] == pytest.approx(y[(3, 1)])
        assert M[0, 3] == pytest.approx(y[(2, 0)])

    def test_dirac_rank_one(self):
        z = np.array([0.3, -0.7])
        y = dirac_moments(z, 4)
        M = moment_matrix(y, 2)
        v = basis_values(z, 2)
        assert np.allclose(M, np.outer(v, v), atol=1e-12)
        assert np.linalg.matrix_rank(M, tol=1e-10) == 1
        assert np.linalg.eigvalsh(M)[0] >= -1e-12

    def test_convex_combination_of_diracs(self):
        rng = np.random.default_rng(5)
        z1, z2 = rng.uniform(-1, 1, (2, 3))
        lam = 0.3
        y1 = dirac_moments(z1, 4)
        y2 = dirac_moments(z2, 4)
        mix = MomentVector(3, 4, lam * y1.values + (1 - lam) * y2.values)
        M = moment_matrix(mix, 2)
        expect = lam * moment_matrix(y1, 2) + (1 - lam) * moment_matrix(y2, 2)
        assert np.allclose(M, expect, atol=1e-12)


    @pytest.mark.parametrize("basis", ["monomial", "chebyshev"])
    @pytest.mark.parametrize("n,d", [(1, 3), (2, 2), (3, 2)])
    def test_matches_discrete_measure_oracle(self, n, d, basis):
        rng = np.random.default_rng(17)
        pts, w = rng.uniform(-1, 1, (5, n)), rng.uniform(0.1, 1.0, 5)
        y = discrete_moments(pts, w, 2 * d, basis)
        want = reference_measure_matrix(pts, w, d, basis)
        assert np.max(np.abs(moment_matrix(y, d, basis) - want)) <= 1e-12

class TestLocalizingMatrix:
    def test_unit_polynomial_reduces_to_moment_matrix(self):
        rng = np.random.default_rng(6)
        y = random_vec(rng, 2, 4)
        L = localizing_matrix(y, Polynomial.constant(2, 1.0), 2)
        assert np.allclose(L, moment_matrix(y, 2))

    def test_displayed_3x3(self):
        # p = a - b x1 - c x2^2: the top-left entry is a y00 - b y10 - c y02
        # and the full matrix follows the same pattern
        rng = np.random.default_rng(7)
        a, b, c = 1.3, 0.4, -0.9
        p = Polynomial(2, {(0, 0): a, (1, 0): -b, (0, 2): -c})
        y = random_vec(rng, 2, 4)
        L = localizing_matrix(y, p, 1)

        def entry(i, j):
            return (a * y[(i, j)] - b * y[(i + 1, j)] - c * y[(i, j + 2)])

        expect = np.array([
            [entry(0, 0), entry(1, 0), entry(0, 1)],
            [entry(1, 0), entry(2, 0), entry(1, 1)],
            [entry(0, 1), entry(1, 1), entry(0, 2)],
        ])
        assert np.allclose(L, expect, atol=1e-12)

    def test_dirac_outer_product(self):
        rng = np.random.default_rng(8)
        z = rng.uniform(-1, 1, 2)
        p = Polynomial(2, {(0, 0): 0.5, (2, 0): -1.0, (1, 1): 0.25})
        y = dirac_moments(z, 6)
        L = localizing_matrix(y, p, 2)
        v = basis_values(z, 2)
        assert np.allclose(L, p(z) * np.outer(v, v), atol=1e-12)

    def test_linear_in_polynomial_and_moments(self):
        rng = np.random.default_rng(9)
        y1, y2 = random_vec(rng, 2, 4), random_vec(rng, 2, 4)
        p1 = Polynomial(2, {(1, 0): 1.0, (0, 2): -0.5})
        p2 = Polynomial(2, {(0, 0): 2.0, (1, 1): 1.5})
        a, b = 0.7, -1.2
        combo_p = localizing_matrix(y1, a * p1 + b * p2, 1)
        parts_p = a * localizing_matrix(y1, p1, 1) + b * localizing_matrix(y1, p2, 1)
        assert np.allclose(combo_p, parts_p, atol=1e-12)
        mix = MomentVector(2, 4, a * y1.values + b * y2.values)
        combo_y = localizing_matrix(mix, p1, 1)
        parts_y = a * localizing_matrix(y1, p1, 1) + b * localizing_matrix(y2, p1, 1)
        assert np.allclose(combo_y, parts_y, atol=1e-12)


    @pytest.mark.parametrize("basis", ["monomial", "chebyshev"])
    @pytest.mark.parametrize("n,d", [(1, 2), (2, 1), (3, 1)])
    def test_matches_discrete_measure_oracle(self, n, d, basis):
        rng = np.random.default_rng(18)
        x0, xl = Polynomial.coordinate(n, 0), Polynomial.coordinate(n, n - 1)
        p = 0.5 - x0**2 + 0.3 * xl + 0.2 * x0 * xl
        pts, w = rng.uniform(-1, 1, (5, n)), rng.uniform(0.1, 1.0, 5)
        y = discrete_moments(pts, w, 2 * d + p.degree, basis)
        want = reference_measure_matrix(pts, w, d, basis, p)
        assert np.max(np.abs(localizing_matrix(y, p, d, basis) - want)) <= 1e-12

class TestPsdProperties:
    def assert_measure_psd(self, y, d):
        assert np.linalg.eigvalsh(moment_matrix(y, d))[0] >= -1e-8

    def test_uniform_and_beta_product_measures(self):
        # moments computed by per-coordinate closed forms: genuine measures
        # must give PSD moment matrices
        from chanceopt.measures import Beta, DistributionSpec, Uniform, moment_vector
        for coords in [
            (Uniform(-1, 1),),
            (Uniform(-1, 1), Beta(2.5, 1.5)),
            (Beta(4, 4), Uniform(-0.3, 0.9), Uniform(0, 1)),
        ]:
            spec = DistributionSpec(coords)
            for d in range(1, 4):
                y = moment_vector(spec, 2 * d)
                self.assert_measure_psd(y, d)

    def test_moment_bound(self):
        # PSD moment matrix bounds every entry by the max diagonal moment
        from chanceopt.measures import Beta, DistributionSpec, Uniform, moment_vector
        spec = DistributionSpec((Uniform(-1, 1), Beta(3, 2), Uniform(-0.5, 1)))
        for d in (1, 2, 3):
            y = moment_vector(spec, 2 * d)
            bound = max(
                y.values[0],
                max(y[tuple(2 * d if j == i else 0 for j in range(3))] for i in range(3)),
            )
            assert np.max(np.abs(y.values)) <= bound + 1e-8


class TestChebyshev:
    def test_transform_identity_for_degree_one(self):
        assert np.allclose(chebyshev_transform(1, 1), np.eye(2))

    def test_univariate_degree_two_row(self):
        T = chebyshev_transform(1, 2)
        assert np.allclose(T[2], [-1.0, 0.0, 2.0])     # T2 = 2 x^2 - 1

    def test_product_basis_degree_one_each(self):
        b = cheb_basis_poly((1, 1))
        assert b.terms == {(1, 1): 1.0}

    def test_transform_lower_triangular_invertible(self):
        for n, d in ((1, 4), (2, 3), (3, 2)):
            T = chebyshev_transform(n, d)
            assert np.allclose(T, np.tril(T))
            assert np.all(np.diag(T) > 0)

    def test_mono_cheb_inverts_cheb_mono(self):
        # x^k expanded in Chebyshev coordinates, re-expanded in monomials,
        # must reproduce x^k
        for k in range(9):
            acc = np.zeros(k + 1)
            for j, c in enumerate(mono_cheb_coeffs(k)):
                if c:
                    tj = cheb_mono_coeffs(j)
                    acc[: len(tj)] += c * np.array(tj)
            expect = np.zeros(k + 1)
            expect[k] = 1.0
            assert np.allclose(acc, expect, atol=1e-12)

    def test_power_table_matches_exact_closed_form(self):
        for k in range(21):
            want = [0.0] * (k + 1)
            for j, c in _exact_power_in_cheb(k):
                want[j] = float(c)          # a dyadic rational: exact as a float
            got = mono_cheb_coeffs(k)
            assert got == tuple(want) and all(type(c) is float for c in got), k

    def test_chebyshev_table_matches_integer_recurrence(self):
        # T_0 = 1, T_1 = x, T_k = 2x T_{k-1} - T_{k-2}, in exact integers
        tables = [[1], [0, 1]]
        for _ in range(2, 21):
            prev, cur = tables[-2], tables[-1]
            tables.append([2 * a - b for a, b in zip([0] + cur, prev + [0, 0])])
        for k, table in enumerate(tables):
            got = cheb_mono_coeffs(k)
            assert got == tuple(map(float, table)) and all(type(c) is float for c in got), k

    def test_ortho_moment_matrix_order_zero(self):
        rng = np.random.default_rng(11)
        y = random_vec(rng, 2, 2)
        M = moment_matrix(y, 0, "chebyshev")
        assert M.shape == (1, 1) and M[0, 0] == pytest.approx(y.values[0])

    def test_ortho_entry_halves(self):
        # diagonal entry for the x1 slot is (y00 + y20) / 2
        rng = np.random.default_rng(12)
        y = random_vec(rng, 2, 4)
        M = moment_matrix(y, 2, "chebyshev")
        assert M[1, 1] == pytest.approx((y[(0, 0)] + y[(2, 0)]) / 2)
        assert M[4, 4] == pytest.approx(
            (y[(0, 0)] + y[(2, 0)] + y[(0, 2)] + y[(2, 2)]) / 4
        )

    def test_ortho_matches_congruence_path(self):
        # independent computation: T_d M_d(T_{2d}^{-1} y) T_d' with an explicit
        # triangular solve, versus the expansion-table entries
        rng = np.random.default_rng(13)
        for n, d in ((1, 3), (2, 2)):
            y = random_vec(rng, n, 2 * d)
            direct = moment_matrix(y, d, "chebyshev")
            T2d = chebyshev_transform(n, 2 * d)
            pulled = np.linalg.solve(T2d, y.values)
            Td = chebyshev_transform(n, d)
            alt = Td @ moment_matrix(MomentVector(n, 2 * d, pulled), d) @ Td.T
            assert np.max(np.abs(direct - alt)) < 1e-10

    def test_ortho_localizing_matches_congruence_path(self):
        rng = np.random.default_rng(14)
        n, d = 2, 1
        p = Polynomial(2, {(0, 0): 0.8, (1, 0): -0.5, (0, 2): -1.1})
        order = 2 * d + p.degree
        y = random_vec(rng, n, order)
        direct = localizing_matrix(y, p, d, "chebyshev")
        Tfull = chebyshev_transform(n, order)
        pulled = np.linalg.solve(Tfull, y.values)
        Td = chebyshev_transform(n, d)
        alt = Td @ localizing_matrix(MomentVector(n, order, pulled), p, d) @ Td.T
        assert np.max(np.abs(direct - alt)) < 1e-10

    def test_formulations_isomorphic_on_measures(self):
        # genuine measure moments are feasible in both bases at once
        from chanceopt.measures import Beta, DistributionSpec, Uniform, moment_vector
        spec = DistributionSpec((Uniform(-1, 1), Beta(2, 5)))
        for d in (1, 2):
            y_mono = moment_vector(spec, 2 * d)
            y_cheb = moment_vector(spec, 2 * d, basis="chebyshev")
            assert np.linalg.eigvalsh(moment_matrix(y_mono, d))[0] >= -1e-8
            assert np.linalg.eigvalsh(moment_matrix(y_cheb, d, "chebyshev"))[0] >= -1e-8

    def test_dirac_cheb_rank_one(self):
        z = np.array([0.4, -0.2])
        y = dirac_moments(z, 4, basis="chebyshev")
        M = moment_matrix(y, 2, "chebyshev")
        v = basis_values(z, 2, basis="chebyshev")
        assert np.allclose(M, np.outer(v, v), atol=1e-12)

    def test_poly_cheb_coeffs_reconstruct(self):
        rng = np.random.default_rng(15)
        p = Polynomial(2, {(2, 1): 1.5, (0, 3): -0.7, (1, 0): 0.2, (0, 0): 0.9})
        coeffs = poly_cheb_coeffs(p)
        pts = rng.uniform(-1, 1, (25, 2))
        direct = p.eval_many(pts)
        rebuilt = np.zeros(len(pts))
        for gamma, c in coeffs.items():
            rebuilt += c * cheb_basis_poly(gamma).eval_many(pts)
        assert np.allclose(direct, rebuilt, atol=1e-12)

    @pytest.mark.parametrize("case", ["toy", "union"])
    def test_localizer_terms_within_one_ulp_of_exact(self, case):
        # every listed entry's terms against exact rational arithmetic; in the
        # union's column b_j = T_2(x_8), forming p * b_i * b_j in monomial
        # coordinates and converting it back was 54 ulp off
        d = 2
        if case == "toy":
            p = scale_problem(toy_problem()).problem.sets[0][0]
            entries = [(i, j) for j in range(basis_size(2, d)) for i in range(j + 1)]
        else:
            p = scale_problem(load_bundled("example2_union")[0]).problem.sets[0][0]
            col = exponents(10, d).index((0,) * 7 + (2, 0, 0))
            rng = np.random.default_rng(18)
            entries = [(i, col) for i in range(col + 1)] + [
                tuple(sorted(rng.choice(basis_size(10, d), 2))) for _ in range(60)]
        built = {}
        for i, j, rank, coef in zip(*localizing_block_terms(p, d, "chebyshev")):
            built.setdefault((i, j), {})[rank] = coef
        exps = exponents(p.num_vars, d)
        for i, j in entries:
            exact = exact_cheb_localizer_entry(p, exps[i], exps[j])
            got = built.get((i, j), {})
            assert set(got) == {monomial_rank(beta) for beta in exact}
            for beta, value in exact.items():
                assert ulps_off(got[monomial_rank(beta)], value) <= 1.0, (i, j, beta)

    def test_trace_functional_matches_matrix_trace(self):
        # the chance program's trace term on the decision moments
        rng = np.random.default_rng(16)
        x0, x1, q = (Polynomial.coordinate(3, i) for i in range(3))
        prob = ChanceProblem(
            name="two-dim", n=2, m=1, sets=((1.0 - x0 * x0 - x1 * q,),),
            dist=DistributionSpec((Uniform(-1.0, 1.0),)),
            decision_box=((-1.0, 1.0), (-1.0, 1.0)),
        )
        omega_r = 0.3
        for basis in ("monomial", "chebyshev"):
            prog = build_chance_sdp(prob, 2, omega_r=omega_r, basis=basis)
            y = random_vec(rng, 2, 4)
            val = prog.objective[prog.meta.yx_slice] @ y.values
            M = moment_matrix(y, 2, basis)
            assert val == pytest.approx(omega_r * np.trace(M), abs=1e-12)
