"""Distribution moments, the product lift, and sampling."""

import numpy as np
import pytest
from scipy import integrate, special

from chanceopt.errors import DimensionError, ModelError, OrderError
from chanceopt.measures import (
    Beta,
    DistributionSpec,
    ExplicitMoments,
    Uniform,
    lift_factors,
    moment_vector,
    sample,
    univariate_cheb_moment,
    univariate_moment,
)
from chanceopt.moments import MomentVector, cheb_mono_coeffs
from chanceopt.poly import basis_size, exponents
from chanceopt.problems import BUNDLED, load_bundled
from util import (
    dirac_moments,
    discrete_moments,
    joint_moment,
    lift,
    moment_matrix,
    reference_sample,
)

ROOT2 = 2.0**0.5


class TestUnivariateMoments:
    def test_uniform_symmetric(self):
        u = Uniform(-1.0, 1.0)
        vals = [univariate_moment(u, k) for k in range(5)]
        assert vals == [1.0, 0.0, 1.0 / 3.0, 0.0, 1.0 / 5.0]

    def test_uniform_unit_mean(self):
        assert univariate_moment(Uniform(0.0, 1.0), 1) == pytest.approx(0.5)

    def test_beta_means(self):
        assert univariate_moment(Beta(4.0, 4.0), 1) == pytest.approx(0.5)
        assert univariate_moment(Beta(3.0 - ROOT2, 3.0 + ROOT2), 1) == pytest.approx(
            (3.0 - ROOT2) / 6.0
        )

    def test_explicit_passthrough_and_guard(self):
        e = ExplicitMoments((1.0, 0.25, 0.5))
        assert univariate_moment(e, 2) == 0.5
        with pytest.raises(OrderError):
            univariate_moment(e, 3)

    def test_explicit_validation(self):
        with pytest.raises(ModelError):
            ExplicitMoments((0.9, 0.1))
        with pytest.raises(ModelError):
            ExplicitMoments((1.0, 1.5))

    @pytest.mark.parametrize("law, params", [
        (Beta, (float("inf"), 1.0)), (Beta, (1.0, float("inf"))), (Beta, (float("nan"), 1.0)),
        (ExplicitMoments, ((1.0, float("nan")),)),
    ])
    def test_non_finite_parameters_rejected(self, law, params):
        with pytest.raises(ModelError):
            law(*params)

    def test_quadrature_agreement(self):
        # every closed form against direct numerical integration, k <= 8
        cases = [
            Uniform(-1.0, 1.0), Uniform(-1.0, 0.0), Uniform(-0.5, 1.0),
            Uniform(0.5, 1.0),
            Beta(4.0, 4.0), Beta(3.0 - ROOT2, 3.0 + ROOT2), Beta(0.7, 2.3),
        ]
        for dist in cases:
            for k in range(9):
                if isinstance(dist, Uniform):
                    width = dist.hi - dist.lo
                    val, _ = integrate.quad(lambda t: t**k / width, dist.lo, dist.hi,
                                            epsabs=1e-13, epsrel=1e-13)
                else:
                    norm = special.beta(dist.alpha, dist.beta)

                    def pdf(t, a=dist.alpha, b=dist.beta):
                        return t ** (a - 1) * (1 - t) ** (b - 1) / norm

                    val, _ = integrate.quad(lambda t: t**k * pdf(t), 0.0, 1.0,
                                            epsabs=1e-13, epsrel=1e-13)
                assert univariate_moment(dist, k) == pytest.approx(val, abs=1e-10)

    def test_cheb_moment_consistency(self):
        # expectation of T_k assembled from raw moments equals quadrature
        dist = Uniform(-1.0, 1.0)
        for k in range(6):
            coeffs = cheb_mono_coeffs(k)
            val, _ = integrate.quad(
                lambda t: sum(c * t**j for j, c in enumerate(coeffs)) / 2.0, -1, 1)
            assert univariate_cheb_moment(dist, k) == pytest.approx(val, abs=1e-12)

    def test_uniform_validation(self):
        with pytest.raises(ModelError):
            Uniform(1.0, 1.0)
        with pytest.raises(ModelError):
            Uniform(0.0, float("inf"))


class TestJointMoments:
    def test_total_mass(self):
        spec = DistributionSpec((Uniform(-1, 1), Beta(2, 3)))
        assert joint_moment(spec, (0, 0)) == 1.0

    def test_independent_product(self):
        spec = DistributionSpec((Uniform(-1, 1), Uniform(-1, 1)))
        assert joint_moment(spec, (2, 2)) == pytest.approx(1.0 / 9.0)

    def test_odd_symmetric_vanishes(self):
        spec = DistributionSpec((Uniform(-0.7, 0.7), Uniform(-1, 1)))
        assert joint_moment(spec, (3, 2)) == pytest.approx(0.0, abs=1e-15)
        assert joint_moment(spec, (2, 1)) == pytest.approx(0.0, abs=1e-15)

    def test_length_guard(self):
        spec = DistributionSpec((Uniform(-1, 1),))
        with pytest.raises(DimensionError):
            joint_moment(spec, (1, 2))

    def test_moment_vector_indexing(self):
        spec = DistributionSpec((Uniform(-1, 1), Beta(3, 1)))
        y = moment_vector(spec, 4)
        for beta in exponents(2, 4):
            assert y[beta] == pytest.approx(joint_moment(spec, beta))


class TestProductLift:
    def test_worked_two_variable_display(self):
        # n = m = 1, uniform parameter: the lifted vector interleaves the
        # decision moments with 1, 0, 1/3, 0, 1/5 exactly as displayed
        rng = np.random.default_rng(0)
        yx_vals = np.concatenate([[1.0], rng.uniform(-1, 1, 4)])
        y_x = MomentVector(1, 4, yx_vals)
        spec = DistributionSpec((Uniform(-1, 1),))
        lifted = lift(y_x, spec, 4)
        x1, x2, x3, x4 = yx_vals[1:]
        expect = [1.0, x1, 0.0, x2, 0.0, 1 / 3, x3, 0.0, x1 / 3, 0.0,
                  x4, 0.0, x2 / 3, 0.0, 1 / 5]
        assert np.allclose(lifted.values, expect, atol=1e-15)

    def test_dirac_at_zero(self):
        y_x = dirac_moments([0.0, 0.0], 4)
        spec = DistributionSpec((Uniform(-1, 1), Uniform(0, 1)))
        lifted = lift(y_x, spec, 4)
        for theta in exponents(4, 4):
            alpha, beta = theta[:2], theta[2:]
            expect = joint_moment(spec, beta) if sum(alpha) == 0 else 0.0
            assert lifted[theta] == pytest.approx(expect)

    def test_definition_replay_random_entries(self):
        rng = np.random.default_rng(1)
        n, order = 2, 4
        y_x = MomentVector(n, order, rng.uniform(-1, 1, basis_size(n, order)))
        spec = DistributionSpec((
            ExplicitMoments((1.0, 0.3, 0.2, 0.1, 0.05)),
            Uniform(-0.5, 0.5),
        ))
        lifted = lift(y_x, spec, order)
        all_joint = exponents(n + 2, order)
        for idx in rng.integers(0, len(all_joint), 20):
            theta = all_joint[idx]
            alpha, beta = theta[:n], theta[n:]
            assert lifted[theta] == pytest.approx(
                y_x[alpha] * joint_moment(spec, beta), abs=1e-14
            )

    def test_lift_of_measure_is_psd(self):
        # decision moments from a genuine measure lift to genuine product
        # moments, so the joint moment matrix stays PSD
        rng = np.random.default_rng(2)
        pts = rng.uniform(-1, 1, (4, 2))
        wts = rng.dirichlet(np.ones(4))
        y_x = discrete_moments(pts, wts, 4)
        spec = DistributionSpec((Uniform(-1, 1), Beta(2, 2)))
        lifted = lift(y_x, spec, 4)
        assert np.linalg.eigvalsh(moment_matrix(lifted, 2))[0] >= -1e-8

    def test_sup_norm_contraction(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-1, 1, (3, 1))
        y_x = discrete_moments(pts, [0.2, 0.5, 0.3], 6)
        assert np.max(np.abs(y_x.values)) <= 1.0 + 1e-12
        spec = DistributionSpec((Uniform(-1, 1),))
        lifted = lift(y_x, spec, 6)
        assert np.max(np.abs(lifted.values)) <= 1.0 + 1e-12

    def test_lift_factors_linear_structure(self):
        spec = DistributionSpec((Uniform(-1, 1),))
        x_rank, q_fac = lift_factors(1, spec, 2)
        # joint exponents: 00, 10, 01, 20, 11, 02
        assert list(x_rank) == [0, 1, 0, 2, 1, 0]
        assert np.allclose(q_fac, [1, 1, 0, 1, 0, 1 / 3])


class TestSampling:
    def test_uniform_mean(self):
        spec = DistributionSpec((Uniform(0, 1),))
        draws = sample(spec, 100_000, 42)
        assert abs(float(np.mean(draws)) - 0.5) < 0.01

    def test_beta_mean(self):
        spec = DistributionSpec((Beta(4, 4),))
        draws = sample(spec, 100_000, 43)
        assert abs(float(np.mean(draws)) - 0.5) < 0.01

    def test_determinism(self):
        spec = DistributionSpec((Uniform(-1, 1), Beta(2, 5)))
        a = sample(spec, 500, 7)
        b = sample(spec, 500, 7)
        assert np.array_equal(a, b)

    def test_support(self):
        spec = DistributionSpec((Uniform(-0.25, 0.5), Beta(3, 3)))
        draws = sample(spec, 2000, 1)
        assert draws.shape == (2000, 2)
        assert np.all(draws[:, 0] >= -0.25) and np.all(draws[:, 0] <= 0.5)
        assert np.all(draws[:, 1] >= 0.0) and np.all(draws[:, 1] <= 1.0)

    @pytest.mark.parametrize("spec", [
        *(pytest.param(load_bundled(name)[0].dist, id=name) for name in BUNDLED),
        pytest.param(DistributionSpec((Beta(0.5, 0.5), Uniform(-0.3, 1.7), Beta(3, 1.5),
                                       Uniform(0.0, 1e-3))), id="mixed"),
    ])
    def test_matches_reference_sample(self, spec):
        for count in (1, 4095, 4096, 4097, 20_000):
            for seed in (3, np.random.SeedSequence([5, count])):
                draws = sample(spec, count, seed)
                assert draws.shape == (count, spec.m)
                assert draws.T.flags.c_contiguous  # coordinate-major storage
                assert np.array_equal(draws, reference_sample(spec, count, seed))

    def test_uniform_range_overflow(self):
        spec = DistributionSpec((Uniform(-1e308, 1e308),))
        for draw in (sample, reference_sample):
            with pytest.raises(OverflowError):
                draw(spec, 10, 0)

    def test_explicit_moments_cannot_sample(self):
        spec = DistributionSpec((ExplicitMoments((1.0, 0.0, 0.3)),))
        with pytest.raises(ModelError):
            sample(spec, 10, 0)
