"""Tests for the weight, Gram matrices and orthonormal basis construction."""

import math

import numpy as np
import pytest
from scipy.stats import lognorm

from asianlns import (MarketParams, NumericalError, ValidationError, WeightParams,
                      default_weight, gram, moments, orthonormal_basis, weight_density)
from asianlns.basis import CLOSED_FORM_ETA_MAX

from oracles import gauss_hermite_gram, mp_cbar, quad_weighted


def _w(nu2, mu=None):
    return WeightParams(mu=(-0.5 * nu2 if mu is None else mu), nu=math.sqrt(nu2))


class TestWeightParams:
    def test_validation(self):
        with pytest.raises(ValidationError):
            WeightParams(mu=0.0, nu=0.0)
        with pytest.raises(ValidationError):
            WeightParams(mu=math.nan, nu=0.5)

    def test_admissibility(self):
        m = MarketParams(r=0.0, sigma=0.5, T=1.0, S0=1.0, K=1.0)
        assert _w(0.126).admissible_for(m)       # > sigma^2 T / 2 = 0.125
        assert not _w(0.124).admissible_for(m)

    def test_moment_vector(self):
        w = WeightParams(mu=0.2, nu=0.4)
        n = np.arange(4)
        np.testing.assert_allclose(w.moment(n),
                                   np.exp(0.2 * n + 0.5 * n**2 * 0.16), rtol=1e-15)


class TestDefaultWeight:
    def test_unit_first_moment(self):
        m = MarketParams(r=0.0, sigma=0.1, T=1.0, S0=1.0, K=1.0)
        w = default_weight(m, 1.0)
        assert w.nu2 == pytest.approx(0.0051, abs=1e-18)
        assert w.mu == pytest.approx(-0.00255, abs=1e-18)

    def test_first_moment_matching(self):
        # mu is set so that the weight mean e^{mu + nu^2/2} equals m1
        m = MarketParams(r=0.02, sigma=0.1, T=1.0, S0=1.0, K=1.0)
        m1 = float(moments(m, 1).values[1])
        w = default_weight(m, m1)
        assert math.exp(w.mu + 0.5 * w.nu2) == pytest.approx(m1, rel=1e-15)

    def test_sigma_one(self):
        w = default_weight(MarketParams(r=0.0, sigma=1.0, T=1.0, S0=1.0, K=1.0), 1.0)
        assert w.nu2 == pytest.approx(0.5001, rel=1e-15)

    def test_rejects_bad_first_moment(self):
        m = MarketParams(r=0.0, sigma=0.1, T=1.0, S0=1.0, K=1.0)
        with pytest.raises(ValidationError):
            default_weight(m, 0.0)


def _raw_gram(w, N):
    """Moment matrix of the plain monomials, S Mbar S with S = diag(s_k)."""
    s = w.moment(np.arange(N + 1))
    return np.outer(s, s) * gram(w, N)


class TestGram:
    def test_raw_two_by_two(self):
        M = _raw_gram(WeightParams(mu=0.0, nu=1.0), 1)
        want = [[1.0, math.exp(0.5)], [math.exp(0.5), math.exp(2.0)]]
        np.testing.assert_allclose(M, want, rtol=1e-15)

    def test_scaled_is_mu_free(self):
        got1 = gram(WeightParams(mu=-3.0, nu=0.3), 1)
        got2 = gram(WeightParams(mu=5.0, nu=0.3), 1)
        want = [[1.0, 1.0], [1.0, math.exp(0.09)]]
        np.testing.assert_allclose(got1, want, rtol=1e-15)
        np.testing.assert_array_equal(got1, got2)

    def test_raw_positive_definite(self):
        M = _raw_gram(WeightParams(mu=0.0, nu=1.0), 3)
        eigs = np.linalg.eigvalsh(M)
        assert eigs.min() > 0.0
        np.linalg.cholesky(M)  # factorization succeeds as well

    def test_scaling_identity(self):
        # S Mbar S is the Hankel matrix of the weight moments s_{i+j} to 1e-12
        w = WeightParams(mu=0.15, nu=0.45)
        i = np.arange(9)
        np.testing.assert_allclose(_raw_gram(w, 8), w.moment(np.add.outer(i, i)),
                                   rtol=1e-12)

    def test_overflow_signalled(self):
        with pytest.raises(NumericalError):
            gram(WeightParams(mu=0.0, nu=6.0), 40)

    def test_rcond_monotone_trend(self):
        w = _w(0.09)
        r = [1.0 / np.linalg.cond(gram(w, N)) for N in (2, 4, 6, 8, 10)]
        assert all(v > 0.0 for v in r)
        # diagnostic: condition worsens with N (allow small wiggle)
        assert all(r[i + 1] <= r[i] * 1.1 for i in range(len(r) - 1))


class TestWeightDensity:
    def test_standard_point(self):
        assert weight_density(WeightParams(mu=0.0, nu=1.0), 1.0) == \
            pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-15)

    def test_mode_of_exponent(self):
        w = WeightParams(mu=0.3, nu=0.7)
        assert weight_density(w, math.exp(0.3)) == \
            pytest.approx(1.0 / (math.sqrt(2.0 * math.pi) * 0.7 * math.exp(0.3)),
                          rel=1e-15)

    def test_against_scipy_and_quadrature(self):
        w = WeightParams(mu=0.0, nu=0.5)
        got = weight_density(w, 2.0)
        assert got == pytest.approx(lognorm.pdf(2.0, s=0.5, scale=1.0), rel=1e-12)
        assert quad_weighted(lambda x: 1.0, 0.0, 0.5) == pytest.approx(1.0, abs=1e-10)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            weight_density(WeightParams(mu=0.0, nu=1.0), 0.0)
        with pytest.raises(ValidationError):
            weight_density(WeightParams(mu=0.0, nu=1.0), np.array([1.0, -2.0]))


class TestOrthonormalBasis:
    def test_degree_zero_is_constant_one(self):
        b = orthonormal_basis(_w(0.04), 0)
        np.testing.assert_array_equal(b.cbar, [[1.0]])
        np.testing.assert_allclose(b.evaluate(np.array([0.5, 1.0, 2.0])), 1.0)

    def test_degree_one_closed_form(self):
        # b_1(x) = (x - e^{mu + nu^2/2}) / beta_1,
        # beta_1 = e^{mu + nu^2/2} sqrt(e^{nu^2} - 1)
        w = _w(0.09, mu=0.2)
        b = orthonormal_basis(w, 1)
        mean = math.exp(0.2 + 0.045)
        beta1 = mean * math.sqrt(math.expm1(0.09))
        x = np.array([0.7, 1.1, 1.9])
        np.testing.assert_allclose(b.evaluate(x)[1], (x - mean) / beta1, rtol=1e-12)

    @pytest.mark.parametrize("nu2,N", [(0.125, 10), (0.25, 12), (0.5, 12), (0.64, 12)])
    def test_gram_identity_cholesky(self, nu2, N):
        b = orthonormal_basis(_w(nu2), N)
        assert b.gram_identity_error() < 1e-8

    @pytest.mark.parametrize("nu", [0.7, 0.8, 1.2])
    def test_recurrence_orthonormal_by_quadrature(self, nu):
        w = WeightParams(mu=0.1, nu=nu)
        b = orthonormal_basis(w, 8)
        G = gauss_hermite_gram(b.evaluate, w.mu, nu, 8)
        assert np.max(np.abs(G - np.eye(9))) < 1e-6

    def test_positive_leading_coefficients(self):
        b = orthonormal_basis(_w(0.2), 8)
        assert np.all(np.diag(b.cbar) > 0.0)

    @staticmethod
    def _assert_matches_oracle(w, N):
        # cbar against the inverse of a 90-digit Cholesky factor of Mbar,
        # entrywise on the kept block
        b = orthonormal_basis(w, N)
        m = b.resolvable_degree + 1
        want = mp_cbar(w.nu2, N)[:m, :m]
        np.testing.assert_allclose(b.cbar[:m, :m], want, rtol=1e-12, atol=0.0)
        return b

    @pytest.mark.parametrize("nu2", [0.005, 0.02, 0.05, 0.125, 0.25, 0.5])
    def test_method_agreement_on_stable_block(self, nu2):
        # the closed form agrees with a high-precision Cholesky construction
        # on every degree it keeps, and keeps at least degrees 0..8
        b = self._assert_matches_oracle(_w(nu2), 10)
        assert b.resolvable_degree >= 8
        # the kept degrees are those whose rounding estimate is in bounds
        R = b.resolvable_degree
        assert b.eta.shape == (11,) and b.eta[:R + 1].max() <= CLOSED_FORM_ETA_MAX
        assert R == 10 or b.eta[R + 1] > CLOSED_FORM_ETA_MAX

    def test_spec_example_agreement(self):
        # mu=0, nu=0.5, N=6: every degree kept, entrywise agreement
        b = self._assert_matches_oracle(WeightParams(mu=0.0, nu=0.5), 6)
        assert b.resolvable_degree == 6

    @pytest.mark.parametrize("nu2,N", [(0.0626, 20), (0.125, 10), (0.5, 12)])
    def test_closed_form_factor(self, nu2, N):
        # every degree kept, also where LAPACK breaks down on Mbar (0.0626, 20)
        b = self._assert_matches_oracle(_w(nu2), N)
        assert b.resolvable_degree == N

    def test_monomial_coefficients_match_scaled(self):
        w = _w(0.2, mu=0.1)
        b = orthonormal_basis(w, 5)
        C = b.monomial_coefficients()
        x = np.array([0.6, 1.0, 1.7])
        vals = np.array([[np.polyval(row[::-1], xi) for xi in x] for row in C])
        np.testing.assert_allclose(vals, b.evaluate(x), rtol=1e-10)

    def test_evaluate_rejects_nonpositive(self):
        b = orthonormal_basis(_w(0.2), 3)
        with pytest.raises(ValidationError):
            b.evaluate(np.array([1.0, 0.0]))

    def test_validation(self):
        with pytest.raises(ValidationError):
            orthonormal_basis(_w(0.2), -2)
