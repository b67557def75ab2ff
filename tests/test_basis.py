"""Tests for the weight and the orthonormal basis construction."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.stats import lognorm

from asianlns import (MarketParams, ValidationError, WeightParams,
                      default_weight, moments, orthonormal_basis, weight_density)

from oracles import basis_evaluate, gauss_hermite_gram, quad_weighted, weight_moment


def _w(nu2, mu=None):
    return WeightParams(mu=(-0.5 * nu2 if mu is None else mu), nu=math.sqrt(nu2))


class TestWeightParams:
    def test_validation(self):
        with pytest.raises(ValidationError):
            WeightParams(mu=0.0, nu=0.0)
        with pytest.raises(ValidationError):
            WeightParams(mu=math.nan, nu=0.5)

    def test_slotted_value(self):
        w = WeightParams(mu=0.2, nu=0.4)
        assert not hasattr(w, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            w.nu = 0.5
        twin = WeightParams(mu=0.2, nu=0.4)
        assert w == twin and hash(w) == hash(twin) and len({w, twin}) == 1
        assert w != WeightParams(mu=0.2, nu=0.5)

    def test_admissibility(self):
        m = MarketParams(r=0.0, sigma=0.5, T=1.0, S0=1.0, K=1.0)
        assert _w(0.126).admissible_for(m)       # > sigma^2 T / 2 = 0.125
        assert not _w(0.124).admissible_for(m)

    def test_moment_vector(self):
        w = WeightParams(mu=0.2, nu=0.4)
        n = np.arange(4)
        np.testing.assert_allclose(weight_moment(w, n),
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
        for bad in (np.nan, np.inf, np.array([1.0, np.nan]), [1.0, np.inf]):
            with pytest.raises(ValidationError):
                weight_density(WeightParams(mu=0.0, nu=1.0), bad)


class TestOrthonormalBasis:
    def test_degree_zero_is_constant_one(self):
        b = orthonormal_basis(_w(0.04), 0)
        np.testing.assert_array_equal(b.cbar, [[1.0]])
        np.testing.assert_allclose(basis_evaluate(b, np.array([0.5, 1.0, 2.0])), 1.0)

    def test_degree_one_closed_form(self):
        # b_1(x) = (x - e^{mu + nu^2/2}) / beta_1,
        # beta_1 = e^{mu + nu^2/2} sqrt(e^{nu^2} - 1)
        w = _w(0.09, mu=0.2)
        b = orthonormal_basis(w, 1)
        mean = math.exp(0.2 + 0.045)
        beta1 = mean * math.sqrt(math.expm1(0.09))
        x = np.array([0.7, 1.1, 1.9])
        np.testing.assert_allclose(basis_evaluate(b, x)[1], (x - mean) / beta1, rtol=1e-12)

    @pytest.mark.parametrize("nu", [0.7, 0.8, 1.2])
    def test_recurrence_orthonormal_by_quadrature(self, nu):
        w = WeightParams(mu=0.1, nu=nu)
        b = orthonormal_basis(w, 8)
        G = gauss_hermite_gram(b)
        assert np.max(np.abs(G - np.eye(9))) < 1e-6

    def test_positive_leading_coefficients(self):
        b = orthonormal_basis(_w(0.2), 8)
        assert np.all(np.diag(b.cbar) > 0.0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            orthonormal_basis(_w(0.2), -2)
