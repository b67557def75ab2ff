"""Tests for market parameters and moment computation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asianlns import (MarketParams, MomentOverflowError, ValidationError,
                      mean_average, moments, price)
from asianlns.basis import default_weight

from oracles import rk4_moments


class TestMarketParams:
    def test_valid_construction(self):
        m = MarketParams(r=0.05, sigma=0.3, T=2.0, S0=100.0, K=95.0)
        assert m.tau == pytest.approx(0.18)

    @pytest.mark.parametrize("kwargs", [
        dict(r=0.05, sigma=0.0, T=1.0, S0=1.0, K=1.0),
        dict(r=0.05, sigma=-0.1, T=1.0, S0=1.0, K=1.0),
        dict(r=0.05, sigma=0.3, T=0.0, S0=1.0, K=1.0),
        dict(r=0.05, sigma=0.3, T=1.0, S0=-2.0, K=1.0),
        dict(r=0.05, sigma=0.3, T=1.0, S0=1.0, K=-1.0),
        dict(r=math.nan, sigma=0.3, T=1.0, S0=1.0, K=1.0),
        dict(r=0.05, sigma=math.inf, T=1.0, S0=1.0, K=1.0),
    ])
    def test_rejects_bad_inputs(self, kwargs):
        with pytest.raises(ValidationError):
            MarketParams(**kwargs)

    def test_negative_rate_allowed(self):
        MarketParams(r=-0.01, sigma=0.2, T=1.0, S0=1.0, K=1.0)

    def test_zero_strike_allowed(self):
        MarketParams(r=0.0, sigma=0.2, T=1.0, S0=1.0, K=0.0)

    def test_tau_above_rule_record(self):
        ap = price(MarketParams(r=0.0, sigma=1.0, T=1.0, S0=1.0, K=1.0), 5)
        assert {"code": "tau_above_rule", "stage": "model", "value": 1.0,
                "threshold": 0.5} in ap.diagnostics
        ap = price(MarketParams(r=0.0, sigma=1.0, T=0.5, S0=1.0, K=1.0), 5)
        assert all(rec["code"] != "tau_above_rule" for rec in ap.diagnostics)

    def test_normalized(self):
        m = MarketParams(r=0.02, sigma=0.1, T=1.0, S0=2.0, K=3.0)
        n = m.normalized()
        assert n.S0 == 1.0 and n.K == 1.5 and n.r == m.r


class TestMoments:
    def test_zero_rate_first_moment(self):
        # r = 0 forces E[A_T] = 1; the 2x2 exponential is exact
        for sigma in (0.05, 0.3, 0.9):
            v = moments(MarketParams(r=0.0, sigma=sigma, T=1.0, S0=1.0, K=1.0), 1).values
            np.testing.assert_allclose(v, [1.0, 1.0], rtol=1e-14)

    def test_first_moment_closed_form(self):
        # (e^{rT} - 1) / (rT); frozen from math.expm1(0.05)/0.05
        v = moments(MarketParams(r=0.05, sigma=0.5, T=1.0, S0=1.0, K=1.0), 1).values
        assert v[1] == pytest.approx(1.0254219275204823, rel=1e-13)

    def test_degree_four_vs_rk4(self):
        m = MarketParams(r=0.05, sigma=0.5, T=1.0, S0=1.0, K=1.0)
        got = moments(m, 4).values
        want = rk4_moments(0.05, 0.5, 1.0, 4, steps=100_000)
        np.testing.assert_allclose(got, want, rtol=1e-10)

    @pytest.mark.parametrize("r,sigma,T", [(0.02, 0.10, 1.0), (0.05, 0.50, 2.0)])
    def test_degree_twenty_vs_rk4(self, r, sigma, T):
        m = MarketParams(r=r, sigma=sigma, T=T, S0=1.0, K=1.0)
        got = moments(m, 20).values
        want = rk4_moments(r, sigma, T, 20, steps=40_000)
        np.testing.assert_allclose(got, want, rtol=1e-9)

    def test_eigenvalue_collision_negative_rate(self):
        # r = -sigma^2 makes lambda_1 = lambda_2; the exponential action
        # must not rely on distinct eigenvalues
        m = MarketParams(r=-0.09, sigma=0.3, T=1.0, S0=1.0, K=1.0)
        got = moments(m, 6).values
        want = rk4_moments(-0.09, 0.3, 1.0, 6, steps=40_000)
        np.testing.assert_allclose(got, want, rtol=1e-9)

    def test_scaling_consistency(self, cases):
        # relative * s_n reproduces raw to 1e-12 on the benchmark grid
        for m in cases.values():
            norm = m.normalized()
            m1 = float(moments(norm, 1).values[1])
            w = default_weight(norm, m1)
            raw = moments(norm, 20).values
            rel = moments(norm, 20, kind="relative", weight=w).values
            np.testing.assert_allclose(rel * w.moment(np.arange(21)), raw, rtol=1e-12)

    def test_unit_zeroth_moment(self, cases):
        for m in cases.values():
            assert moments(m.normalized(), 12).values[0] == 1.0

    @settings(deadline=None, max_examples=40)
    @given(r=st.floats(-0.1, 0.25), sigma=st.floats(0.05, 1.0),
           T=st.floats(0.1, 3.0), N=st.integers(2, 12))
    def test_log_convexity_property(self, r, sigma, T, N):
        # Cauchy-Schwarz for moments of a positive variable:
        # m_n^2 <= m_{n-1} m_{n+1}
        v = moments(MarketParams(r=r, sigma=sigma, T=T, S0=1.0, K=1.0), N).values
        assert np.all(v > 0.0)
        assert np.all(v[1:-1] ** 2 <= v[:-2] * v[2:] * (1.0 + 1e-12))

    def test_monotone_in_rate(self):
        grid = [-0.05, 0.0, 0.03, 0.1, 0.2]
        vals = [moments(MarketParams(r=r, sigma=0.3, T=1.0, S0=1.0, K=1.0), 1).values[1]
                for r in grid]
        assert np.all(np.diff(vals) > 0.0)

    def test_raw_overflow_signalled(self):
        m = MarketParams(r=0.05, sigma=1.0, T=2.0, S0=1.0, K=1.0)
        with pytest.raises(MomentOverflowError):
            moments(m, 40)
        # the relative path survives the same configuration
        w = default_weight(m, float(moments(m, 1).values[1]))
        rel = moments(m, 40, kind="relative", weight=w)
        assert np.all(np.isfinite(rel.values))

    def test_validation(self):
        m = MarketParams(r=0.0, sigma=0.1, T=1.0, S0=1.0, K=1.0)
        with pytest.raises(ValidationError):
            moments(m, -1)
        with pytest.raises(ValidationError):
            moments(m, 3, kind="bogus")
        with pytest.raises(ValidationError):
            moments(m, 3, kind="relative")  # weight missing

    def test_mean_average_scales_with_spot(self):
        m = MarketParams(r=0.05, sigma=0.2, T=1.0, S0=2.0, K=1.0)
        assert mean_average(m) == pytest.approx(2.0 * 1.0254219275204823, rel=1e-12)
