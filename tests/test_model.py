"""Tests for market parameters and moment computation."""

import dataclasses
import math
import random
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asianlns import (MarketParams, MomentOverflowError, ValidationError,
                      mean_average, moments, price)
from asianlns.basis import WeightParams, default_weight

from oracles import mp_relative_moments, rk4_moments, weight_moment


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
        dict(r=0.05, sigma=1e160, T=1.0, S0=1.0, K=1.0),  # sigma^2 T overflows
    ])
    def test_rejects_bad_inputs(self, kwargs):
        with pytest.raises(ValidationError):
            MarketParams(**kwargs)

    def test_negative_rate_allowed(self):
        MarketParams(r=-0.01, sigma=0.2, T=1.0, S0=1.0, K=1.0)

    def test_zero_strike_allowed(self):
        MarketParams(r=0.0, sigma=0.2, T=1.0, S0=1.0, K=0.0)

    def test_slotted_value(self):
        m = MarketParams(r=0.05, sigma=0.3, T=2.0, S0=100.0, K=95.0)
        assert not hasattr(m, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.K = 90.0
        twin = MarketParams(r=0.05, sigma=0.3, T=2.0, S0=100.0, K=95.0)
        assert m == twin and hash(m) == hash(twin) and len({m, twin}) == 1
        assert m != MarketParams(r=0.05, sigma=0.3, T=2.0, S0=100.0, K=90.0)

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
            np.testing.assert_allclose(rel * weight_moment(w, np.arange(21)), raw, rtol=1e-12)

    def test_relative_vs_taylor_oracle(self, cases):
        # the 50-digit oracle's degree-20 moments are the first 21 of its
        # degree-40 ones, since the generator is lower triangular
        markets = list(cases.values()) + [MarketParams(0.02, 0.01, 1.0, 1.0, 1.0),
                                          MarketParams(0.05, 1.2, 1.0, 1.0, 1.0)]
        for m in markets:
            norm = m.normalized()
            w = default_weight(norm, mean_average(norm))
            want = mp_relative_moments(m.r, m.sigma, m.T, w.mu, w.nu2, 40)
            for N in (20, 40):
                got = moments(norm, N, kind="relative", weight=w).values
                np.testing.assert_allclose(got, want[:N + 1], rtol=1e-11, err_msg=f"{m} N={N}")

    def test_relative_vs_taylor_oracle_on_cold_markets(self):
        # markets from the benchmark's cold-price domain, where the Taylor
        # factor takes 2 to 5 halvings and 3 to 6 blocks of terms
        rng = random.Random(23)
        for _ in range(40):
            T = rng.choice([0.25, 0.5, 1.0, 2.0, 3.0])
            tau = math.exp(rng.uniform(math.log(0.005), math.log(0.5)))
            m = MarketParams(rng.uniform(-0.02, 0.2), math.sqrt(tau / T), T, 1.0, 1.0)
            N = rng.choice([10, 15, 20])
            w = default_weight(m, mean_average(m))
            want = mp_relative_moments(m.r, m.sigma, m.T, w.mu, w.nu2, N)
            got = moments(m, N, kind="relative", weight=w).values
            np.testing.assert_allclose(got, want, rtol=1e-11, err_msg=f"{m} N={N}")

    def test_mean_average_correctly_rounded(self):
        # the share of draws on which m1 is expm1(rT) / (rT) correctly
        # rounded, rT taken exactly; 0.897 for this draw
        rng = random.Random(11)
        hits = 0
        with mpmath.workdps(40):
            for _ in range(2000):
                r = rng.uniform(-0.05, 0.25)
                T = math.exp(rng.uniform(math.log(1e-3), math.log(5.0)))
                x = mpmath.mpf(r) * mpmath.mpf(T)
                hits += mean_average(MarketParams(r, 0.2, T, 1.0, 1.0)) == float(mpmath.expm1(x) / x)
        assert hits >= 0.85 * 2000

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

    def test_absurd_market_raises_fast(self):
        # 2^j products of the Taylor factor, with j = 23 at r = -1e6, 29 at
        # sigma = 3000 and 1003 at sigma = 1e150: none may run them all.  At
        # r = -1e6 the loop stops at the first vector that overflows.  At
        # sigma = 1e150 no vector ever overflows: the raw moments, and the
        # relative ones of a narrow weight, raise because their
        # geometric-average lower bound overflows; those of the default
        # weight because their generator's subdiagonal underflows
        huge = MarketParams(r=0.05, sigma=1e150, T=1.0, S0=1.0, K=1.0)
        for market, kw in ((MarketParams(r=-1e6, sigma=0.3, T=1.0, S0=1.0, K=1.0), {}),
                           (MarketParams(r=0.05, sigma=3000.0, T=1.0, S0=1.0, K=1.0), {}),
                           (huge, {}),
                           (huge, dict(kind="relative",
                                       weight=default_weight(huge, mean_average(huge)))),
                           (huge, dict(kind="relative", weight=WeightParams(mu=0.0, nu=0.3)))):
            t0 = time.perf_counter()
            with pytest.raises(MomentOverflowError):
                moments(market, 20, **kw)
            assert time.perf_counter() - t0 < 0.5, (market, kw)
        # sigma^2 = 1e308 is finite but the generator's degree-3 entry is not
        with pytest.raises(MomentOverflowError, match="generator entries"):
            moments(MarketParams(r=0.05, sigma=1e154, T=1.0, S0=1.0, K=1.0), 20)

    def test_validation(self):
        m = MarketParams(r=0.0, sigma=0.1, T=1.0, S0=1.0, K=1.0)
        with pytest.raises(ValidationError):
            moments(m, -1)
        with pytest.raises(ValidationError):
            moments(m, 3, kind="bogus")
        with pytest.raises(ValidationError):
            moments(m, 3, kind="relative")  # weight missing
        with pytest.raises(ValidationError, match="raw moments take no weight"):
            moments(m, 3, weight=default_weight(m, 1.0))

    def test_mean_average_scales_with_spot(self):
        m = MarketParams(r=0.05, sigma=0.2, T=1.0, S0=2.0, K=1.0)
        assert mean_average(m) == pytest.approx(2.0 * 1.0254219275204823, rel=1e-12)
