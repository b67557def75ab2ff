"""Tests for the Monte-Carlo engine: simulation, estimators, error bound."""

import dataclasses
import math
import os
import warnings

import numpy as np
import pytest

from asianlns import (MarketParams, McConfig, ValidationError, WeightParams,
                      default_weight, error_bound, geometric_price_closed_form,
                      likelihood_norm_sq, mean_average, moments, price, price_cv,
                      density_cv, simulate, squared_relative_error)
from asianlns.mc import CHUNK_PATHS, _arith_malliavin_weight, _map_chunks

from oracles import dense_ibp_density, quad_weighted


#: the cores this process may run on, which is the default worker count
CORES = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)


class TestConfig:
    def test_defaults(self, monkeypatch):
        c = McConfig(seed=3)
        assert c.paths == 200_000 and c.dt == 1e-3 and c.batches == CORES
        assert [f.name for f in dataclasses.fields(McConfig)] == ["paths", "dt", "seed"]
        # the worker count is the CPU affinity, not a setting
        with pytest.raises(TypeError):
            McConfig(batches=2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert McConfig().batches == 1

    def test_validation(self):
        with pytest.raises(ValidationError):
            McConfig(paths=0)
        with pytest.raises(ValidationError):
            McConfig(dt=0.0)
        # a float seed would reuse the draws of its integer part
        for name in ("paths", "seed"):
            for bad in (1.5, 2.0, True, "3", None):
                with pytest.raises(ValidationError) as exc:
                    McConfig(**{name: bad})
                assert exc.value.module == "mc"
        c = McConfig(paths=np.int64(8), seed=np.uint32(5))
        assert [type(v) for v in (c.paths, c.seed)] == [int] * 2
        assert (c.paths, c.seed) == (8, 5)

    def test_dt_longer_than_expiry(self):
        m = MarketParams(r=0.0, sigma=0.2, T=0.5, S0=1.0, K=1.0)
        with pytest.raises(ValidationError):
            simulate(m, McConfig(paths=8, dt=1.0))


class TestSimulate:
    def test_frozen_dynamics(self):
        # vanishing volatility and rate freeze every path at the spot
        m = MarketParams(r=0.0, sigma=1e-8, T=1.0, S0=1.0, K=1.0)
        b = simulate(m, McConfig(paths=1024, dt=1e-2, seed=1))
        np.testing.assert_allclose(b.average, 1.0, atol=1e-6)
        np.testing.assert_allclose(b.terminal, 1.0, atol=1e-6)

    def test_chunk_layout(self):
        m = MarketParams(r=0.0, sigma=0.2, T=1.0, S0=1.0, K=1.0)
        cfg = McConfig(paths=CHUNK_PATHS + 17, dt=1e-2, seed=5)
        parts = list(_map_chunks(m, cfg, lambda draw, c: draw(0)))
        assert [p.n for p in parts] == [CHUNK_PATHS, 17]
        assert simulate(m, cfg).n == cfg.paths

    def test_sample_mean_matches_first_moment(self, cases, sim_cache, light_mc):
        m = cases[2].normalized()
        b = sim_cache(m, light_mc)
        m1 = mean_average(m)
        se = b.average.std(ddof=1) / math.sqrt(b.n)
        assert abs(b.average.mean() - m1) <= 3.0 * se

    def test_pathwise_am_gm(self, cases, sim_cache, light_mc):
        # at sigma = 1e-8 rounding alone would put Q above A on some paths
        tiny = MarketParams(r=0.0, sigma=1e-8, T=1.0, S0=1.0, K=1.0)
        for m, cfg in ((cases[5].normalized(), light_mc),
                       (tiny, McConfig(paths=4096, dt=2e-2, seed=3))):
            b = sim_cache(m, cfg)
            assert np.all(b.geo_average <= b.average)

    def test_brownian_consistent_with_terminal(self, cases, sim_cache, light_mc):
        m = cases[5].normalized()
        b = sim_cache(m, light_mc)
        drift = (m.r - 0.5 * m.sigma**2) * m.T
        np.testing.assert_allclose(np.log(b.terminal), drift + m.sigma * b.brownian,
                                   atol=1e-10)

    def test_deterministic_across_batch_parallelism(self, monkeypatch):
        # fewer chunks than workers (2 chunks) and more (3 chunks on 2 threads)
        m = MarketParams(r=0.05, sigma=0.4, T=1.0, S0=1.0, K=1.0)
        x = np.linspace(0.6, 1.6, 20)
        w = default_weight(m, mean_average(m))
        for paths in (3 * CHUNK_PATHS // 2, 5 * CHUNK_PATHS // 2):
            cfg = McConfig(paths=paths, dt=1e-2, seed=9)
            runs = []
            for workers in (1, 2, 8):
                monkeypatch.setattr("asianlns.mc._usable_cores", lambda: workers)
                assert cfg.batches == workers
                runs.append(self._estimates(m, cfg, x, w))
            for run in runs[1:]:
                for name, got in run.items():
                    assert np.array_equal(got, runs[0][name], equal_nan=True), (paths, name)

    @staticmethod
    def _estimates(m, cfg, x, w) -> dict:
        # the estimators reduce chunk by chunk in chunk order, so the worker
        # count changes none of their results
        s = simulate(m, cfg)
        e = price_cv(m, cfg)
        dc = density_cv(m, cfg, x)
        out = {"average": s.average, "terminal": s.terminal,
               "price": [e.value, e.std_error],
               "cv": [dc.value, dc.std_error, dc.variance_reduction]}
        for tilde in (False, True):
            est = likelihood_norm_sq(m, cfg, w, tilde_from_weight=tilde)
            out[f"norm_{tilde}"] = [est.value, est.std_error]
        return out

    def test_seed_changes_draws(self):
        m = MarketParams(r=0.05, sigma=0.4, T=1.0, S0=1.0, K=1.0)
        s1 = simulate(m, McConfig(paths=256, dt=1e-2, seed=1))
        s2 = simulate(m, McConfig(paths=256, dt=1e-2, seed=2))
        assert not np.array_equal(s1.average, s2.average)

    def test_independent_stream(self):
        m = MarketParams(r=0.05, sigma=0.4, T=1.0, S0=1.0, K=1.0)
        cfg = McConfig(paths=256, dt=1e-2, seed=1)
        s0 = simulate(m, cfg, stream=0)
        s1 = simulate(m, cfg, stream=1)
        assert not np.array_equal(s0.average, s1.average)


class TestGeometricClosedForm:
    def test_zero_strike(self):
        m = MarketParams(r=0.05, sigma=0.4, T=2.0, S0=1.0, K=0.0)
        mean = 0.5 * (0.05 - 0.08) * 2.0
        s2 = 0.16 * 2.0 / 3.0
        assert geometric_price_closed_form(m) == \
            pytest.approx(math.exp(-0.1) * math.exp(mean + 0.5 * s2), rel=1e-14)

    def test_against_quadrature(self, cases):
        # E[(Q - K)^+] with log Q normal(mean, sigma^2 T / 3)
        m = cases[2].normalized()
        mean = 0.5 * (m.r - 0.5 * m.sigma**2) * m.T
        s = m.sigma * math.sqrt(m.T / 3.0)
        want = math.exp(-m.r * m.T) * quad_weighted(
            lambda x: max(x - m.K, 0.0), mean, s)
        assert geometric_price_closed_form(m) == pytest.approx(want, rel=1e-10)

    def test_log_variance_matches_samples(self, cases, sim_cache, light_mc):
        m = cases[5].normalized()
        b = sim_cache(m, light_mc)
        lv = np.log(b.geo_average)
        want = m.sigma**2 * m.T / 3.0
        got = lv.var(ddof=1)
        se = got * math.sqrt(2.0 / (b.n - 1))  # sample-variance noise scale
        assert abs(got - want) <= 3.0 * se + 1e-4 * want  # small dt bias allowed


class TestPriceCv:
    def test_case1_interval(self, cases, full_mc):
        est = price_cv(cases[1], full_mc)
        lo, hi = est.ci95
        assert 0.05590 <= lo and hi <= 0.05610
        assert lo <= 0.05599 <= hi

    def test_zero_strike_unbiased(self, light_mc):
        m = MarketParams(r=0.05, sigma=0.5, T=1.0, S0=1.0, K=0.0)
        est = price_cv(m, light_mc)
        want = math.exp(-m.r * m.T) * mean_average(m)
        assert abs(est.value - want) <= 3.0 * est.std_error

    def test_estimate_fields(self, light_mc):
        m = MarketParams(r=0.05, sigma=0.3, T=1.0, S0=1.0, K=1.0)
        est = price_cv(m, light_mc)
        assert est.std_error > 0.0
        assert est.ci95 == (est.value - 1.96 * est.std_error,
                            est.value + 1.96 * est.std_error)
        assert est.n_effective == light_mc.paths


class TestDensityEstimators:
    def test_vanishes_at_origin_with_default_c(self, cases, light_mc):
        m = cases[5].normalized()
        est = density_cv(m, light_mc, np.array([1e-6]))
        assert est.value[0] == 0.0 and est.std_error[0] == 0.0

    def test_zero_mean_control_shift(self, cases, sim_cache, light_mc):
        # the deterministic shift c only removes a zero-expectation term:
        # with c = 0 the x -> 0 estimate is pure noise around zero
        m = cases[5].normalized()
        b = sim_cache(m, light_mc)
        w = _arith_malliavin_weight(m, b)
        se = w.std(ddof=1) / math.sqrt(b.n)
        assert w.mean() != 0.0
        assert abs(w.mean()) <= 4.0 * se

    def test_estimators_agree_at_mean(self, cases, full_mc):
        m = cases[3].normalized()
        x = np.array([mean_average(m)])
        plain_value, plain_se, _ = dense_ibp_density(m, full_mc, x, control_variate=False)
        cv = density_cv(m, full_mc, x)
        joint = math.hypot(plain_se[0], cv.std_error[0])
        assert abs(plain_value[0] - cv.value[0]) <= 3.0 * joint

    def test_grid_validation(self, cases, light_mc):
        with pytest.raises(ValidationError):
            density_cv(cases[5].normalized(), light_mc, np.array([0.0, 1.0]))


class TestGridReduction:
    """The sorted per-chunk grid reduction against the brute-force
    grid x paths formula on the same paths."""

    @staticmethod
    def assert_matches(got, want):
        assert np.array_equal(got == 0.0, want == 0.0)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("case", [1, 3, 5])
    def test_matches_dense_oracle(self, cases, case):
        m = cases[case].normalized()
        cfg = McConfig(paths=CHUNK_PATHS + 5000, dt=2e-2, seed=case)
        p = simulate(m, cfg)
        lo, hi = p.geo_average.min(), p.average.max()
        m1a = mean_average(m)
        m1q = math.exp(0.5 * (m.r - 0.5 * m.sigma**2) * m.T + m.sigma**2 * m.T / 6.0)
        assert m1q < m1a
        x = np.concatenate([
            np.linspace(hi, lo, 40),                          # descending
            [m1a, 1.05 * m1a, m1a],                           # a repeated point
            p.average[[0, 7, CHUNK_PATHS + 3]],               # ties with samples,
            p.geo_average[[1, CHUNK_PATHS + 9]],              # in both chunks
            np.linspace(m1q, m1a, 6)[1:-1],                   # 1{x <= E[A]} only
            [0.5 * lo, 2.0 * hi]])                            # outside every sample
        cv = density_cv(m, cfg, x)
        value, se, vr = dense_ibp_density(m, cfg, x, control_variate=True)
        self.assert_matches(cv.value, value)
        self.assert_matches(cv.std_error, se)
        self.assert_matches(cv.variance_reduction, vr)
        # outside every sample each term's set of paths is empty
        assert np.all(cv.std_error[-2:] == 0.0)
        assert np.all(np.isnan(cv.variance_reduction[-2:]))

    @pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                        reason="np.longdouble is plain double here")
    @pytest.mark.parametrize("sigma, rtol", [(1e-6, 1e-4), (1e-8, 1.0)])
    def test_cv_standard_error_at_large_variance_reduction(self, sigma, rtol):
        # a variance reduction of 1e13 (sigma 1e-6) or 1e17 (sigma 1e-8)
        # leaves only the digits beyond double of the expanded sums
        m = MarketParams(r=0.0, sigma=sigma, T=1.0, S0=1.0, K=1.0)
        cfg = McConfig(paths=4096, dt=2e-2, seed=3)
        p = simulate(m, cfg)
        lo, hi = p.geo_average.min(), p.average.max()
        x = np.concatenate([np.linspace(lo, hi, 50), [0.5 * lo, 2.0 * hi]])
        got = density_cv(m, cfg, x).std_error
        _, want, _ = dense_ibp_density(m, cfg, x, control_variate=True)
        assert np.array_equal(got == 0.0, want == 0.0)
        on = want != 0.0
        assert np.max(np.abs(got[on] - want[on]) / want[on]) <= rtol

    def test_single_path_standard_error_is_inf(self):
        m = MarketParams(r=0.05, sigma=0.4, T=1.0, S0=1.0, K=1.0)
        cfg = McConfig(paths=1, dt=1e-2, seed=3)
        x = np.array([0.5, 1.0, 1.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = density_cv(m, cfg, x)
            priced = price_cv(m, cfg)
        assert np.all(np.isfinite(est.value))
        assert np.all(est.std_error == math.inf)
        assert np.all(np.isnan(est.variance_reduction))
        assert priced.std_error == math.inf


class TestLikelihoodNorm:
    def test_synthetic_unit_norm(self, light_mc):
        # drawing the independent sample from the weight itself turns the
        # estimand into the total mass of g, i.e. exactly one
        m = MarketParams(r=0.18, sigma=0.3, T=1.0, S0=1.0, K=1.0)
        w = default_weight(m, float(moments(m, 1).values[1]))
        est = likelihood_norm_sq(m, light_mc, w, tilde_from_weight=True)
        assert abs(est.value - 1.0) <= 3.0 * est.std_error

    def test_inadmissible_weight_rejected(self, light_mc):
        m = MarketParams(r=0.05, sigma=1.0, T=1.0, S0=1.0, K=1.0)
        with pytest.raises(ValidationError):
            likelihood_norm_sq(m, light_mc, WeightParams(mu=0.0, nu=0.6), )

    def test_eps_ell_floor_across_orders(self, cases, full_mc):
        # ||ell||^2 - sum ell_n^2 stays above -3 SE for every N <= 20
        m = cases[2].normalized()
        ap = price(m, 20)
        est = likelihood_norm_sq(m, full_mc, ap.weight)
        partial = np.cumsum(ap.ell**2)
        assert np.all(est.value - partial >= -3.0 * est.std_error)


class TestErrorBound:
    def test_zero_for_zero_strike(self, light_mc):
        m = MarketParams(r=0.05, sigma=0.5, T=1.0, S0=2.0, K=0.0)
        ap = price(m, 10)
        est = likelihood_norm_sq(m.normalized(), light_mc, ap.weight)
        eb = error_bound(ap, est)
        assert eb.value == 0.0

    def test_negative_eps_ell_floored(self, cases, light_mc):
        m = cases[2].normalized()
        ap = price(m, 20)
        est = likelihood_norm_sq(m, light_mc, ap.weight)
        eb = error_bound(ap, est)
        assert eb.value >= 0.0
        assert eb.ci95[0] >= 0.0 and eb.ci95[1] >= eb.ci95[0]
        # raw eps_ell is preserved even when negative
        assert eb.eps_ell == pytest.approx(est.value - float(ap.ell @ ap.ell))

    def test_case5_joint_consistency(self, cases, full_mc):
        mkt = cases[5]
        ap = price(mkt, 20)
        est = likelihood_norm_sq(mkt.normalized(), full_mc, ap.weight)
        eb = error_bound(ap, est)
        mc = price_cv(mkt, full_mc)
        slack = 3.0 * (mc.std_error + eb.std_error)
        assert abs(mc.value - ap.price) <= eb.value + slack


class TestHelpers:
    def test_squared_relative_error_interval(self):
        from asianlns import McEstimate
        e = McEstimate(value=1.1, std_error=0.05, ci95=(1.002, 1.198), n_effective=10)
        sre, (lo, hi) = squared_relative_error(e, 1.0)
        assert sre == pytest.approx(0.01)
        assert lo == pytest.approx(0.002**2) and hi == pytest.approx(0.198**2)
        # interval straddling the series price pins the lower end at zero
        e2 = McEstimate(value=1.01, std_error=0.05, ci95=(0.912, 1.108), n_effective=10)
        _, (lo2, _hi2) = squared_relative_error(e2, 1.0)
        assert lo2 == 0.0
        # a relative error against a zero price is undefined
        e3 = McEstimate(value=0.0, std_error=0.0, ci95=(0.0, 0.0), n_effective=10)
        sre3, (lo3, hi3) = squared_relative_error(e3, 0.0)
        assert math.isnan(sre3) and math.isnan(lo3) and math.isnan(hi3)
