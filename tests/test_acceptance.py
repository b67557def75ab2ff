"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  The Monte-Carlo criteria use the fixed verification budget
(``conftest.FULL_MC``: 200000 paths, dt = 1e-3, seed 42).
"""

import math
import time

import numpy as np
import pytest

from asianlns import (MarketParams, WeightParams,
                      benchmark_cases, geo_average_density, likelihood_norm_sq,
                      moments, orthonormal_basis, price, price_cv, density_cv,
                      reference_case, squared_relative_error)
from asianlns.mc import _geo_malliavin_weight, _arith_malliavin_weight
from asianlns.pricer import clear_kernel_cache
from oracles import gram_identity_error, mp_cbar, rk4_moments


def _report(name):
    print(f"PASS: {name}")


class TestTableOneReproduction:
    def test_all_21_prices_within_tolerance_and_budget(self):
        """Published series prices reproduced to +-2e-4, 21 prices < 1 s."""
        clear_kernel_cache()
        t0 = time.perf_counter()
        computed = {(i, N): price(m, N).price
                    for i, m in enumerate(benchmark_cases(), start=1)
                    for N in (10, 15, 20)}
        elapsed = time.perf_counter() - t0
        for i in range(1, 8):
            ref = reference_case(i)
            for N in (10, 15, 20):
                want = ref[f"lns{N}"]
                got = computed[(i, N)]
                assert got == pytest.approx(want, abs=2e-4), \
                    f"case {i} N={N}: {got} vs {want}"
        assert elapsed < 1.0, f"21 prices took {elapsed:.3f}s"
        _report(f"Table-1 reproduction: 21/21 prices within 2e-4 "
                f"({elapsed * 1e3:.0f} ms total)")

    def test_reference_rows_are_cases_1_to_7(self):
        assert [reference_case(i)["case"] for i in range(1, 8)] == list(range(1, 8))
        with pytest.raises(KeyError, match="no benchmark case 8"):
            reference_case(8)


class TestCaseOneHighAccuracy:
    def test_lns20_four_decimals(self):
        """Case-1 series price at N=20 agrees with the .05599 reference to
        four decimal places."""
        got = price(benchmark_cases()[0], 20).price
        assert abs(got - 0.05599) < 5e-5
        _report(f"case-1 N=20 four-decimal check: |{got:.7f} - 0.05599| = "
                f"{abs(got - 0.05599):.1e} < 5e-5")


class TestAnalyticIdentitySuite:
    @pytest.mark.parametrize("N", [12, 20])
    def test_ell0_and_ell1(self, N):
        for m in benchmark_cases():
            ap = price(m, N)
            assert abs(ap.ell[0] - 1.0) < 1e-10
            assert abs(ap.ell[1]) < 1e-10
        _report(f"ell_0 = 1 and ell_1 = 0 (1e-10) on all seven cases, N={N}")

    def test_payoff_projection_error_bessel(self):
        for m in benchmark_cases():
            prof = price(m, 20).eps_payoff_profile()
            assert prof[-1] >= -1e-10
            assert np.all(np.diff(prof) <= 0.0)
        _report("eps_F >= -1e-10 and non-increasing in N (profiles to N=20)")

    def test_zero_strike_exactness(self):
        for m in benchmark_cases():
            mk = MarketParams(r=m.r, sigma=m.sigma, T=m.T, S0=m.S0, K=0.0)
            want = math.exp(-mk.r * mk.T) * \
                float(moments(mk.normalized(), 1).values[1]) * mk.S0
            for N in (1, 20):
                assert price(mk, N).price == pytest.approx(want, rel=1e-12)
        _report("K=0, N>=1 price equals discounted mean average (1e-12 rel)")

    @pytest.mark.parametrize("N", [15, 20])
    def test_normalization_equivariance(self, N):
        for m in benchmark_cases():
            assert price(m, N).price == \
                pytest.approx(m.S0 * price(m.normalized(), N).price, rel=1e-12)
        _report(f"pricing (S0, K) equals S0 x pricing (1, K/S0) (1e-12 rel), N={N}")

    def test_basis_gram_identity(self):
        # the domain where double precision can represent the identity at
        # all: pivot ratios above ~1e-6 of the matrix scale
        grid = [(0.125, 10), (0.25, 12), (0.5, 12), (0.64, 12)]
        for nu2, N in grid:
            b = orthonormal_basis(WeightParams(mu=-0.5 * nu2, nu=math.sqrt(nu2)), N)
            err = gram_identity_error(b)
            assert err < 1e-8, (nu2, N, err)
        _report("Gram identity |cbar Mbar cbar' - I| < 1e-8 on the "
                "double-precision-feasible grid")

    def test_basis_vs_high_precision_oracle(self):
        # on the kept degrees; the rows above them are exact zeros
        for nu2, N in ((0.0051, 20), (0.0626, 20), (0.5, 40), (1.44, 20), (2.0, 20)):
            w = WeightParams(mu=-0.5 * nu2, nu=math.sqrt(nu2))
            b = orthonormal_basis(w, N)
            m = b.resolvable_degree + 1
            want = mp_cbar(w.nu2, N)[:m, :m]
            np.testing.assert_allclose(b.cbar[:m, :m], want, rtol=1e-12, atol=0.0,
                                       err_msg=f"nu^2={nu2}, N={N}")
            assert np.all(b.cbar[m:] == 0.0)
        _report("basis coefficients vs 90-digit Cholesky oracle < 1e-12 rel on "
                "the kept degrees for nu^2 in [0.0051, 2], N <= 40")

    def test_moments_vs_rk4(self):
        for (r, sigma, T) in ((0.02, 0.10, 1.0), (0.05, 0.50, 1.0),
                              (0.05, 0.50, 2.0), (-0.09, 0.30, 1.0)):
            m = MarketParams(r=r, sigma=sigma, T=T, S0=1.0, K=1.0)
            got = moments(m, 20).values
            want = rk4_moments(r, sigma, T, 20, steps=40_000)
            np.testing.assert_allclose(got, want, rtol=1e-9)
        _report("moment exponential vs RK4 oracle (1e-9 rel, N=20)")


class TestMonteCarloSuite:
    def test_cv_price_intervals(self, full_mc):
        """CV 95% interval within 2e-4 of the N=20 series price, cases 2-7."""
        t0 = time.perf_counter()
        worst = 0.0
        for i, m in enumerate(benchmark_cases(), start=1):
            if i == 1:
                continue
            est = price_cv(m, full_mc)
            lns = price(m, 20).price
            dist = max(est.ci95[0] - lns, lns - est.ci95[1], 0.0)
            worst = max(worst, dist)
            assert dist < 2e-4, f"case {i}: CI distance {dist:.2e}"
        _report(f"CV price CIs vs LNS20, cases 2-7: max distance "
                f"{worst:.1e} < 2e-4 ({time.perf_counter() - t0:.0f}s)")

    def test_geometric_malliavin_density(self, sim_cache, full_mc):
        """Integration-by-parts estimate of the geometric density matches
        the closed form within 3 SE on a 50-point central-99% grid."""
        m = benchmark_cases()[4].normalized()
        b = sim_cache(m, full_mc)
        mq = 0.5 * (m.r - 0.5 * m.sigma**2) * m.T
        s = m.sigma * math.sqrt(m.T / 3.0)
        x = np.linspace(math.exp(mq - 2.576 * s), math.exp(mq + 2.576 * s), 50)
        wq = _geo_malliavin_weight(m, b)
        ind = (b.geo_average[None, :] >= x[:, None]).astype(float) \
            - (x[:, None] <= math.exp(mq + 0.5 * s * s))
        vals = ind * wq
        z = np.abs(vals.mean(1) - geo_average_density(m, x)) \
            / (vals.std(1, ddof=1) / math.sqrt(b.n))
        assert np.all(z <= 3.0), f"max z = {z.max():.2f}"
        _report(f"geometric Malliavin vs closed form: max |z| = {z.max():.2f} <= 3")

    def test_variance_reduction_factor(self, full_mc):
        m = benchmark_cases()[4].normalized()
        w = price(m, 1).weight
        x = np.linspace(math.exp(w.mu - 2.3 * w.nu), math.exp(w.mu + 2.3 * w.nu), 50)
        est = density_cv(m, full_mc, x)
        vr = est.variance_reduction[np.isfinite(est.variance_reduction)]
        mean_vr = float(np.mean(vr))
        assert mean_vr >= 3.0
        _report(f"control-variate density: mean variance reduction "
                f"{mean_vr:.1f}x >= 3x")

    def test_density_mass(self, sim_cache, full_mc):
        m = benchmark_cases()[4].normalized()
        b = sim_cache(m, full_mc)
        wgt = _arith_malliavin_weight(m, b)
        m1 = float(moments(m, 1).values[1])
        mass = (b.average - m1) * wgt  # exact per-path integral over x
        se = mass.std(ddof=1) / math.sqrt(b.n)
        assert abs(mass.mean() - 1.0) <= 3.0 * se
        _report(f"density mass = {mass.mean():.4f} +- {se:.4f}, within 3 SE of 1")


SWEEP_SIGMAS = (0.1, 0.3, 0.5, 0.7, 0.85, 1.0)


@pytest.fixture(scope="module")
def sweep(full_mc):
    """eps_ell estimates over the reduced volatility grid (N = 20)."""
    rows = {}
    for sg in SWEEP_SIGMAS:
        mkt = MarketParams(r=0.05, sigma=sg, T=1.0, S0=2.0, K=2.0)
        ap = price(mkt, 20)
        est = likelihood_norm_sq(mkt.normalized(), full_mc, ap.weight)
        eps_ell = est.value - float(ap.ell @ ap.ell)
        rows[sg] = (ap, est, eps_ell)
    return rows


class TestErrorRegime:
    """Reduced Fig.-3 sweep: sigma in {.1,.3,.5,.7,.85,1.0}, T=1, r=.05,
    S0=K=2, N=20."""

    def test_bound_indistinguishable_from_zero_low_vol(self, sweep):
        for sg in (0.1, 0.3, 0.5):
            _, est, eps_ell = sweep[sg]
            assert abs(eps_ell) <= 3.0 * est.std_error, \
                f"sigma={sg}: eps_ell {eps_ell:.4g} vs se {est.std_error:.4g}"
        _report("error bound statistically zero (within 3 SE) for sigma <= 0.5")

    def test_bound_positive_at_extreme_vol(self, sweep):
        _, est, eps_ell = sweep[1.0]
        assert eps_ell > 3.0 * est.std_error
        _report(f"error bound strictly positive at sigma = 1.0 "
                f"(eps_ell = {eps_ell / est.std_error:.1f} SE)")

    def test_sqrt_sre_at_sigma_08(self, full_mc):
        mkt = MarketParams(r=0.05, sigma=0.8, T=1.0, S0=2.0, K=2.0)
        ap = price(mkt, 20)
        est = price_cv(mkt, full_mc)
        sre, (lo, hi) = squared_relative_error(est, ap.price)
        assert lo <= 0.005**2 <= hi, \
            f"sqrt(SRE) CI [{math.sqrt(lo):.4f}, {math.sqrt(hi):.4f}] misses 0.5%"
        _report(f"sqrt(SRE) at sigma=0.8: {math.sqrt(sre):.2%}, "
                f"CI contains 0.5%")


class TestDocumentedExclusions:
    def test_out_of_scope_items_are_documented(self):
        """Desk-scale exclusions: exact-arithmetic eight-decimal agreement,
        absolute timing reproduction, competitor-method internals (their
        published prices ship as fixture data only)."""
        ref = reference_case(1)
        assert {"ls", "ee", "vec"} <= set(ref)  # fixtures present, not computed
        _report("excluded items documented: exact-arithmetic check, absolute "
                "timings, competitor methods (fixture data only)")
