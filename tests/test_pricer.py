"""Tests for coefficients, the series price and the density approximant."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.stats import norm

from asianlns import (DensityApproximant, MarketParams, ValidationError, WeightParams,
                      benchmark_cases, default_weight, likelihood_coefficients,
                      mean_average, moments, payoff_coefficients,
                      orthonormal_basis, payoff_norm_sq, price,
                      scaled_payoff_projections, weight_density)
from asianlns.basis import CLOSED_FORM_ETA_MAX
from asianlns.pricer import _d_values, _diagnostics, clear_kernel_cache

from oracles import basis_evaluate, quad_payoff_moment, quad_payoff_norm_sq, weight_moment


def _default_weight_for(market):
    norm_mkt = market.normalized()
    return default_weight(norm_mkt, float(moments(norm_mkt, 1).values[1]))


class TestPayoffProjections:
    def test_zero_strike_limit(self):
        # every Phi term is one: fbar_i = exp(mu + (2i+1) nu^2 / 2)
        w = WeightParams(mu=0.1, nu=0.3)
        got = scaled_payoff_projections(w, 0.0, 3)
        i = np.arange(4)
        np.testing.assert_allclose(got, np.exp(0.1 + 0.5 * (2 * i + 1) * 0.09),
                                   rtol=1e-15)

    def test_against_quadrature_case2(self, cases):
        # <(x-K)^+ x^n>_w matches adaptive quadrature to 1e-8 relative
        w = _default_weight_for(cases[2])
        fbar = scaled_payoff_projections(w, 1.0, 3)
        for n in range(4):
            want = quad_payoff_moment(w.mu, w.nu, 1.0, n) / weight_moment(w, n)
            assert fbar[n] == pytest.approx(float(want), rel=1e-8)

    def test_coefficients_in_currency_units(self, cases):
        # f carries the S0 rescaling: doubling the spot (with the strike)
        # doubles every coefficient
        m = cases[5]
        ap = price(m.normalized(), 12)
        f1 = payoff_coefficients(m.normalized(), ap.weight, ap.basis)
        f2 = payoff_coefficients(m, ap.weight, ap.basis)
        np.testing.assert_allclose(f2, m.S0 * f1, rtol=1e-14)
        np.testing.assert_allclose(f1, ap.f, rtol=1e-14)

    def test_zero_strike_pins_high_degrees(self):
        m = MarketParams(r=0.05, sigma=0.5, T=1.0, S0=1.0, K=0.0)
        ap = price(m, 8)
        f = payoff_coefficients(m, ap.weight, ap.basis)
        assert np.all(f[2:] == 0.0)
        # degree 0/1 match the weight-moment closed forms
        disc = math.exp(-m.r * m.T)
        alpha0 = math.exp(ap.weight.mu + 0.5 * ap.weight.nu2)
        beta1 = alpha0 * math.sqrt(math.expm1(ap.weight.nu2))
        assert f[0] == pytest.approx(disc * alpha0, rel=1e-12)
        assert f[1] == pytest.approx(disc * beta1, rel=1e-12)

    def test_weight_mismatch_rejected(self, cases):
        ap = price(cases[5], 6)
        other = WeightParams(mu=ap.weight.mu + 0.1, nu=ap.weight.nu)
        with pytest.raises(ValidationError):
            payoff_coefficients(cases[5], other, ap.basis)

    def test_strike_at_exp_mu(self):
        # K = e^mu gives d_0 = 0, so the K Phi(d_0) subtraction is K/2
        w = WeightParams(mu=-0.07, nu=0.4)
        k = math.exp(w.mu)
        d = _d_values(w, k, 2)
        assert d[0] == pytest.approx(0.0, abs=1e-15)
        fbar0 = scaled_payoff_projections(w, k, 0)[0]
        lead = math.exp(w.mu + 0.5 * w.nu2)
        assert fbar0 == pytest.approx(lead * norm.cdf(d[1]) - 0.5 * k, rel=1e-14)


class TestPayoffNormSq:
    def test_zero_strike(self):
        m = MarketParams(r=0.03, sigma=0.3, T=1.0, S0=1.0, K=0.0)
        w = WeightParams(mu=0.05, nu=0.4)
        assert payoff_norm_sq(m, w) == \
            pytest.approx(math.exp(-0.06) * math.exp(0.1 + 0.32), rel=1e-14)

    def test_against_quadrature_case7(self, cases):
        m = cases[7].normalized()
        w = _default_weight_for(m)
        want = quad_payoff_norm_sq(m.r, m.T, w.mu, w.nu, m.K)
        assert payoff_norm_sq(m, w) == pytest.approx(want, rel=1e-8)

    def test_deep_out_of_the_money_vanishes(self):
        w = WeightParams(mu=0.0, nu=0.3)
        vals = [payoff_norm_sq(MarketParams(r=0.0, sigma=0.3, T=1.0, S0=1.0, K=k), w)
                for k in (2.0, 5.0, 10.0, 50.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-15

    def test_spot_scaling(self):
        w = WeightParams(mu=0.0, nu=0.3)
        a = payoff_norm_sq(MarketParams(r=0.0, sigma=0.3, T=1.0, S0=1.0, K=1.0), w)
        b = payoff_norm_sq(MarketParams(r=0.0, sigma=0.3, T=1.0, S0=3.0, K=3.0), w)
        assert b == pytest.approx(9.0 * a, rel=1e-14)


class TestLikelihoodCoefficients:
    def test_ell0_is_one(self, cases):
        for m in cases.values():
            ap = price(m, 12)
            assert abs(ap.ell[0] - 1.0) < 1e-10

    def test_ell1_vanishes_with_default_weight(self, cases):
        for m in cases.values():
            ap = price(m, 12)
            assert abs(ap.ell[1]) < 1e-10

    def test_kind_and_degree_validation(self):
        m = MarketParams(r=0.05, sigma=0.4, T=1.0, S0=1.0, K=1.0)
        ap = price(m, 6)
        raw = moments(m, 6)
        with pytest.raises(ValidationError):
            likelihood_coefficients(raw, ap.basis)
        rel5 = moments(m, 5, kind="relative", weight=ap.weight)
        with pytest.raises(ValidationError):
            likelihood_coefficients(rel5, ap.basis)

    def test_against_direct_simulation(self, cases, sim_cache, full_mc):
        # ell_n = E[b_n(A_T)]: check the whole chain against path samples
        m = cases[5].normalized()
        ap = price(m, 12)
        batch = sim_cache(m, full_mc)
        B = basis_evaluate(ap.basis, batch.average)
        for n in range(5):
            est = B[n].mean()
            se = B[n].std(ddof=1) / math.sqrt(batch.n)
            assert abs(ap.ell[n] - est) <= 3.0 * se + 1e-12  # 3 SE (se=0 at n=0)


class TestPrice:
    def test_zero_strike_forward_value(self):
        # degree-1 payoff is reproduced exactly by the projection
        m = MarketParams(r=0.05, sigma=0.5, T=1.0, S0=1.0, K=0.0)
        want = math.exp(-0.05) * math.expm1(0.05) / 0.05
        for N in (1, 3, 5, 20):
            assert price(m, N).price == pytest.approx(want, rel=1e-12)

    def test_price_is_inner_product(self, cases):
        ap = price(cases[3], 15)
        assert ap.price == float(ap.f @ ap.ell)

    def test_n0_equals_n1_with_default_weight(self, cases):
        for m in cases.values():
            p0 = price(m, 0).price
            p1 = price(m, 1).price
            assert abs(p1 - p0) < 1e-10

    def test_price_stability_15_vs_20(self, cases):
        for m in cases.values():
            assert abs(price(m, 20).price - price(m, 15).price) < 5e-4

    def test_eps_payoff_zero_strike(self):
        ap = price(MarketParams(r=0.05, sigma=0.5, T=1.0, S0=2.0, K=0.0), 10)
        assert ap.eps_payoff == 0.0

    def test_bessel_sums_grow(self, cases):
        ap = price(cases[5], 20)
        assert np.all(np.diff(np.cumsum(ap.f**2)) >= 0.0)
        assert np.all(np.diff(np.cumsum(ap.ell**2)) >= 0.0)

    def test_put_call_parity_on_coefficients(self, cases):
        # discounted (x-k)^+ minus (k-x)^+ is the discounted forward x - k;
        # the same identity must hold coefficientwise after projection
        for ci, N in ((2, 8), (4, 20), (5, 20), (6, 20), (7, 20)):
            m = cases[ci]
            ap = price(m, N)
            w, basis = ap.weight, ap.basis
            k = m.K / m.S0
            disc = math.exp(-m.r * m.T)
            i = np.arange(N + 1, dtype=float)
            lead = np.exp(w.mu + 0.5 * (2.0 * i + 1.0) * w.nu2)
            d = _d_values(w, k, N + 2)
            put_bar = k * norm.cdf(-d[:-1]) - lead * norm.cdf(-d[1:])
            put = disc * m.S0 * basis.solve_scaled(put_bar)
            fwd_bar = scaled_payoff_projections(w, 0.0, N) - k
            fwd = disc * m.S0 * basis.solve_scaled(fwd_bar)
            np.testing.assert_allclose(ap.f - put, fwd, atol=1e-10)

    def test_convergence_diagnostic(self, cases):
        ap = price(cases[5], 20)
        assert ap.convergence_diagnostic() == abs(float(ap.f[-1] * ap.ell[-1]))

    def test_custom_weight_must_be_admissible(self):
        m = MarketParams(r=0.05, sigma=0.5, T=1.0, S0=1.0, K=1.0)
        with pytest.raises(ValidationError):
            price(m, 8, weight=WeightParams(mu=0.0, nu=0.3))  # nu^2 < 0.125

    def test_order_validation_and_truncation_record(self):
        m = MarketParams(r=0.05, sigma=0.3, T=1.0, S0=1.0, K=1.0)
        with pytest.raises(ValidationError):
            price(m, 41)
        with pytest.raises(ValidationError):
            price(m, -1)
        # above N = 20 the rounding estimate, not the order, decides: here it
        # drops the top degrees and the result says so
        ap = price(m, 25)
        assert ap.basis.resolvable_degree < 25
        assert [rec["code"] for rec in ap.diagnostics] == ["truncated"]

    @pytest.mark.parametrize("N", [10, 15, 20])
    def test_truncated_above_resolvable_degree_for_tiny_nu(self, cases, N):
        # case 1 (nu^2 = 0.0051): the rounding estimate of every degree above
        # 9 exceeds CLOSED_FORM_ETA_MAX, so those rows of the basis are zero
        # and the price is the 60-digit value of the 9-term series at every N
        clear_kernel_cache()
        ap = price(cases[1], N)
        assert ap.basis.resolvable_degree == 9
        assert ap.diagnostics == ({"code": "truncated", "stage": "basis",
                                   "value": ap.basis.eta[10],
                                   "threshold": CLOSED_FORM_ETA_MAX},)
        assert ap.basis.eta[10] > CLOSED_FORM_ETA_MAX
        assert np.all(ap.basis.cbar[10:] == 0.0)
        assert abs(ap.price - 0.0559960648) < 1e-7

    def test_convergence_diagnostic_reads_resolved_degree(self, cases):
        # case 1 at N = 20 keeps degrees 0..9: the term at N is an exact zero,
        # so the diagnostic must read the last resolved term |f_9 ell_9|
        ap = price(cases[1], 20)
        assert ap.f[20] * ap.ell[20] == 0.0
        assert ap.convergence_diagnostic() == abs(float(ap.f[9] * ap.ell[9])) > 0.0

    def test_order_40_at_unit_vol(self):
        # nu^2 N^2 = 800: the largest entries of Mbar overflow, but the
        # log-domain basis keeps every degree (60-digit value of the series)
        m = MarketParams(r=0.05, sigma=1.0, T=1.0, S0=1.0, K=1.0)
        ap = price(m, 40)
        assert ap.basis.resolvable_degree == 40
        # tau = 1 is above the rule of thumb; nothing else is flagged
        assert [rec["code"] for rec in ap.diagnostics] == ["tau_above_rule"]
        assert abs(ap.price - 0.2494104739) < 1e-9

    def test_price_independent_of_lapack_breakdown(self, cases, monkeypatch):
        # a price must not depend on where a LAPACK build breaks down: with
        # every LAPACK Cholesky failing, case 3 at N = 20 still gets an
        # unjittered basis and the 60-digit value of its N = 20 series
        def breakdown(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", breakdown)
        clear_kernel_cache()
        try:
            ap = price(cases[3], 20)
            assert orthonormal_basis(ap.weight, 20).jitter == 0.0
            assert ap.diagnostics == ()
            assert abs(ap.price - 0.1722547) < 1e-6
        finally:
            clear_kernel_cache()


class TestDensityApprox:
    def test_order_zero_is_weight(self, cases):
        ap = price(cases[3], 0)
        x = np.linspace(0.5, 2.0, 7)
        np.testing.assert_allclose(ap.density()(x),
                                   weight_density(ap.weight, x), rtol=1e-10)

    @staticmethod
    def _quad_mass(ap):
        # integrate in log space; the degree-N tail pushes mass out to
        # roughly mu + (8 + N nu) nu, well beyond the weight's own tail
        w, dens = ap.weight, ap.density()

        def integrand(z):
            x = math.exp(w.mu + w.nu * z)
            return float(dens(x)) * x * w.nu

        val, _ = integrate.quad(integrand, -9.0, 8.0 + ap.N * w.nu, limit=400)
        return val

    def test_unit_mass_clean_factorization(self, cases):
        assert self._quad_mass(price(cases[5], 20)) == pytest.approx(1.0, abs=1e-6)
        assert self._quad_mass(price(cases[3], 15)) == pytest.approx(1.0, abs=1e-6)

    def test_unit_mass_jittered_factorization(self, cases):
        # case 3 at N = 20, where LAPACK's factor of Mbar once needed a
        # diagonal jitter; the closed-form basis keeps the unit mass
        assert self._quad_mass(price(cases[3], 20)) == pytest.approx(1.0, abs=3e-6)

    def test_can_go_negative_in_tails(self, cases):
        ap = price(cases[1], 20)
        w = ap.weight
        x = np.linspace(math.exp(w.mu - 5 * w.nu), math.exp(w.mu + 5 * w.nu), 400)
        assert ap.density()(x).min() < 0.0  # documented, not an error

    def test_matches_cv_estimator_case3(self, cases, full_mc):
        # moderate-tau regime: the series density tracks the Monte-Carlo
        # estimate everywhere.  The estimator sees the discrete (dt-step)
        # average whose O(dt) density offset exceeds the control-variate
        # standard errors, so the tolerance is floored at 1% of the peak
        # (the scale at which the curves are visually indistinguishable).
        from asianlns import density_cv
        m = cases[3].normalized()
        ap = price(m, 20)
        w = ap.weight
        x = np.linspace(math.exp(w.mu - 2.57 * w.nu), math.exp(w.mu + 2.57 * w.nu), 200)
        est = density_cv(m, full_mc, x)
        diff = np.abs(ap.density()(x) - est.value)
        tol = np.maximum(3.0 * est.std_error, 0.01 * est.value.max())
        assert np.mean(diff <= tol) >= 0.95

    @pytest.mark.parametrize("market,N", [
        *[(m, N) for m in benchmark_cases() for N in (0, 5, 10, 15, 20)],
        (MarketParams(r=0.0, sigma=1.0, T=1.0, S0=1.0, K=1.0), 40),
        (MarketParams(r=0.05, sigma=0.3, T=2.0, S0=1.0, K=0.0), 40)])
    def test_log_normal_mixture(self, market, N):
        # the mixture sum_k coef_k LN(mu + k nu^2, nu) is the series
        # w sum_n ell_n b_n, from the far left tail out to where the degree-N
        # terms still carry mass
        ap = price(market, N)
        w = ap.weight
        x = np.exp(np.linspace(w.mu - 9.0 * w.nu, w.mu + (8.0 + N * w.nu) * w.nu, 400))
        series = weight_density(w, x) * (ap.ell @ basis_evaluate(ap.basis, x))
        dens = ap.density()
        assert np.max(np.abs(dens(x) - series)) <= 2e-8 * np.max(np.abs(series))
        assert abs(dens.coef.sum() - 1.0) <= 1e-7  # the mass, ell_0

    def test_rejects_nonpositive(self, cases):
        ap = price(cases[3], 4)
        for bad in (0.0, -1.0, np.nan, np.inf, np.array([1.0, np.nan]), [1.0, np.inf]):
            with pytest.raises(ValidationError):
                ap.density()(bad)

    @pytest.mark.parametrize("N", [20, 40])
    def test_tails_and_shapes(self, cases, N):
        # every mixture term is exp of a value <= 0, so the density stays
        # finite with no floating-point warning out to the ends of the doubles
        tails = np.array([1e-300, 1e-8, 1e8, 1e300])
        for m in cases.values():
            ap = price(m, N)
            dens = ap.density()
            assert dens is ap.density()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert np.all(np.isfinite(dens(tails)))
            x = np.linspace(0.5, 2.0, 6)
            flat = dens(x)
            assert flat.shape == (6,)
            for arg, shape in ((1.0, ()), (np.float64(1.0), ()), (np.array(1.0), ()),
                               ([1.0, 2.0], (2,)), (np.array([]), (0,)),
                               (np.ones((0, 3)), (0, 3))):
                assert np.shape(dens(arg)) == shape
            # the same values whatever the shape, up to the rounding of the
            # signed mixture's sum (the bound of test_log_normal_mixture)
            tol = 2e-8 * np.abs(flat).max()
            np.testing.assert_allclose(dens(x.reshape(3, 2)), flat.reshape(3, 2),
                                       rtol=0, atol=tol)
            assert float(dens(x[2])) == pytest.approx(flat[2], rel=0, abs=tol)


class TestSeriesKernel:
    """ell, the weight, the basis and the density approximant belong to the
    market's kernel and are shared by every strike priced on it."""

    @staticmethod
    def _strike(market, moneyness):
        return MarketParams(r=market.r, sigma=market.sigma, T=market.T, S0=market.S0,
                            K=moneyness * market.S0)

    def test_shared_arrays_are_read_only(self, cases):
        ap = price(cases[3], 20)
        dens = ap.density()
        for arr in (ap.ell, dens.coef, dens.a, dens.scale):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        ap.f[0] = ap.f[0]  # f belongs to the result alone

    def test_strikes_of_one_market_share_the_kernel(self, cases):
        a = price(self._strike(cases[4], 0.9), 20)
        b = price(self._strike(cases[4], 1.1), 20)
        assert a.kernel is b.kernel
        assert a.density() is b.density()
        assert a.weight is b.weight
        assert a.price != b.price

    def test_user_weight_has_its_own_kernel(self, cases):
        a = price(cases[4], 20)
        user = WeightParams(mu=a.weight.mu + 0.01, nu=a.weight.nu)
        b = price(cases[4], 20, weight=user)
        assert a.kernel is not b.kernel
        assert b.weight == user and a.density() is not b.density()

    def test_clear_builds_a_new_kernel_with_identical_values(self, cases):
        a = price(cases[2], 20)
        dens_a = a.density()
        clear_kernel_cache()
        b = price(cases[2], 20)
        dens_b = b.density()
        assert dens_b is not dens_a
        for name in ("coef", "a", "scale"):
            assert getattr(dens_b, name).tobytes() == getattr(dens_a, name).tobytes()
        assert b.ell.tobytes() == a.ell.tobytes() and b.weight == a.weight

    @pytest.mark.parametrize("N", [0, 5, 20, 40])
    def test_warm_equals_cold(self, cases, N):
        # a price from a cleared cache and the same price from the kernel a
        # nearby strike warmed agree bit for bit, and the kernel's density is
        # the mixture of ell @ cbar evaluated afresh
        for market in cases.values():
            for moneyness in (0.8, 1.0, 1.25):
                m = self._strike(market, moneyness)
                clear_kernel_cache()
                cold = price(m, N)
                clear_kernel_cache()
                price(self._strike(market, 1.05), N)
                warm = price(m, N)
                assert warm.price == cold.price
                assert warm.f.tobytes() == cold.f.tobytes()
                assert warm.ell.tobytes() == cold.ell.tobytes()
                assert warm.eps_payoff == cold.eps_payoff
                assert warm.diagnostics == cold.diagnostics
            w = warm.weight
            x = np.exp(np.linspace(w.mu - 6.0 * w.nu, w.mu + 6.0 * w.nu, 200))
            fresh = DensityApproximant(weight=w, coef=warm.ell @ warm.basis.cbar)
            assert np.array_equal(warm.density()(x), fresh(x))


def _geometric_call(r, sigma, T, K):
    """Geometric-average call at S0 = 1: log Q_T is normal with mean
    (r - sigma^2/2) T / 2 and variance sigma^2 T / 3."""
    m, s = 0.5 * (r - 0.5 * sigma**2) * T, sigma * math.sqrt(T / 3.0)
    fwd = math.exp(m + 0.5 * s * s)
    if K == 0.0:
        return math.exp(-r * T) * fwd

    def Phi(z):
        return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))

    d = (m - math.log(K)) / s
    return math.exp(-r * T) * (fwd * Phi(d + s) - K * Phi(d))


class TestDiagnostics:
    def test_truncated_on_every_call(self, cases):
        # the second call takes its basis from the kernel cache; the record
        # must not depend on that
        clear_kernel_cache()
        for _ in range(2):
            recs = [rec for rec in price(cases[1], 20).diagnostics
                    if rec["code"] == "truncated"]
            assert len(recs) == 1 and recs[0]["value"] > 1e-5

    @pytest.mark.parametrize("market,N,intrinsic", [
        (MarketParams(r=0.0, sigma=0.32, T=1.34, S0=1.0, K=0.55), 5, 0.45),
        (MarketParams(r=0.025, sigma=1.4, T=0.21, S0=1.0, K=0.32), 20, 0.679055),
    ])
    def test_below_intrinsic_flagged(self, market, N, intrinsic):
        ap = price(market, N)
        recs = [rec for rec in ap.diagnostics if rec["code"] == "below_intrinsic"]
        assert len(recs) == 1
        assert recs[0]["stage"] == "pricer" and recs[0]["value"] == ap.price
        assert recs[0]["threshold"] == pytest.approx(intrinsic, abs=1e-6)
        assert ap.price < intrinsic - 1e-4

    def test_above_forward_record(self):
        # no drawn market has priced above the forward, so the record is
        # checked on a price set 2e-8 S0 above it, past the 1e-8 S0 tolerance
        m = MarketParams(r=0.05, sigma=0.3, T=1.0, S0=2.0, K=2.0)
        m1 = mean_average(m.normalized())
        forward = math.exp(-m.r * m.T) * m.S0 * m1
        pi = forward + 2e-8 * m.S0
        recs = [rec for rec in _diagnostics(m, price(m, 10).basis, m1, pi)
                if rec["code"] == "above_forward"]
        assert recs == [{"code": "above_forward", "stage": "pricer",
                         "value": pi, "threshold": forward}]

    def test_no_warning_channel(self, cases):
        clear_kernel_cache()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for market in cases.values():
                for N in (5, 10, 15, 20, 40):
                    price(market, N)

    @settings(deadline=None, max_examples=200, derandomize=True)
    @given(r=st.one_of(st.just(0.0), st.floats(-0.05, 0.25)),
           log_T=st.floats(math.log(1e-3), math.log(5.0)),
           log_tau=st.floats(math.log(1e-4), math.log(1.5)),
           K=st.one_of(st.just(0.0), st.floats(-1.5, 1.5).map(math.exp)),
           N=st.sampled_from([5, 10, 15, 20]))
    def test_bounds_hold_or_are_flagged(self, r, log_T, log_tau, K, N):
        # S0 = 1; each no-arbitrage bound holds to 1e-8 or its code is
        # present, and no code is present where its bound holds
        T = math.exp(log_T)
        sigma = math.sqrt(math.exp(log_tau) / T)
        ap = price(MarketParams(r=r, sigma=sigma, T=T, S0=1.0, K=K), N)
        assert math.isfinite(ap.price)
        assert all(set(rec) == {"code", "stage", "value", "threshold"}
                   for rec in ap.diagnostics)
        codes = [rec["code"] for rec in ap.diagnostics]
        assert len(codes) == len(set(codes))
        rT = r * T
        m1 = math.expm1(rT) / rT if rT != 0.0 else 1.0
        disc = math.exp(-rT)
        misses = {"below_intrinsic": disc * max(m1 - K, 0.0) - ap.price,
                  "below_geometric": _geometric_call(r, sigma, T, K) - ap.price,
                  "above_forward": ap.price - disc * m1}
        for code, miss in misses.items():
            assert (miss > 1e-8) == (code in codes), (code, miss)
        assert ("tau_above_rule" in codes) == (sigma**2 * T > 0.5)
        assert ("truncated" in codes) == (ap.basis.resolvable_degree < N)
