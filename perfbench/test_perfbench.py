"""Tests of the benchmark's own helpers.

Run from the repository root: python3 -m pytest perfbench -q
"""

import math
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import mpmath
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from measure import Ledger, percentile, summarize, tail_percentile  # noqa: E402
from oracle import SeriesOracle, half_unit, load_fixture  # noqa: E402

ROOT = HERE.parent


def default_weight(r, sigma, T):
    """The library's default weight, rebuilt here: nu^2 = sigma^2 T / 2 +
    1e-4 and a first moment equal to the normalized mean expm1(rT) / (rT)."""
    nu2 = 0.5 * sigma**2 * T + 1e-4
    return math.log(math.expm1(r * T) / (r * T)) - 0.5 * nu2, math.sqrt(nu2)


class TestPercentileRule:
    @pytest.mark.parametrize("n, want", [(1, 50.0), (19, 50.0), (20, 50.0), (99, 50.0),
                                         (100, 90.0), (999, 90.0), (1000, 99.0),
                                         (9999, 99.0), (10000, 99.9)])
    def test_highest_percentile_with_ten_beyond(self, n, want):
        assert tail_percentile(n) == want

    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 99) == 99
        assert percentile(values, 100) == 100

    def test_summary_reports_count_and_tail(self):
        s = summarize([float(v) for v in range(1000)])
        assert s["n"] == 1000 and s["tail_pct"] == 99.0 and s["tail"] == 989.0
        small = summarize([3.0, 1.0, 2.0, 10.0])
        assert small["tail_pct"] == 50.0 and small["tail"] == small["p50"] == 2.5


class TestFailFrac:
    def test_each_kind_of_failure_counts_once(self):
        ledger = Ledger()
        ident = lambda v: abs(v - 1.0)  # noqa: E731
        assert ledger.check("op", 1.0 + 1e-9, ident, 1e-6)
        assert not ledger.check("op", ValueError("boom"), ident, 1e-6)
        assert not ledger.check("op", math.nan, ident, 1e-6)
        assert not ledger.check("op", 1.1, ident, 1e-6)
        assert ledger.attempted == 4 and ledger.failed == 3
        assert ledger.fail_frac == 0.75 and not ledger.correct()
        assert ledger.report()["by_reason"] == {"raised": 1, "nonfinite": 1, "tolerance": 1}

    def test_known_defect_misses_count_in_fail_frac_not_in_failed(self):
        ledger = Ledger()
        ledger.check("op", 2.0, lambda v: v, 1.0, known=True)
        assert ledger.failed == 0 and ledger.known_misses == 1 and ledger.correct()
        assert ledger.fail_frac == 1.0
        ledger.check("op", 2.0, lambda v: v, 1.0)
        assert ledger.failed == 1 and ledger.known_misses == 1 and not ledger.correct()
        assert ledger.fail_frac == 1.0
        report = ledger.report()
        assert report["known_misses"] == 1 and report["failed"] == 1

    def test_a_known_defect_that_raises_is_incorrect(self):
        ledger = Ledger()
        ledger.check("op", RuntimeError(), None, 1.0, known=True)
        assert ledger.failed == 1 and not ledger.correct()


class TestKnownDefects:
    def test_the_fixed_set(self):
        fixture = load_fixture(ROOT)
        case = wl.case_markets(fixture)
        assert run.known_defect(wl.Request("price", case[3], 20, case=3))
        assert not run.known_defect(wl.Request("price", case[3], 15, case=3))
        assert not run.known_defect(wl.Request("price", case[1], 20, case=1))
        # drawn markets by tau = sigma^2 T, at every order
        assert run.known_defect(wl.Request("price", (0.05, 0.3, 2.0, 2.0, 2.0), 10))
        assert not run.known_defect(wl.Request("price", (0.05, 0.5, 1.0, 2.0, 2.0), 20))
        for c in range(1, 8):
            assert run.known_defect(wl.Request("density", case[c], 20, case=c)) == (c <= 3)
        assert not run.known_defect(wl.Request("mc_price", case[3], case=3))


class TestRepeatFrac:
    def test_counts_keys_seen_before(self):
        assert wl.repeat_frac(["a", "b", "a", "c", "b"]) == pytest.approx(0.4)
        assert wl.repeat_frac([]) == 0.0

    def test_cold_keys_are_new_and_warm_keys_repeat(self):
        fixture = load_fixture(ROOT)
        cold = wl.series_cold(3, fixture)
        keys = [next(cold).key for _ in range(600)]
        # cases 4-6 differ only in S0, so they share (r, sigma, T, N): 6 repeats
        assert wl.repeat_frac(keys) == pytest.approx(6 / 600)
        warm = wl.series_warm(3, fixture)
        reqs = [next(warm) for _ in range(2000)]
        assert wl.repeat_frac(q.key for q in reqs if q.kind == "price") > 0.99

    def test_same_seed_same_inputs(self):
        fixture = load_fixture(ROOT)
        for name, stream in wl.STREAMS.items():
            a, b = stream(7, fixture), stream(7, fixture)
            assert [next(a).key for _ in range(50)] == [next(b).key for _ in range(50)], name


class TestSideProbes:
    @pytest.mark.parametrize("workload", wl.WORKLOADS)
    def test_each_workload_gets_what_its_stream_lacks(self, workload):
        batch = next(wl.side_probes(1, load_fixture(ROOT), workload))
        kinds = [q.kind for q in batch]
        assert kinds.count("density") == (0 if workload == "series_warm" else wl.SIDE_DENSITIES)
        assert kinds.count("mc_price") == (0 if workload == "mc_price" else wl.SIDE_MC_CALLS)
        if "density" in kinds:
            assert kinds[0] == "price" and batch[0].N == 20


class TestOracle:
    @pytest.mark.parametrize("case, want", [(3, "0.1722547"), (1, "0.0559860")])
    def test_sixty_digit_values_at_n20(self, case, want):
        row = load_fixture(ROOT)[case]
        mu, nu = default_weight(row["r"], row["sigma"], row["T"])
        o = SeriesOracle(row["r"], row["sigma"], row["T"], mu, nu)
        assert o.digits >= 60
        assert f"{o.price(row['S0'], row['K'], 20):.7f}" == want

    def test_moments_match_mp_expm(self):
        r, sigma, T, N = 0.05, 0.5, 2.0, 6
        mu, nu = default_weight(r, sigma, T)
        o = SeriesOracle(r, sigma, T, mu, nu, n_max=N)
        with mpmath.workdps(70):
            G = mpmath.zeros(N + 1, N + 1)
            m_mu, m_nu2 = mpmath.mpf(mu), mpmath.mpf(nu) ** 2
            for n in range(N + 1):
                G[n, n] = (n * mpmath.mpf(r) + n * (n - 1) * mpmath.mpf(sigma) ** 2 / 2) * T
                if n:
                    G[n, n - 1] = n * mpmath.exp(-m_mu + (1 - 2 * n) * m_nu2 / 2)
            E = mpmath.expm(G)
            for n in range(N + 1):
                assert abs(mpmath.mpf(str(o.mbar[n])) / E[n, 0] - 1) < mpmath.mpf(10) ** -55

    def test_solve_matches_mp_lu_solve(self):
        r, sigma, T, N = 0.02, 0.1, 1.0, 8
        mu, nu = default_weight(r, sigma, T)
        o = SeriesOracle(r, sigma, T, mu, nu, n_max=N)
        with mpmath.workdps(o.digits):
            nu2 = mpmath.mpf(nu) ** 2
            M = mpmath.matrix([[mpmath.exp(i * j * nu2) for j in range(N + 1)]
                               for i in range(N + 1)])
            x = mpmath.lu_solve(M, mpmath.matrix([mpmath.mpf(str(v)) for v in o.mbar]))
            for n, got in enumerate(o.coefficients(N)):
                assert abs(mpmath.mpf(str(got)) - x[n]) <= mpmath.mpf(10) ** -50 * abs(x[n])

    def test_lower_orders_use_the_leading_blocks(self):
        r, sigma, T = 0.05, 0.5, 1.0
        mu, nu = default_weight(r, sigma, T)
        full = SeriesOracle(r, sigma, T, mu, nu)
        small = SeriesOracle(r, sigma, T, mu, nu, n_max=10)
        with localcontext(small.ctx):
            for a, b in zip(full.coefficients(10), small.coefficients(10)):
                assert abs(a - b) <= Decimal(10) ** -55 * abs(b)

    def test_density_integrates_to_one(self):
        r, sigma, T = 0.05, 0.5, 1.0
        mu, nu = default_weight(r, sigma, T)
        o = SeriesOracle(r, sigma, T, mu, nu)
        # x = exp(mu + nu z): the trapezoid rule on the uniform z grid of a
        # smooth, fast-decaying integrand is accurate far beyond 1e-9
        xs = [math.exp(mu + nu * z / 10) for z in range(-120, 121)]
        g = o.density(xs, 20)
        mass = sum(gi * xi for gi, xi in zip(g, xs)) * nu / 10
        assert mass == pytest.approx(1.0, abs=1e-9)


class TestFixture:
    def test_ee_values_lie_in_the_published_intervals(self):
        for row in load_fixture(ROOT).values():
            assert row["mc_lo"] <= row["ee"] <= row["mc_hi"]

    def test_half_unit_of_the_last_published_digit(self):
        assert half_unit(0.05599) == pytest.approx(5e-6)
        assert half_unit(0.2184) == pytest.approx(5e-5)
