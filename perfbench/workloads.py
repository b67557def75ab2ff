"""Seeded request streams for the four workloads.

Every workload is a closed loop with one client: the next request is sent
when the previous one returns.  A stream is a pure function of the seed
and of the published fixture cases; the library only ever sees the
``MarketParams``/``McConfig`` built here.

Why each workload exists (the same sentences are in BENCHMARK.json):

series_cold
    Every request is a new (r, sigma, T, N) key, so each call builds the
    relative moments and the basis; small-tau markets reach the jitter
    ladder and case 3 at N = 20 the known mispricing, so the tail latency
    and the failure share both show.
series_warm
    The seven standard markets with long strike ladders at N = 20 plus one
    series-density grid per market: after the first call per market the
    kernel cache bypasses basis and moments, which is the opposite use of
    the same code.
mc_price
    ``price_cv`` on the seven cases at a fine step: path generation is
    nearly all of the time, so it measures the MC path engine and its
    efficiency while the series layers idle.
mc_density
    ``density_cv`` on a 200-point grid plus ``likelihood_norm_sq`` (the
    real estimand and the unit-mass self-test) at a coarse step: the
    grid-by-paths reductions and the second stream dominate.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

#: orders requested by the series workloads
ORDERS = (10, 15, 20)

#: expiries of the drawn cold markets (years)
COLD_T = (0.25, 0.5, 1.0, 2.0, 3.0)
COLD_TAU = (0.005, 0.5)          # sigma^2 T, drawn log-uniform
COLD_R = (-0.02, 0.2)
COLD_MONEYNESS = (0.8, 1.2)      # K / S0
COLD_S0 = 2.0

WARM_STRIKES = 48                # strikes per market per pass
WARM_MONEYNESS = (0.5, 1.5)
GRID_POINTS = 200
GRID_SDS = 4.0                   # grid half-width in sds of log A_T

#: MC paths per estimator call: two of the engine's 32768-path substream
#: chunks, so that a call can use a second worker thread when the library
#: runs more than one (with a single chunk it never does)
MC_PATHS = 65_536
MC_PRICE_DT = 8e-3
MC_DENSITY_DT = 0.04
#: low-tau cases for mc_density; one request runs the estimators on each.
#: Case 1 (tau = 0.01) is left out: at a coarse step its discretization
#: bias is 10-30 standard errors of the density estimate, so comparing it
#: with the continuous-time series would test the step size, not the code.
MC_DENSITY_CASES = (2, 3)

#: workloads without series-density requests or price_cv calls of their
#: own time those in side probes between slices, on this fixture case
SIDE_CASE = 5
SIDE_DENSITIES = 5               # density evaluations per probe batch
SIDE_MC_CALLS = 1                # price_cv calls per probe batch

WORKLOADS = ("series_cold", "series_warm", "mc_price", "mc_density")


@dataclass(frozen=True)
class Request:
    """One closed-loop request.

    kind is 'price', 'density' (series density of the market's last
    price), 'mc_price' or 'mc_density'.  ``market`` holds the MarketParams
    fields; ``case`` is the fixture case number or None for drawn markets.
    An 'mc_density' request runs its ``parts``, one per low-tau case, so
    that every request does the same work.  ``pass_end`` marks the last
    request of a pass over the workload's markets; a run stops only there,
    so every run has the same mix of markets.
    """

    kind: str
    market: tuple                 # (r, sigma, T, S0, K)
    N: int = 20
    case: Optional[int] = None
    mc_seed: int = 0
    grid: Optional[np.ndarray] = field(default=None, compare=False, repr=False)
    parts: tuple = ()
    pass_end: bool = True

    @property
    def key(self) -> tuple:
        """Inputs that decide the work: the library's cache key (r, sigma, T,
        N) for series requests, plus the seed for MC requests."""
        if self.parts:
            return tuple(p.key for p in self.parts)
        r, sigma, T, _, _ = self.market
        return (r, sigma, T, self.N) if self.kind in ("price", "density") \
            else (r, sigma, T, self.mc_seed)


def case_markets(fixture: dict) -> dict:
    """Fixture cases as (r, sigma, T, S0, K) tuples keyed by case number."""
    return {c: (row["r"], row["sigma"], row["T"], row["S0"], row["K"])
            for c, row in fixture.items()}


def normalized(market: tuple) -> tuple:
    r, sigma, T, S0, K = market
    return (r, sigma, T, 1.0, K / S0)


def density_grid(market: tuple) -> np.ndarray:
    """Grid for the normalized average: its mean times exp(s z), s the sd of
    log Q_T (sigma sqrt(T/3)), z uniform on +-GRID_SDS."""
    r, sigma, T, _, _ = market
    mean = math.expm1(r * T) / (r * T) if r != 0.0 else 1.0
    z = np.linspace(-GRID_SDS, GRID_SDS, GRID_POINTS)
    return mean * np.exp(sigma * math.sqrt(T / 3.0) * z)


def _draw_cold(rng: random.Random) -> tuple:
    T = rng.choice(COLD_T)
    lo, hi = map(math.log, COLD_TAU)
    tau = math.exp(rng.uniform(lo, hi))
    r = rng.uniform(*COLD_R)
    K = COLD_S0 * rng.uniform(*COLD_MONEYNESS)
    return (r, math.sqrt(tau / T), T, COLD_S0, K)


def series_cold(seed: int, fixture: dict) -> Iterator[Request]:
    """Distinct keys forever: each drawn market at N = 10, 15, 20 (shuffled),
    with the 21 standard-case requests shuffled into the first block."""
    rng = random.Random(f"series_cold:{seed}")
    seen = set()

    def market_block():
        while True:
            m = _draw_cold(rng)
            keys = [(m[0], m[1], m[2], N) for N in ORDERS]
            if not seen.intersection(keys):
                seen.update(keys)
                return [Request("price", m, N) for N in rng.sample(ORDERS, len(ORDERS))]

    first = [Request("price", m, N, case=c)
             for c, m in case_markets(fixture).items() for N in ORDERS]
    seen.update(r.key for r in first)
    for _ in range(len(fixture)):
        first += market_block()
    rng.shuffle(first)
    yield from first
    while True:
        yield from market_block()


def series_warm(seed: int, fixture: dict) -> Iterator[Request]:
    """Passes over the seven markets in a seeded order; per market a seeded
    strike ladder at N = 20, then one series-density grid."""
    rng = random.Random(f"series_warm:{seed}")
    markets = case_markets(fixture)
    ladders = {}
    for c, (r, sigma, T, S0, _) in markets.items():
        ks = sorted(rng.uniform(*WARM_MONEYNESS) for _ in range(WARM_STRIKES))
        ladders[c] = [Request("price", (r, sigma, T, S0, S0 * k), 20, case=c,
                              pass_end=False) for k in ks]
    order = list(markets)
    rng.shuffle(order)
    densities = [Request("density", markets[c], 20, case=c, grid=density_grid(markets[c]),
                         pass_end=c == order[-1]) for c in order]
    while True:
        for c, dens in zip(order, densities):
            yield from ladders[c]
            yield dens


def mc_price(seed: int, fixture: dict) -> Iterator[Request]:
    """The seven cases in a fresh seeded order per pass, each call with its
    own MC seed so that repeated cases are independent estimates."""
    rng = random.Random(f"mc_price:{seed}")
    markets = case_markets(fixture)
    order = list(markets)
    while True:
        rng.shuffle(order)
        for c in order:
            yield Request("mc_price", markets[c], case=c, mc_seed=rng.getrandbits(32),
                          pass_end=c == order[-1])


def mc_density(seed: int, fixture: dict) -> Iterator[Request]:
    """Each request runs the low-tau cases, normalized to S0 = 1 (the scale
    of the weight), in a seeded order with fresh MC seeds."""
    rng = random.Random(f"mc_density:{seed}")
    markets = {c: normalized(case_markets(fixture)[c]) for c in MC_DENSITY_CASES}
    grids = {c: density_grid(m) for c, m in markets.items()}
    order = list(markets)
    while True:
        rng.shuffle(order)
        yield Request("mc_density", None, parts=tuple(
            Request("mc_density", markets[c], case=c, mc_seed=rng.getrandbits(32),
                    grid=grids[c]) for c in order))


def side_probes(seed: int, fixture: dict, workload: str) -> Iterator[list]:
    """Per probe batch, the requests that give a workload the end-to-end metrics
    its own stream lacks: a price at N = 20 and SIDE_DENSITIES series
    densities of SIDE_CASE (all but series_warm), and SIDE_MC_CALLS
    ``price_cv`` calls with fresh MC seeds (all but mc_price)."""
    rng = random.Random(f"side:{workload}:{seed}")
    market = case_markets(fixture)[SIDE_CASE]
    grid = density_grid(market)
    while True:
        batch = []
        if workload != "series_warm":
            batch.append(Request("price", market, 20, case=SIDE_CASE))
            batch += [Request("density", market, 20, case=SIDE_CASE, grid=grid)] * SIDE_DENSITIES
        if workload != "mc_price":
            batch += [Request("mc_price", market, case=SIDE_CASE, mc_seed=rng.getrandbits(32))
                      for _ in range(SIDE_MC_CALLS)]
        yield batch


STREAMS = {"series_cold": series_cold, "series_warm": series_warm,
           "mc_price": mc_price, "mc_density": mc_density}


def repeat_frac(keys) -> float:
    """Share of keys already seen earlier in the sequence."""
    seen, repeats, n = set(), 0, 0
    for k in keys:
        n += 1
        if k in seen:
            repeats += 1
        seen.add(k)
    return repeats / n if n else 0.0


def describe(requests) -> dict:
    """Drawn ranges of a request list, for the run report."""
    flat = [p for q in requests for p in (q.parts or (q,))]
    taus = [q.market[1] ** 2 * q.market[2] for q in flat]
    money = [q.market[4] / q.market[3] for q in flat]
    rates = [q.market[0] for q in flat]
    span = lambda v: [min(v), max(v)] if v else None  # noqa: E731
    return {"tau": span(taus), "moneyness": span(money), "r": span(rates),
            "cases": sorted({q.case for q in flat if q.case is not None})}
