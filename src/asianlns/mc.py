"""Monte-Carlo verification engine.

Exact-increment GBM simulation with trapezoidal averaging, control-variate
pricing against the closed-form geometric average option, density
estimators built from integration-by-parts identities (no kernel smoothing
and no differentiation of indicator payoffs), and the estimator of the
squared weighted norm of the likelihood ratio that feeds the projection
error bound.

Reproducibility contract: paths are generated in fixed-size chunks, each
from its own counter-based Philox substream keyed by (seed, stream, chunk).
The chunks run on every core the process may use (``os.sched_getaffinity``),
at most one thread per chunk; restrict them with ``taskset`` or
``os.sched_setaffinity``.  Results are bit-identical for a given
(seed, paths, dt) whatever the thread count.  One runner,
``_map_chunks``, serves every consumer: the worker for a chunk simulates
its stream(s) and reduces them to what the consumer asks for, which for
every estimator is a list of (n, mean, M2) triples that ``_chunk_stats``
merges in chunk order.  ``likelihood_norm_sq`` draws chunk c of its second
stream in the same task as chunk c of stream 0.

The grid estimator ``density_cv`` never forms a grid x paths array.  Each
chunk sorts A_T once and Q_T once; ``np.searchsorted`` then places every
grid point, and prefix and suffix cumulative sums of the weights and
squared weights give each point's sum and sum of squares in
O(n log n + G).  A point whose set of paths is empty reads an exact 0, so
the estimate and its standard error vanish exactly below and above every
sample.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .model import (MarketParams, _check_int, _geo_law, geometric_price_closed_form,
                    mean_average)
from .basis import WeightParams, weight_density
from .pricer import SeriesApproximation

#: paths per RNG substream; part of the determinism contract (changing it
#: changes which substream drives which path, hence the stream of numbers)
CHUNK_PATHS = 32768


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@dataclass(frozen=True)
class McConfig:
    """Simulation budget and reproducibility settings."""

    paths: int = 200_000
    dt: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        for name, least in (("paths", 1), ("seed", None)):
            object.__setattr__(self, name, _check_int(getattr(self, name), name, "mc", least))
        if not (self.dt > 0.0) or not math.isfinite(self.dt):
            raise ValidationError(f"dt must be > 0, got {self.dt}", module="mc")

    @property
    def batches(self) -> int:
        """Worker threads the chunks may run on: the usable core count."""
        return _usable_cores()


def _std_error(n: int, m2):
    """Standard error sqrt(M2 / (n - 1) / n) of a mean of n samples; inf
    for a single sample, which says nothing about its spread."""
    if n < 2:
        return np.full_like(m2, np.inf)
    return np.sqrt(m2 / (n - 1) / n)


@dataclass(frozen=True)
class McEstimate:
    """Point estimate with its standard error and 95% interval."""

    value: float
    std_error: float
    ci95: tuple
    n_effective: int
    config: McConfig

    @staticmethod
    def from_stats(n: int, mean: float, m2: float, config: McConfig) -> "McEstimate":
        se = float(_std_error(n, m2))
        return McEstimate(value=mean, std_error=se,
                          ci95=(mean - 1.96 * se, mean + 1.96 * se),
                          n_effective=n, config=config)


@dataclass(frozen=True)
class PathBatch:
    """Terminal samples of a set of simulated paths.

    average and geo_average are trapezoidal discretizations of the
    continuous arithmetic and geometric means; geo_average <= average holds
    exactly on every path.
    """

    terminal: np.ndarray = field(repr=False)      # S_T
    average: np.ndarray = field(repr=False)       # A_T
    geo_average: np.ndarray = field(repr=False)   # Q_T
    brownian: np.ndarray = field(repr=False)      # B_T

    @property
    def n(self) -> int:
        return self.terminal.shape[0]


def _chunk_rng(seed: int, stream: int, chunk: int) -> np.random.Generator:
    key = np.array([np.uint64(seed % (1 << 64)),
                    np.uint64(((stream & 0xFFFFFFFF) << 32) | chunk)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _simulate_chunk(market: MarketParams, steps: int, dt: float, n: int,
                    rng: np.random.Generator) -> PathBatch:
    sq = math.sqrt(dt)
    drift = market.r - 0.5 * market.sigma**2
    log_s0 = math.log(market.S0)

    zacc = np.zeros(n)       # running sum of standard normals
    asum = np.zeros(n)       # sum of S over grid points 1..steps
    lsum = np.zeros(n)       # sum of log S over grid points 1..steps
    logs = np.full(n, log_s0)
    s = np.full(n, market.S0)
    for k in range(1, steps + 1):
        zacc += rng.standard_normal(n)
        logs = log_s0 + drift * (k * dt) + market.sigma * sq * zacc
        s = np.exp(logs)
        asum += s
        lsum += logs

    average = (asum + 0.5 * (market.S0 - s)) / steps
    # both means use the trapezoid weights (1/2, 1, ..., 1, 1/2) / steps, so
    # Q <= A holds exactly by weighted AM-GM; the clamp undoes rounding
    geo_average = np.minimum(np.exp((lsum + 0.5 * (log_s0 - logs)) / steps), average)
    return PathBatch(terminal=s, average=average, geo_average=geo_average,
                     brownian=sq * zacc)


def _steps_for(market: MarketParams, config: McConfig) -> tuple:
    if config.dt > market.T:
        raise ValidationError(f"dt={config.dt} exceeds expiry T={market.T}", module="mc")
    steps = max(1, round(market.T / config.dt))
    return steps, market.T / steps


def _map_chunks(market: MarketParams, config: McConfig, work) -> list:
    """``work(draw, c)`` for every chunk c, as a list in chunk order.

    ``draw(stream)`` simulates chunk c of that stream.  The chunks run on
    min(usable cores, chunks) threads of one pool that lives for this call;
    each task does its whole chunk, simulation and reduction, so a worker
    holds one chunk's arrays at a time and hands back only what ``work``
    returns.
    """
    steps, dt = _steps_for(market, config)
    nchunks = (config.paths + CHUNK_PATHS - 1) // CHUNK_PATHS

    def run(c: int):
        n = min(CHUNK_PATHS, config.paths - c * CHUNK_PATHS)
        return work(lambda stream: _simulate_chunk(
            market, steps, dt, n, _chunk_rng(config.seed, stream, c)), c)

    with ThreadPoolExecutor(max_workers=min(config.batches, nchunks)) as pool:
        return list(pool.map(run, range(nchunks)))


def simulate(market: MarketParams, config: McConfig, stream: int = 0) -> PathBatch:
    """Simulate all paths and concatenate the terminal samples."""
    parts = _map_chunks(market, config, lambda draw, c: draw(stream))
    return PathBatch(terminal=np.concatenate([p.terminal for p in parts]),
                     average=np.concatenate([p.average for p in parts]),
                     geo_average=np.concatenate([p.geo_average for p in parts]),
                     brownian=np.concatenate([p.brownian for p in parts]))


def _merge_stats(nA, meanA, m2A, nB, meanB, m2B):
    """Chan/Welford parallel merge; works elementwise on arrays."""
    n = nA + nB
    delta = meanB - meanA
    mean = meanA + delta * (nB / n)
    m2 = m2A + m2B + delta * delta * (nA * nB / n)
    return n, mean, m2


def _chunk_stats(market: MarketParams, config: McConfig, stats) -> list:
    """Merge, over the chunks in order, the lists of (n, mean, M2) triples
    that ``stats(draw, c)`` returns for each chunk (see ``_map_chunks``)."""
    merged = None
    for part in _map_chunks(market, config, stats):
        merged = part if merged is None else [_merge_stats(*a, *b)
                                              for a, b in zip(merged, part)]
    return merged


def _sample_stats(v: np.ndarray) -> tuple:
    """(n, mean, M2) of an array of one sample per path."""
    return v.shape[0], v.mean(), v.var() * v.shape[0]


def _sums_stats(n: int, total, total_sq) -> tuple:
    """(n, mean, M2) from the sum and the sum of squares of n samples; M2 is
    formed in the dtype of ``total_sq`` and floored at 0 against rounding."""
    return n, total / n, np.maximum(
        total_sq - np.square(total, dtype=total_sq.dtype) / n, 0.0)


def price_cv(market: MarketParams, config: McConfig) -> McEstimate:
    """Control-variate price estimate.

    Per path: exp(-rT) [ (A_T - K)^+ - (Q_T - K)^+ ] plus the closed-form
    geometric price.  The geometric payoff is a unit-coefficient control
    variate; its discretization bias largely offsets the bias of the
    discrete average, so no beta fitting is used.
    """
    disc = math.exp(-market.r * market.T)
    geo = geometric_price_closed_form(market)

    def stats(draw, c):
        p = draw(0)
        return [_sample_stats(disc * (np.maximum(p.average - market.K, 0.0)
                                      - np.maximum(p.geo_average - market.K, 0.0)) + geo)]

    [(n, mean, m2)] = _chunk_stats(market, config, stats)
    return McEstimate.from_stats(n, float(mean), float(m2), config)


def _arith_malliavin_weight(market: MarketParams, p: PathBatch) -> np.ndarray:
    """Integration-by-parts weight for the arithmetic-average density:
    (2 / sigma^2) ((S_T - S_0) / (T A_T^2) + (sigma^2 - r) / A_T)."""
    sig2 = market.sigma**2
    return (2.0 / sig2) * ((p.terminal - market.S0) / (market.T * p.average**2)
                           + (sig2 - market.r) / p.average)


def _geo_malliavin_weight(market: MarketParams, p: PathBatch) -> np.ndarray:
    """Weight for the geometric-average density: 2 B_T / (sigma T Q_T) + 1 / Q_T."""
    return (2.0 * p.brownian / (market.sigma * market.T * p.geo_average)
            + 1.0 / p.geo_average)


def _ibp_term(level: np.ndarray, x, mean: float, w: np.ndarray) -> np.ndarray:
    """Integration-by-parts density term (1{level >= x} - 1{x <= mean}) w,
    at one point x per path.

    Its expectation is the density of ``level`` at x; subtracting the
    deterministic 1{x <= E[level]} pins it to zero for x -> 0 instead of
    leaving pure Monte-Carlo noise there.  On a grid ``density_cv`` sums
    the same term from sorted cumulative sums.
    """
    return ((level >= x).astype(float) - (x <= mean)) * w


def _split_sums(level: np.ndarray, x: np.ndarray, *weights) -> tuple:
    """Sums of each weight over {level < x} and over {level >= x}, for every
    grid point x, from one sort of ``level``.

    Returns (below, above), each a list with one array per weight, summed
    in that weight's dtype.  Both come from cumulative sums padded with a 0,
    the prefix in front and the suffix behind, so an empty set sums to an
    exact 0 rather than to a total minus a partial sum.  A tie level == x
    falls in the upper set.
    """
    order = np.argsort(level)
    k = np.searchsorted(level[order], x, side="left")
    below, above = [], []
    for w in weights:
        w = w[order]
        sums = np.zeros(w.shape[0] + 1, dtype=w.dtype)
        np.cumsum(w, out=sums[1:])
        below.append(sums[k])
        sums[-1] = 0.0  # the suffix sum over no path; the prefix pass left the total
        np.cumsum(w[::-1], out=sums[-2::-1])
        above.append(sums[k])
    return below, above


def geo_average_density(market: MarketParams, x) -> np.ndarray:
    """Closed-form log-normal density of the geometric average Q_T."""
    m, s = _geo_law(market)
    return weight_density(WeightParams(mu=m, nu=s), x)


@dataclass(frozen=True)
class DensityGridEstimate:
    """Per-grid-point Monte-Carlo density estimates."""

    x: np.ndarray = field(repr=False)
    value: np.ndarray = field(repr=False)
    std_error: np.ndarray = field(repr=False)
    n_effective: int
    config: McConfig
    variance_reduction: np.ndarray = field(repr=False)


def _check_grid(x_grid) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x_grid, dtype=float))
    if np.any(x <= 0.0) or not np.all(np.isfinite(x)):
        raise ValidationError("density grid must be positive and finite", module="mc")
    return x


def density_cv(market: MarketParams, config: McConfig, x_grid) -> DensityGridEstimate:
    """Variance-reduced density estimate using the geometric average.

    Adds q(x) minus the geometric-average estimator of q(x) to the plain
    arithmetic estimator; the two integration-by-parts terms are highly
    correlated, which cancels most of the noise.  The per-point variance
    reduction factor against the plain estimator (computed on the same
    paths) is reported; it is NaN where either variance vanishes.

    Per chunk, with a = the A_T term, b = the Q_T term and u = W_A W_Q:
    one sort by A_T gives the sums of a, a^2 and u over {A < x} and
    {A >= x}, one by Q_T those of b, b^2 and u over {Q >= x}.  As q(x) is
    a constant the control-variate variance is that of a - b, and the
    cross sum of a b needs no further sort: Q_T <= A_T on every path (see
    ``PathBatch``), so 1{A >= x} 1{Q >= x} = 1{Q >= x} and
    1{A < x} 1{Q < x} = 1{A < x}.  Where no path is in a term's set its
    sums are exact zeros.  The variance comes from expanded sums, so its
    relative rounding error is about the unit roundoff of those sums times
    the variance reduction factor; the sums of W_A^2, W_Q^2 and u are
    therefore accumulated in ``np.longdouble`` (no gain where that is plain
    double), while the first-moment sums, hence the estimate itself, stay
    in double.
    """
    x = _check_grid(x_grid)
    mq, sq = _geo_law(market)
    m1a, m1q = mean_average(market), math.exp(mq + 0.5 * sq * sq)
    qx = geo_average_density(market, x)
    low_a, low_q = x <= m1a, x <= m1q

    def stats(draw, c):
        p = draw(0)
        wa, wq = _arith_malliavin_weight(market, p), _geo_malliavin_weight(market, p)
        wide = np.longdouble
        u = np.multiply(wa, wq, dtype=wide)
        (a_lo, a2_lo, ua_lo), (a_hi, a2_hi, ua) = _split_sums(
            p.average, x, wa, np.square(wa, dtype=wide), u)
        (b_lo, b2_lo, _), (b_hi, b2_hi, uq) = _split_sums(
            p.geo_average, x, wq, np.square(wq, dtype=wide), u)
        # where x <= E[level] a term is -W on {level < x}, else W on {level >= x}
        sa, sa2 = np.where(low_a, -a_lo, a_hi), np.where(low_a, a2_lo, a2_hi)
        sb, sb2 = np.where(low_q, -b_lo, b_hi), np.where(low_q, b2_lo, b2_hi)
        # a b is 0 where only A's shift is on: {A < x, Q >= x} is empty
        sab = np.where(low_a, np.where(low_q, ua_lo, 0.0), uq - np.where(low_q, ua, 0.0))
        sd = sa - sb
        n, mean_d, m2_cv = _sums_stats(p.n, sd, sa2 - 2.0 * sab + sb2)
        return [_sums_stats(p.n, sa, sa2), (n, mean_d + qx, m2_cv)]

    (_, _, m2_plain), (n, mean_cv, m2_cv) = _chunk_stats(market, config, stats)
    m2_plain, m2_cv = m2_plain.astype(float), m2_cv.astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        vr = np.where((m2_cv > 0) & (m2_plain > 0), m2_plain / m2_cv, np.nan)
    return DensityGridEstimate(x=x, value=mean_cv, std_error=_std_error(n, m2_cv),
                               n_effective=n, config=config, variance_reduction=vr)


def likelihood_norm_sq(market: MarketParams, config: McConfig, weight: WeightParams,
                       tilde_from_weight: bool = False) -> McEstimate:
    """Estimate ||ell||_w^2 = integral of g^2 / w.

    Draws an independent second sample Atilde (stream 1 of the same seed,
    chunk for chunk with the paths of stream 0) and evaluates the
    control-variate density estimator of ``density_cv`` at Atilde divided
    by w(Atilde).  The estimator has a finite mean for
    nu^2 > sigma^2 T / 2 but heavy tails (its variance is itself marginally
    divergent at the default nu), so standard errors are indicative rather
    than sharp; this matches the estimator's published behaviour.

    ``tilde_from_weight`` replaces the Atilde draws by i.i.d. draws from
    the weight itself, turning the estimand into integral of g = 1; used as
    a self-test.

    The market must be passed on the same scale as the weight (the library
    convention is the normalized scale S0 = 1).
    """
    if not weight.admissible_for(market):
        raise ValidationError(
            f"nu^2={weight.nu2:.4g} <= sigma^2 T / 2: ||ell||_w^2 is infinite",
            module="mc")
    mq, sq = _geo_law(market)
    m1a, m1q = mean_average(market), math.exp(mq + 0.5 * sq * sq)

    def stats(draw, c):
        p = draw(0)
        if tilde_from_weight:
            at = np.exp(weight.mu + weight.nu
                        * _chunk_rng(config.seed, 1, c).standard_normal(p.n))
        else:
            at = draw(1).average
        num = (_ibp_term(p.average, at, m1a, _arith_malliavin_weight(market, p))
               + geo_average_density(market, at)
               - _ibp_term(p.geo_average, at, m1q, _geo_malliavin_weight(market, p)))
        return [_sample_stats(num / weight_density(weight, at))]

    [(n, mean, m2)] = _chunk_stats(market, config, stats)
    return McEstimate.from_stats(n, float(mean), float(m2), config)


@dataclass(frozen=True)
class ErrorBound:
    """Projection-error bound sqrt(eps_F * eps_ell) with its Monte-Carlo CI.

    eps_ell is reported raw (it can go negative through Monte-Carlo noise)
    and floored at zero inside the square root.  The CI is the monotone
    image of the eps_ell interval; std_error is the matching delta-method
    scale.  Units follow eps_F (currency), so the bound caps
    |pi - pi^(N)| on the same scale as the price.
    """

    value: float
    std_error: float
    ci95: tuple
    eps_F: float
    eps_ell: float
    norm_estimate: McEstimate


def error_bound(approx: SeriesApproximation, norm_est: McEstimate) -> ErrorBound:
    """Combine the explicit payoff projection error with the estimated
    likelihood projection error into the price-error bound."""
    eps_f = max(approx.eps_payoff, 0.0)
    sum_sq = float(approx.ell @ approx.ell)
    eps_ell = norm_est.value - sum_sq
    lo = max(norm_est.ci95[0] - sum_sq, 0.0)
    hi = max(norm_est.ci95[1] - sum_sq, 0.0)
    value = math.sqrt(eps_f * max(eps_ell, 0.0))
    ci = (math.sqrt(eps_f * lo), math.sqrt(eps_f * hi))
    se = (ci[1] - ci[0]) / (2.0 * 1.96)
    return ErrorBound(value=value, std_error=se, ci95=ci, eps_F=eps_f,
                      eps_ell=eps_ell, norm_estimate=norm_est)


def squared_relative_error(mc_price: McEstimate, series_price: float) -> tuple:
    """SRE = ((mc - series) / series)^2 with the interval induced by the mc CI;
    NaN, with a (NaN, NaN) interval, against a zero series price."""
    if series_price == 0.0:
        return math.nan, (math.nan, math.nan)
    rel = (mc_price.value - series_price) / series_price
    lo_r = (mc_price.ci95[0] - series_price) / series_price
    hi_r = (mc_price.ci95[1] - series_price) / series_price
    if lo_r <= 0.0 <= hi_r:
        lo = 0.0
    else:
        lo = min(lo_r**2, hi_r**2)
    return rel * rel, (lo, max(lo_r**2, hi_r**2))
