"""Market parameters and moments of the arithmetic average.

The time average of a geometric Brownian motion has all of its moments in
closed form: the moment vector (1, E[A_T], ..., E[A_T^N]) is obtained by
applying the exponential of a lower-bidiagonal generator matrix to the first
unit vector.  For large degrees the raw moments explode, so a scaled
("relative") formulation divides moment n by the n-th moment of an auxiliary
log-normal density; the rescaled generator keeps every intermediate quantity
of order one.

The exponential is taken in plain numpy without cancellation (Xue and Ye,
Numer. Math. 110, 2008): shifted by a multiple of the identity, the
generator is >= 0 entrywise, so its Taylor series and the matrix-vector
products that apply it only ever add non-negative numbers.  The normal CDF
is 0.5 erfc(-x / sqrt 2) from ``math``; ``_log_strike`` maps K = 0 to
log K = -inf, where every Phi(d) of the closed forms is exactly one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import MomentOverflowError, ValidationError

if TYPE_CHECKING:  # pragma: no cover
    from .basis import WeightParams

TAU_RULE_OF_THUMB = 0.5
#: Taylor terms of the moment exponential computed by one batched product
TAYLOR_BLOCK = 8
#: log of the largest double
LOG_DOUBLE_MAX = math.log(np.finfo(float).max)


@dataclass(frozen=True, slots=True)
class MarketParams:
    """Black-Scholes inputs for one fixed-strike average-price option.

    Parameters
    ----------
    r : float
        Short rate per year; may be negative.
    sigma : float
        Volatility per sqrt(year); strictly positive, with sigma^2 T finite.
        A vanishing sigma is rejected rather than treated as a limit
        because the auxiliary log-normal weight requires
        nu^2 > sigma^2 T / 2 > 0.
    T : float
        Expiry in years, > 0.
    S0 : float
        Initial stock price, > 0.
    K : float
        Strike, >= 0.  K = 0 degenerates the payoff to the discounted
        average and is priced exactly by the degree-one projection.
    """

    r: float
    sigma: float
    T: float
    S0: float
    K: float

    def __post_init__(self):
        if not (self.sigma > 0.0) or not math.isfinite(self.sigma):
            raise ValidationError(f"sigma must be > 0, got {self.sigma}", module="model")
        if not (self.T > 0.0) or not math.isfinite(self.T):
            raise ValidationError(f"T must be > 0, got {self.T}", module="model")
        if not math.isfinite(self.sigma * self.sigma * self.T):
            raise ValidationError(f"sigma^2 T must be finite, got sigma={self.sigma}, "
                                  f"T={self.T}", module="model")
        if not (self.S0 > 0.0) or not math.isfinite(self.S0):
            raise ValidationError(f"S0 must be > 0, got {self.S0}", module="model")
        if not (self.K >= 0.0) or not math.isfinite(self.K):
            raise ValidationError(f"K must be >= 0, got {self.K}", module="model")
        if not math.isfinite(self.r):
            raise ValidationError(f"r must be finite, got {self.r}", module="model")

    @property
    def tau(self) -> float:
        """Regime parameter sigma^2 * T; the series is recommended for tau <= 0.5."""
        return self.sigma**2 * self.T

    def normalized(self) -> "MarketParams":
        """Equivalent problem with the initial price scaled to one."""
        return MarketParams(self.r, self.sigma, self.T, 1.0, self.K / self.S0)


@dataclass(frozen=True)
class MomentVector:
    """Moments of the average, raw (E[A_T^n]) or relative (E[A_T^n] / s_n)."""

    N: int
    values: np.ndarray = field(repr=False)
    kind: str  # 'raw' | 'relative'


def _check_int(value, name: str, module: str, least: Optional[int] = 0) -> int:
    """``value`` as an int; ValidationError unless it is an integer, not a
    bool, and (when ``least`` is given) at least ``least``."""
    if (not isinstance(value, (int, np.integer)) or isinstance(value, bool)
            or (least is not None and value < least)):
        bound = "" if least is None else f" >= {least}"
        raise ValidationError(f"{name} must be an integer{bound}, got {value!r}",
                              module=module)
    return int(value)


def _check_positive(x, what: str, module: str) -> np.ndarray:
    """``x`` as a float array; ValidationError unless every entry is finite
    and > 0.  A NaN makes the minimum NaN, which fails ``> 0``; ``initial``
    lets an empty array pass."""
    x = np.asarray(x, dtype=float)
    if not (x.min(initial=1.0) > 0.0 and x.max(initial=1.0) < np.inf):
        raise ValidationError(f"{what} requires finite x > 0", module=module)
    return x


def _unit_exp_action(diag: np.ndarray, sub: np.ndarray) -> np.ndarray:
    """exp(A) e_1 for the lower-bidiagonal A with diagonal ``diag`` and
    subdiagonal ``sub`` >= 0, with no cancellation.

    s = -min(diag, 0) makes B = A + sI >= 0 entrywise.  exp(B / 2^j), with
    j >= 0 the fewest halvings that bring B's infinity norm below 4, is its
    Taylor series summed a block of b = TAYLOR_BLOCK terms at a time: from
    the table B', B'^2, ..., B'^b (B' = B / 2^j) the terms k + 1, ..., k + b
    are the last term B'^k / k! times that table, in one batched product,
    divided by (k + 1), (k + 1)(k + 2), ..., (k + 1)...(k + b).  The sum
    stops after the first block whose last term is below the unit roundoff
    of the partial sum in every entry, and all its terms are then added
    smallest first in one reduction.  That factor is applied to e_1 by 2^j
    products, and the result is scaled by e^-s.  The factor is >= I
    entrywise, so no product makes an entry smaller: once the vector is
    not finite the final one cannot be either, and the loop stops there.
    A zero subdiagonal entry of B' (an underflow) cuts every degree from
    its own on off e_1, whose entries then stay exactly zero; that raises
    before the products, which could number 2^1000.
    Every product adds rounding error, while the Taylor series of a
    non-negative matrix does not cancel at any norm: hence a norm below 4
    rather than 1, a quarter of the products.  So summed, the first moment
    is correctly rounded for 9 in 10 draws of (r, T), against 4 in 10 with
    a norm below 1 and the largest term first.
    """
    s = -min(float(diag.min()), 0.0)
    B = np.diag(diag + s) + np.diag(sub, -1)
    j = max(math.frexp(float(B.sum(axis=1).max()) / 4.0)[1], 0)
    B /= 2.0**j
    if not B.diagonal(-1).all():
        raise MomentOverflowError("moment vector lost positivity", module="model")
    powers = np.empty((TAYLOR_BLOCK,) + B.shape)
    powers[0] = B
    m = 1
    while m < TAYLOR_BLOCK:  # B^(m+1..m+h) = B^(1..h) B^m
        h = min(m, TAYLOR_BLOCK - m)
        np.matmul(powers[:h], powers[m - 1], out=powers[m:m + h])
        m += h
    steps = np.arange(1.0, TAYLOR_BLOCK + 1.0)
    term = E = np.eye(diag.size)
    terms = [term[None]]
    u = 0.5 * np.finfo(float).eps
    k = 0
    while not (term <= u * E).all():
        block = term @ powers / np.cumprod(steps + k)[:, None, None]
        terms.append(block)
        E = E + block.sum(axis=0)
        term = block[-1]
        k += TAYLOR_BLOCK
    E = np.concatenate(terms)[::-1].sum(axis=0)
    v = E[:, 0]
    for _ in range(2**j - 1):
        if not v.max() < np.inf:  # NaN fails too
            break
        v = E @ v
    return v * math.exp(-s)


def moments(params: MarketParams, N: int, kind: str = "raw",
            weight: Optional["WeightParams"] = None) -> MomentVector:
    """Moments of A_T up to degree N as the action of a matrix exponential.

    Moments are expressed in units of S0, i.e. they are the moments of
    A_T / S0 (the average of the unit-initial-price process); the average
    scales linearly in S0.  The raw kind returns E[(A_T/S0)^n]; the relative
    kind divides moment n by s_n = exp(n mu + n^2 nu^2 / 2) for the scaling
    implied by ``weight``.

    The generator G of the moment ODE is lower bidiagonal: its diagonal is
    lambda_n = n r + n (n - 1) sigma^2 / 2 and its subdiagonal n / T.  The
    relative kind multiplies subdiagonal entry n by
    exp(-mu + (1 - 2n) nu^2 / 2), the diagonal similarity with s_n.  Only
    the diagonal can be negative, so exp(G T) e_1 is
    e^{-sT} exp((G + sI) T) e_1 with s = -min(lambda_n, 0) and
    (G + sI) T >= 0 entrywise: its Taylor series and the products that
    apply it to e_1 add non-negative terms only and lose no digits to
    cancellation (Xue and Ye, Numer. Math. 110, 2008).  The series of
    exp((G + sI) T / 2^j) takes TAYLOR_BLOCK terms per batched product
    against a table of powers, and stops after the first block whose last
    term is below the unit roundoff of the sum in every entry
    (``_unit_exp_action``).  The products stop at the first vector that is
    not finite, so moments that overflow raise as soon as they do, not
    after all 2^j products.  Two rules raise before any product, for
    markets where no vector ever overflows.  A_T >= Q_T path by path, so
    E[(A_T/S0)^N] / s_N >= exp(N (m - mu) + N^2 (s^2 - nu^2) / 2), with m
    and s^2 the mean and variance of log(Q_T/S0) (``_geo_law``; mu = nu = 0
    for the raw kind), and the moments overflow once that bound does.  A
    subdiagonal entry that underflows to zero makes the moments of its
    degree and above exactly zero (``_unit_exp_action``).

    Raises
    ------
    MomentOverflowError
        If any raw moment exceeds the double-precision range.  The relative
        kind is the supported path for large N.
    """
    N = _check_int(N, "degree N", "model")
    if kind not in ("raw", "relative"):
        raise ValidationError(f"unknown moment kind {kind!r}", module="model")
    if kind == "relative" and weight is None:
        raise ValidationError("relative moments require weight parameters", module="model")
    if kind == "raw" and weight is not None:
        raise ValidationError("raw moments take no weight parameters", module="model")

    mu, nu2 = (weight.mu, weight.nu2) if kind == "relative" else (0.0, 0.0)
    n = np.arange(N + 1, dtype=float)
    sub = n[1:]
    tau = params.tau
    with np.errstate(over="ignore", invalid="ignore"):
        if kind == "relative":
            sub = sub * np.exp(-mu + 0.5 * (1.0 - 2.0 * n[1:]) * nu2)
        diag = (n * params.r + 0.5 * n * (n - 1) * params.sigma**2) * params.T
        if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(sub))):
            raise MomentOverflowError("generator entries overflow double precision",
                                      module="model")
        overflow = (f"raw moments overflow for N={N}; use the relative kind"
                    if kind == "raw" else "relative moments overflow double precision")
        if N * (0.5 * params.r * params.T - 0.25 * tau - mu) \
                + 0.5 * N * N * (tau / 3.0 - nu2) > LOG_DOUBLE_MAX:
            raise MomentOverflowError(overflow, module="model")
        values = _unit_exp_action(diag, sub)
    if not np.all(np.isfinite(values)):
        raise MomentOverflowError(overflow, module="model")
    # m_0 = 1 identically; the shift and its e^{-sT} preserve it to a few
    # ulps, so any real defect is a formula bug.
    if abs(values[0] - 1.0) > 1e-9:
        raise MomentOverflowError("moment propagation lost the unit component",
                                  module="model")
    values[0] = 1.0
    if np.any(values <= 0.0):
        raise MomentOverflowError("moment vector lost positivity", module="model")
    return MomentVector(N=N, values=values, kind=kind)


def mean_average(params: MarketParams) -> float:
    """E[A_T] for the given market, in currency: S0 times the degree-one raw
    moment of the normalized average A_T / S0."""
    return float(moments(params, 1, kind="raw").values[1]) * params.S0


def _norm_cdf(x: float) -> float:
    """Standard normal CDF, 0.5 erfc(-x / sqrt 2)."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _log_strike(K: float) -> float:
    """log K, and -inf at K = 0: every d = (... - log K) / nu of the closed
    forms is then +inf and its Phi(d) exactly one, so a zero strike takes
    the same formulas as any other."""
    return -math.inf if K == 0.0 else math.log(K)


def _geo_law(market: MarketParams) -> tuple:
    """Mean m and standard deviation s of log Q_T, which is normal:
    log S0 + (r - sigma^2/2) T / 2 and sigma sqrt(T / 3); and the mean of
    Q_T itself, exp(m + s^2 / 2)."""
    m = math.log(market.S0) + 0.5 * (market.r - 0.5 * market.sigma**2) * market.T
    s = market.sigma * math.sqrt(market.T / 3.0)
    return m, s, math.exp(m + 0.5 * s * s)


def geometric_price_closed_form(market: MarketParams) -> float:
    """Exact price of the continuously sampled geometric-average call, a
    lower bound on the arithmetic one (A_T >= Q_T pathwise).

    log Q_T is normal (``_geo_law``), so the price is a Black-Scholes-type
    expression; at K = 0 it is the discounted mean of Q_T.
    """
    m, s, mean = _geo_law(market)
    log_k = _log_strike(market.K)
    return math.exp(-market.r * market.T) * (
        mean * _norm_cdf((m + s * s - log_k) / s) - market.K * _norm_cdf((m - log_k) / s))
