"""Market parameters and moments of the arithmetic average.

The time average of a geometric Brownian motion has all of its moments in
closed form: the moment vector (1, E[A_T], ..., E[A_T^N]) is obtained by
applying the exponential of a lower-bidiagonal generator matrix to the first
unit vector.  For large degrees the raw moments explode, so a scaled
("relative") formulation divides moment n by the n-th moment of an auxiliary
log-normal density; the rescaled generator keeps every intermediate quantity
of order one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np
from scipy.sparse.linalg import expm_multiply
from scipy.special import ndtr

from .errors import MomentOverflowError, ValidationError

if TYPE_CHECKING:  # pragma: no cover
    from .basis import WeightParams

TAU_RULE_OF_THUMB = 0.5


@dataclass(frozen=True)
class MarketParams:
    """Black-Scholes inputs for one fixed-strike average-price option.

    Parameters
    ----------
    r : float
        Short rate per year; may be negative.
    sigma : float
        Volatility per sqrt(year); strictly positive.  A vanishing sigma is
        rejected rather than treated as a limit because the auxiliary
        log-normal weight requires nu^2 > sigma^2 T / 2 > 0.
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

    def __post_init__(self):
        if self.values.shape != (self.N + 1,):
            raise ValidationError("moment vector length mismatch", module="model")


def _check_degree(N: int) -> int:
    if not isinstance(N, (int, np.integer)) or isinstance(N, bool) or N < 0:
        raise ValidationError(f"degree N must be a non-negative integer, got {N!r}",
                              module="model")
    return int(N)


def moments(params: MarketParams, N: int, kind: str = "raw",
            weight: Optional["WeightParams"] = None) -> MomentVector:
    """Moments of A_T up to degree N via the action of the matrix exponential.

    Moments are expressed in units of S0, i.e. they are the moments of
    A_T / S0 (the average of the unit-initial-price process); the average
    scales linearly in S0.  The raw kind returns E[(A_T/S0)^n]; the relative
    kind divides moment n by s_n = exp(n mu + n^2 nu^2 / 2) for the scaling
    implied by ``weight``.

    The generator G of the moment ODE is lower bidiagonal: its diagonal is
    lambda_n = n r + n (n - 1) sigma^2 / 2 and its subdiagonal n / T.  The
    relative kind multiplies subdiagonal entry n by
    exp(-mu + (1 - 2n) nu^2 / 2), the diagonal similarity with s_n.  The
    action exp(G T) e_1 is evaluated directly (Al-Mohy/Higham style) instead
    of forming the full matrix exponential; on bidiagonal generators this is
    both faster and slightly more accurate than scaling-and-squaring the
    matrix itself.

    Raises
    ------
    MomentOverflowError
        If any raw moment exceeds the double-precision range.  The relative
        kind is the supported path for large N.
    """
    N = _check_degree(N)
    if kind not in ("raw", "relative"):
        raise ValidationError(f"unknown moment kind {kind!r}", module="model")
    if kind == "relative" and weight is None:
        raise ValidationError("relative moments require weight parameters", module="model")
    if kind == "raw" and weight is not None:
        raise ValidationError("raw moments take no weight parameters", module="model")

    n = np.arange(N + 1, dtype=float)
    sub = n[1:] / params.T
    if kind == "relative":
        sub = sub * np.exp(-weight.mu + 0.5 * (1.0 - 2.0 * n[1:]) * weight.nu2)
    G = np.diag(n * params.r + 0.5 * n * (n - 1) * params.sigma**2) + np.diag(sub, -1)
    if not np.all(np.isfinite(G)):
        raise MomentOverflowError("generator entries overflow double precision",
                                  module="model")

    e1 = np.zeros(N + 1)
    e1[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        values = expm_multiply(G * params.T, e1)
    if not np.all(np.isfinite(values)):
        if kind == "raw":
            raise MomentOverflowError(
                f"raw moments overflow for N={N}; use the relative kind",
                module="model")
        raise MomentOverflowError("relative moments overflow double precision",
                                  module="model")
    # m_0 = 1 identically; the shifted exponential action preserves it to a
    # few ulps per squaring step, so any real defect is a formula bug.
    if abs(values[0] - 1.0) > 1e-9:
        raise MomentOverflowError("moment propagation lost the unit component",
                                  module="model")
    values[0] = 1.0
    if np.any(values <= 0.0):
        raise MomentOverflowError("moment vector lost positivity", module="model")
    return MomentVector(N=N, values=values, kind=kind)


def mean_average(params: MarketParams) -> float:
    """E[A_T] for the given market (in units of S0)."""
    return float(moments(params, 1, kind="raw").values[1]) * params.S0


def _geo_law(market: MarketParams) -> tuple:
    """Mean and standard deviation of log Q_T, which is normal:
    log S0 + (r - sigma^2/2) T / 2 and sigma sqrt(T / 3)."""
    return (math.log(market.S0) + 0.5 * (market.r - 0.5 * market.sigma**2) * market.T,
            market.sigma * math.sqrt(market.T / 3.0))


def geometric_price_closed_form(market: MarketParams) -> float:
    """Exact price of the continuously sampled geometric-average call, a
    lower bound on the arithmetic one (A_T >= Q_T pathwise).

    log Q_T is normal (``_geo_law``), so the price is a Black-Scholes-type
    expression.  K = 0 short-circuits to the discounted mean of Q_T.
    """
    m, s = _geo_law(market)
    disc = math.exp(-market.r * market.T)
    fwd = math.exp(m + 0.5 * s * s)
    if market.K == 0.0:
        return disc * fwd
    d1 = (m + s * s - math.log(market.K)) / s
    d2 = (m - math.log(market.K)) / s
    return disc * (fwd * ndtr(d1) - market.K * ndtr(d2))
