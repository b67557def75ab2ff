"""Series price, payoff/likelihood coefficients and the density approximant.

The discounted payoff F(x) = exp(-rT)(x - K)^+ and the likelihood ratio
ell = g / w are both projected onto the degree-N orthonormal polynomial
basis; the price approximation is the inner product of the two coefficient
vectors.  Everything is computed against the normalized problem (initial
price one, strike K / S0) and rescaled, so the auxiliary weight always
lives on the scale of A_T / S0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .basis import (CLOSED_FORM_ETA_MAX, OrthonormalBasis, WeightParams, default_weight,
                    orthonormal_basis)
from .errors import ValidationError
from .model import (TAU_RULE_OF_THUMB, MarketParams, MomentVector, _check_int, _check_positive,
                    _log_strike, _norm_cdf, geometric_price_closed_form, mean_average, moments)

MAX_ORDER = 40
DEFAULT_ORDER = 20


def _d_values(weight: WeightParams, strike: float, count: int) -> np.ndarray:
    """d_n = (mu + nu^2 n - log K) / nu for n = 0 .. count-1; +inf at K = 0."""
    n = np.arange(count, dtype=float)
    return (weight.mu + weight.nu2 * n - _log_strike(strike)) / weight.nu


def scaled_payoff_projections(weight: WeightParams, strike: float, N: int) -> np.ndarray:
    """Projections of (x - K)^+ onto the scaled monomials.

    fbar_i = exp(mu + (2i + 1) nu^2 / 2) Phi(d_{i+1}) - K Phi(d_i), the
    closed normal-CDF form of <(x - K)^+, x^i>_w / s_i.  The strike is in
    the same (normalized) units as the weight.  At K = 0 every Phi is
    exactly one, which leaves the weight-moment ratio s_{i+1} / s_i.
    """
    i = np.arange(N + 1, dtype=float)
    lead = np.exp(weight.mu + 0.5 * (2.0 * i + 1.0) * weight.nu2)
    Phi = np.array([_norm_cdf(d) for d in _d_values(weight, strike, N + 2)])
    return lead * Phi[1:] - strike * Phi[:-1]


def payoff_coefficients(market: MarketParams, weight: WeightParams,
                        basis: OrthonormalBasis) -> np.ndarray:
    """Coefficients of the discounted payoff against the basis, in currency.

    f = exp(-rT) S0 * cbar @ fbar with the strike normalized to K / S0.
    A zero strike degenerates the payoff to the discounted average, a
    degree-one polynomial: its coefficients beyond degree one vanish
    identically for every degree-graded orthonormal family and are pinned
    to exact zeros instead of being left as cancellation residue.
    """
    if basis.weight != weight:
        raise ValidationError("basis was built for a different weight", module="pricer")
    fbar = scaled_payoff_projections(weight, market.K / market.S0, basis.N)
    f = math.exp(-market.r * market.T) * market.S0 * basis.solve_scaled(fbar)
    if market.K == 0.0 and basis.N >= 2:
        f[2:] = 0.0
    return f


def likelihood_coefficients(moms: MomentVector, basis: OrthonormalBasis) -> np.ndarray:
    """Coefficients of the likelihood ratio: ell = cbar @ relative-moments."""
    if moms.kind != "relative":
        raise ValidationError("likelihood coefficients need relative moments",
                              module="pricer")
    return basis.solve_scaled(moms.values)


def payoff_norm_sq(market: MarketParams, weight: WeightParams) -> float:
    """Squared weighted norm of the discounted payoff, in currency^2.

    ||F||_w^2 = exp(-2rT) (exp(2mu + 2nu^2) Phi(d_2)
                - 2 K exp(mu + nu^2/2) Phi(d_1) + K^2 Phi(d_0)),
    scaled by S0^2 for the normalized strike K / S0 (every Phi is one at
    K = 0).
    """
    disc2 = math.exp(-2.0 * market.r * market.T)
    k = market.K / market.S0
    d = [_norm_cdf(v) for v in _d_values(weight, k, 3)]
    val = disc2 * (math.exp(2.0 * weight.mu + 2.0 * weight.nu2) * d[2]
                   - 2.0 * k * math.exp(weight.mu + 0.5 * weight.nu2) * d[1]
                   + k * k * d[0])
    return market.S0**2 * val


@dataclass(frozen=True)
class DensityApproximant:
    """Truncated series density g^(N)(x) = w(x) sum_n ell_n b_n(x).

    Approximates the density of the *normalized* average A_T / S0.  It is
    evaluated as the signed log-normal mixture
    sum_k coef_k LN(x; mu + k nu^2, nu) with coef = cbar^T ell (see the
    ``basis`` module).  The centers a_k = (mu + k nu^2) / nu and the scales
    scale_k = coef_k / (sqrt(2 pi) nu) are computed once, when the
    approximant is built; a call is then one fused pass over a single
    (terms, points) array, scale @ exp(-(a_k - log(x) / nu)^2 / 2) / x, with
    one row per term so that every in-place step runs along the points.
    Every exponent is <= 0, so no term overflows in the tails.  Its mass is
    sum_k coef_k = ell_0 = 1, but it may go negative in the tails; that is
    expected and not an error.

    ``a`` and ``scale`` are read-only, and so is ``coef`` in the
    approximant of a ``SeriesKernel``, which serves every price of its
    market.
    """

    weight: WeightParams
    coef: np.ndarray = field(repr=False)
    a: np.ndarray = field(init=False, repr=False)
    scale: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        w = self.weight
        k = np.arange(self.coef.size, dtype=float)
        a = (w.mu + k * w.nu2) / w.nu
        scale = self.coef / (math.sqrt(2.0 * math.pi) * w.nu)
        a.setflags(write=False)
        scale.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "scale", scale)

    def __call__(self, x) -> np.ndarray:
        x = _check_positive(x, "density evaluation", "pricer")
        z = self.a[:, None] - np.log(x).ravel() / self.weight.nu
        np.square(z, out=z)
        z *= -0.5
        np.exp(z, out=z)
        return (self.scale @ z).reshape(x.shape) / x


@dataclass(frozen=True, eq=False)
class SeriesKernel:
    """The part of a series price that depends on the market and on N but
    not on the strike: the weight, the degree-N basis, the likelihood
    coefficients ell and the density approximant w sum_n ell_n b_n.

    All of it refers to the normalized average A_T / S0.  ``ell`` is
    read-only, because every result of the market shares it.  The density
    approximant is built on the first ``density`` access, which ``price``
    does not make, and is the same object on every later one.
    """

    weight: WeightParams
    basis: OrthonormalBasis = field(repr=False)
    ell: np.ndarray = field(repr=False)

    @cached_property
    def density(self) -> DensityApproximant:
        coef = self.ell @ self.basis.cbar
        coef.setflags(write=False)
        return DensityApproximant(weight=self.weight, coef=coef)


@dataclass(frozen=True)
class SeriesApproximation:
    """Truncated series price with its coefficient vectors.

    Coefficients f are in currency units (already rescaled by S0); ell is
    dimensionless.  ``price`` equals the inner product f . ell exactly as
    computed.  ``eps_payoff`` is the squared projection distance
    ||F||_w^2 - sum f_n^2 (currency^2); for a zero strike it is identically
    zero from degree one on and is stored as exact zero.

    ``weight``, ``basis`` and ``ell`` are those of the market's
    ``SeriesKernel``: every result of one market (r, sigma, T), order and
    weight shares the same objects while the kernel stays cached, and ell
    is read-only.  ``f`` belongs to the result alone.

    ``diagnostics`` says how far to trust the price, as records {"code",
    "stage", "value", "threshold"}: ``truncated`` (basis; eta of the first
    dropped degree against ``CLOSED_FORM_ETA_MAX``), ``tau_above_rule``
    (model; tau against 0.5), and ``below_intrinsic``, ``below_geometric``
    and ``above_forward`` (pricer; the price against disc S0 (m1 - K/S0)^+,
    the geometric-average call and disc S0 m1, missed by over 1e-8 S0).
    """

    N: int
    f: np.ndarray = field(repr=False)
    price: float
    payoff_norm_sq: float
    eps_payoff: float
    market: MarketParams
    kernel: SeriesKernel
    diagnostics: tuple = field(repr=False, default=())

    @property
    def weight(self) -> WeightParams:
        return self.kernel.weight

    @property
    def basis(self) -> OrthonormalBasis:
        return self.kernel.basis

    @property
    def ell(self) -> np.ndarray:
        return self.kernel.ell

    def convergence_diagnostic(self) -> float:
        """|f_R ell_R|, the last term the basis resolves (R =
        ``basis.resolvable_degree``; terms above R are exact zeros); NaN
        when R = 0.  Heuristic only, not an error bound."""
        R = self.basis.resolvable_degree
        if R == 0:
            return math.nan
        return abs(float(self.f[R] * self.ell[R]))

    def eps_payoff_profile(self) -> np.ndarray:
        """eps_F at every truncation order 0..N (non-increasing)."""
        return self.payoff_norm_sq - np.cumsum(self.f**2)

    def density(self) -> DensityApproximant:
        """The series density of the market: the kernel's approximant, so
        every result of the market returns the same object."""
        return self.kernel.density


@lru_cache(maxsize=128)
def _kernel(r: float, sigma: float, T: float, N: int, mu: float, nu: float) -> SeriesKernel:
    """The ``SeriesKernel`` of a normalized market, built on its first use:
    the basis, the relative moments and their solve for ell.  Cached, so
    that a strike sweep re-solves only the payoff coefficients and shares
    one density approximant."""
    market = MarketParams(r=r, sigma=sigma, T=T, S0=1.0, K=1.0)
    weight = WeightParams(mu=mu, nu=nu)
    basis = orthonormal_basis(weight, N)
    ell = likelihood_coefficients(moments(market, N, kind="relative", weight=weight), basis)
    ell.setflags(write=False)
    return SeriesKernel(weight=weight, basis=basis, ell=ell)


def price(market: MarketParams, N: int = DEFAULT_ORDER,
          weight: Optional[WeightParams] = None) -> SeriesApproximation:
    """Price the option with the degree-N series.

    The problem is normalized internally (S0 = 1, strike K / S0) and the
    price rescaled by S0.  When ``weight`` is omitted it is calibrated so
    that nu^2 = sigma^2 T / 2 + 1e-4 and the weight matches the first
    moment of the normalized average, which makes ell_1 vanish.  A supplied
    weight must refer to the normalized average and satisfy
    nu^2 > sigma^2 T / 2.

    m1 and the weight are computed on every call; the weight and the order
    then key the market's ``SeriesKernel`` (``_kernel``), which supplies
    the basis and ell and is built only for a new key.  A call on a cached
    market therefore solves only the payoff coefficients.  Every call
    builds ``diagnostics`` afresh.

    The mean m1 of the normalized average is ``mean_average(normalized)``,
    the degree-one raw moment.  The closed form expm1(rT) / (rT) would do
    as well, but the benchmark's traced replay of this function
    (``perfbench/tracing.py``) takes m1 from ``moments`` and must
    reproduce the price bit for bit.
    """
    N = _check_int(N, "order N", "pricer")
    if N > MAX_ORDER:
        raise ValidationError(f"order N={N} exceeds the supported maximum {MAX_ORDER}",
                              module="pricer")

    normalized = market.normalized()
    m1 = mean_average(normalized)
    if weight is None:
        weight = default_weight(normalized, m1)
    elif not weight.admissible_for(normalized):
        raise ValidationError(
            f"weight nu^2={weight.nu2:.4g} must exceed sigma^2 T / 2 = "
            f"{0.5 * normalized.sigma**2 * normalized.T:.4g}", module="pricer")

    kernel = _kernel(market.r, market.sigma, market.T, N, weight.mu, weight.nu)
    f = payoff_coefficients(market, kernel.weight, kernel.basis)
    pi = float(f @ kernel.ell)

    norm_sq = payoff_norm_sq(market, kernel.weight)
    if market.K == 0.0 and N >= 1:
        # degree-one payoff: the projection is exact, eps_F vanishes identically
        eps_payoff = 0.0
    else:
        eps_payoff = float(norm_sq - f @ f)

    return SeriesApproximation(N=N, f=f, price=pi, payoff_norm_sq=norm_sq,
                               eps_payoff=eps_payoff, market=market, kernel=kernel,
                               diagnostics=_diagnostics(market, kernel.basis, m1, pi))


def _record(code: str, stage: str, value: float, threshold: float) -> dict:
    return {"code": code, "stage": stage, "value": float(value), "threshold": float(threshold)}


def _diagnostics(market: MarketParams, basis: OrthonormalBasis, m1: float, pi: float) -> tuple:
    """The records of ``SeriesApproximation.diagnostics``; m1 is the mean of
    the normalized average."""
    records = []
    R = basis.resolvable_degree
    if R < basis.N:
        records.append(_record("truncated", "basis", basis.eta[R + 1], CLOSED_FORM_ETA_MAX))
    if market.tau > TAU_RULE_OF_THUMB:
        records.append(_record("tau_above_rule", "model", market.tau, TAU_RULE_OF_THUMB))
    disc_s0 = math.exp(-market.r * market.T) * market.S0
    tol = 1e-8 * market.S0
    for code, bound in (("below_intrinsic", disc_s0 * max(m1 - market.K / market.S0, 0.0)),
                        ("below_geometric", geometric_price_closed_form(market))):
        if pi < bound - tol:
            records.append(_record(code, "pricer", pi, bound))
    if pi > disc_s0 * m1 + tol:
        records.append(_record("above_forward", "pricer", pi, disc_s0 * m1))
    return tuple(records)


def clear_kernel_cache() -> None:
    """Drop the cached series kernels (used by benchmarks timing cold runs);
    the next price of a market builds a new kernel with identical values."""
    _kernel.cache_clear()
