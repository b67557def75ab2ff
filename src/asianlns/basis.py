"""Log-normal weight and its orthonormal polynomial basis, in closed form.

The approximation space is L^2 of a log-normal weight w with parameters
(mu, nu).  Orthonormalizing the monomials against w only needs the weight's
moments s_i = exp(i mu + i^2 nu^2 / 2).  Their Hankel matrix s_{i+j}
overflows quickly, so the basis is built against the scaled monomials
u_k(x) = x^k / s_k, whose Gram matrix is Mbar_ij = exp(i j nu^2).

Mbar is the moment matrix of the Stieltjes-Wigert polynomials, the
orthogonal family of the log-normal weight (Koekoek, Lesky & Swarttouw,
*Hypergeometric Orthogonal Polynomials and their q-Analogues*, 14.27), so
it factors in closed form: with q = exp(nu^2) and
F_j = prod_{m<=j} (q^m - 1),

    Mbar = B D B^T,  B_jk = [j choose k]_q = F_j / (F_k F_{j-k}),
    D_k = q^{k(k-1)/2} F_k.

The basis coefficients cbar = D^{-1/2} B^{-1} are closed form as well,

    cbar_nk = (-1)^{n-k} q^{(n-k)(n-k-1)/2 - n(n-1)/4} sqrt(F_n) / (F_k F_{n-k}),

and are built from log F_j = sum_{m<=j} log expm1(m nu^2), so no entry
overflows at large nu^2 or N and Mbar is neither formed nor factorized.

A weighted scaled monomial is itself a log-normal density:
w(x) u_k(x) = LN(x; mu + k nu^2, nu).  So a series w sum_n a_n b_n is the
signed log-normal mixture sum_k c_k LN(x; mu + k nu^2, nu) with
c = cbar^T a, which is how the pricer evaluates its density.

The alternating signs still cancel when a coefficient <h, b_n> is formed.
The per-row rounding estimate eta_n = u sum_k |cbar_nk| sqrt(Mbar_kk) (u the
unit roundoff) bounds that noise for any unit-norm h, because
|<h, u_k>| <= sqrt(Mbar_kk).  eta_n grows with n and with 1/nu^2; the rows
of cbar from the first degree whose eta_n exceeds ``CLOSED_FORM_ETA_MAX``
on are exact zeros, so every consumer of the basis sees the same truncated
series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import NumericalError, ValidationError
from .model import MarketParams, _check_int, _check_positive

#: largest rounding estimate eta_n of a kept basis degree: the coefficient
#: noise it allows stays an order of magnitude below the 1e-4 price
#: tolerance of a unit-spot market
CLOSED_FORM_ETA_MAX = 1e-5

_UNIT_ROUNDOFF = np.finfo(float).eps / 2


@dataclass(frozen=True, slots=True)
class WeightParams:
    """Parameters (mu, nu) of the auxiliary log-normal density."""

    mu: float
    nu: float

    def __post_init__(self):
        if not (self.nu > 0.0) or not math.isfinite(self.nu):
            raise ValidationError(f"nu must be > 0, got {self.nu}", module="basis")
        if not math.isfinite(self.mu):
            raise ValidationError(f"mu must be finite, got {self.mu}", module="basis")

    @property
    def nu2(self) -> float:
        return self.nu * self.nu

    def admissible_for(self, market: MarketParams) -> bool:
        """Square-integrability condition nu^2 > sigma^2 T / 2 for the likelihood ratio."""
        return self.nu2 > 0.5 * market.sigma**2 * market.T


def default_weight(params: MarketParams, first_moment: float) -> WeightParams:
    """Calibrate the weight to the market.

    nu^2 = sigma^2 T / 2 + 1e-4 (the smallest scale satisfying the
    square-integrability condition with a safety margin) and mu is chosen so
    the weight's first moment matches ``first_moment``, the mean of the
    normalized average.  With this pairing the degree-one likelihood
    coefficient vanishes identically.
    """
    if not (first_moment > 0.0) or not math.isfinite(first_moment):
        raise ValidationError(f"first moment must be > 0, got {first_moment}",
                              module="basis")
    nu2 = 0.5 * params.sigma**2 * params.T + 1e-4
    mu = math.log(first_moment) - 0.5 * nu2
    return WeightParams(mu=mu, nu=math.sqrt(nu2))


def weight_density(weight: WeightParams, x) -> np.ndarray:
    """Log-normal density of the weight at finite x > 0 (vectorized)."""
    x = _check_positive(x, "weight density", "basis")
    z = (np.log(x) - weight.mu) / weight.nu
    return np.exp(-0.5 * z * z) / (math.sqrt(2.0 * math.pi) * weight.nu * x)


@dataclass(frozen=True)
class OrthonormalBasis:
    """Degree-N orthonormal polynomial basis under a log-normal weight.

    The representation is the lower-triangular matrix ``cbar`` of
    coefficients against the *scaled monomials* u_k(x) = x^k / s_k:

        b_n(x) = sum_k cbar[n, k] u_k(x).

    Rows 0 .. ``resolvable_degree`` hold the closed-form coefficients, each
    with a positive leading coefficient; the rows above are exact zeros.

    Attributes
    ----------
    resolvable_degree : int
        Largest degree kept: up to it every row's rounding estimate eta_n
        is at most ``CLOSED_FORM_ETA_MAX``.
    eta : ndarray
        The rounding estimates eta_0 .. eta_N, of the dropped degrees too.
    jitter : float
        Always 0.0: no diagonal regularization is ever added to Mbar.  Kept
        only because ``perfbench/tracing.py`` reads it.
    """

    weight: WeightParams
    N: int
    cbar: np.ndarray = field(repr=False)
    resolvable_degree: int
    eta: np.ndarray = field(repr=False)
    jitter: ClassVar[float] = 0.0

    def solve_scaled(self, vbar: np.ndarray) -> np.ndarray:
        """Coefficients <g, b_n> from scaled moments vbar_k = <g, x^k>/s_k."""
        vbar = np.asarray(vbar, dtype=float)
        if vbar.shape != (self.N + 1,):
            raise ValidationError("scaled moment vector length mismatch", module="basis")
        return self.cbar @ vbar


def orthonormal_basis(weight: WeightParams, N: int) -> OrthonormalBasis:
    """Construct the degree-N orthonormal basis.

    The coefficients are the closed-form Stieltjes-Wigert ones of the module
    docstring, computed in the log domain, for every nu^2 > 0 and N.

    Degree n is kept while its rounding estimate
    eta_n = u sum_k |cbar_nk| sqrt(Mbar_kk) is at most
    ``CLOSED_FORM_ETA_MAX``.  From the first degree above that limit on, the
    rows of cbar are set to exact zeros, ``resolvable_degree`` is the last
    degree kept, and the basis keeps eta for the ``truncated`` record of a
    price.  eta_n grows with n and with 1/nu^2: at nu^2 = 0.0051 (case 1 of the
    benchmark table) degrees 10 and above are dropped, and every series
    built on the basis (price, density, eps_F profile) is then the series
    of degree ``resolvable_degree``.

    Raises NumericalError when a kept leading coefficient underflows to
    zero, which happens once nu^2 n^2 / 2 exceeds about 745: the scaled
    monomials cannot represent that degree in double precision.
    """
    N = _check_int(N, "degree N", "model")
    nu2 = weight.nu2
    n = np.arange(N + 1, dtype=float)
    # the lag n - k is 0 above the diagonal, where cbar's q-exponent
    # (n-k)(n-k-1)/2 - n(n-1)/4 is -inf so that those entries are exact zeros
    lag = np.subtract.outer(np.arange(N + 1), np.arange(N + 1))
    lower = lag >= 0
    lag[~lower] = 0
    expo = np.where(lower, 0.5 * lag * (lag - 1.0) - 0.25 * n[:, None] * (n[:, None] - 1.0),
                    -np.inf)
    log_F = np.zeros(N + 1)
    # log expm1(x) = x + log(1 - e^{-x}), finite for every x > 0
    np.cumsum(nu2 * n[1:] + np.log(-np.expm1(-nu2 * n[1:])), out=log_F[1:])
    log_abs = nu2 * expo + 0.5 * log_F[:, None] - log_F - log_F[lag]
    with np.errstate(over="ignore"):
        eta = _UNIT_ROUNDOFF * np.exp(log_abs + 0.5 * nu2 * n * n).sum(axis=1)
    dropped = np.flatnonzero(eta > CLOSED_FORM_ETA_MAX)
    resolvable = int(dropped[0]) - 1 if dropped.size else N

    cbar = (1.0 - 2.0 * (lag % 2)) * np.exp(log_abs)
    lead = np.diagonal(cbar)[:resolvable + 1]
    if not lead.all():
        raise NumericalError(
            f"basis coefficients of degree {int(np.argmin(lead))} underflow to "
            f"zero (nu^2={nu2:.4g}, N={N})", module="basis")
    cbar[resolvable + 1:] = 0.0
    return OrthonormalBasis(weight=weight, N=N, cbar=cbar, resolvable_degree=resolvable,
                            eta=eta)
