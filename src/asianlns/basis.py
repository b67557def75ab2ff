"""Log-normal weight, scaled Gram matrix and the orthonormal polynomial basis.

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
overflows at large nu^2 or N and no matrix is factorized.

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
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .errors import NumericalError, ValidationError
from .model import MarketParams, _check_degree

#: largest rounding estimate eta_n of a kept basis degree: the coefficient
#: noise it allows stays an order of magnitude below the 1e-4 price
#: tolerance of a unit-spot market
CLOSED_FORM_ETA_MAX = 1e-5

_UNIT_ROUNDOFF = np.finfo(float).eps / 2


@dataclass(frozen=True)
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

    def moment(self, n) -> np.ndarray:
        """n-th moment s_n = exp(n mu + n^2 nu^2 / 2) of the weight."""
        n = np.asarray(n, dtype=float)
        return np.exp(n * self.mu + 0.5 * n**2 * self.nu2)


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
    """Log-normal density of the weight at x > 0 (vectorized)."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValidationError("weight density requires x > 0", module="basis")
    z = (np.log(x) - weight.mu) / weight.nu
    return np.exp(-0.5 * z * z) / (math.sqrt(2.0 * math.pi) * weight.nu * x)


def gram(weight: WeightParams, N: int) -> np.ndarray:
    """The (N+1) x (N+1) scaled Gram matrix Mbar_ij = exp(i j nu^2).

    It is the Gram matrix of the scaled monomials u_k = x^k / s_k; the raw
    moment matrix of the monomials is S Mbar S with S = diag(s_k).
    """
    N = _check_degree(N)
    i = np.arange(N + 1, dtype=float)
    with np.errstate(over="ignore"):
        entries = np.exp(np.outer(i, i) * weight.nu2)
    if not np.all(np.isfinite(entries)):
        raise NumericalError(
            f"gram matrix entries overflow for N={N}, nu^2={weight.nu2:.4g}",
            module="basis")
    return entries


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

    def evaluate(self, x) -> np.ndarray:
        """Evaluate all basis polynomials at x; returns shape (N+1,) + x.shape.

        Uses the scaled-monomial form exp(k (log x - mu) - k^2 nu^2 / 2),
        which stays bounded on the bulk of the weight for any degree.
        """
        x = np.asarray(x, dtype=float)
        if np.any(x <= 0.0):
            raise ValidationError("basis evaluation requires x > 0", module="basis")
        k = np.arange(self.N + 1, dtype=float)
        lx = np.log(x).reshape(-1)
        U = np.exp(np.outer(k, lx - self.weight.mu) - 0.5 * (k**2)[:, None] * self.weight.nu2)
        out = self.cbar @ U
        return out.reshape((self.N + 1,) + x.shape)

    def monomial_coefficients(self) -> np.ndarray:
        """Coefficients against plain monomials (may overflow for large N nu).

        Row n holds the coefficients of b_n in 1, x, ..., x^n.
        """
        k = np.arange(self.N + 1, dtype=float)
        with np.errstate(over="ignore"):
            C = self.cbar / self.weight.moment(k)[None, :]
        if not np.all(np.isfinite(C)):
            raise NumericalError("monomial coefficients overflow; use the scaled form",
                                 module="basis")
        return C

    def gram_identity_error(self) -> float:
        """max |cbar Mbar cbar^T - I|, the orthonormality defect.

        Mbar and the product are evaluated in np.longdouble (extended
        precision where the platform has it): in double precision their
        rounding alone reads 1.5e-8 at nu^2 = 0.125, N = 10, where the defect
        of cbar itself is 5e-13.
        """
        k = np.arange(self.N + 1, dtype=np.longdouble)
        Mbar = np.exp(np.outer(k, k) * self.weight.nu2)
        C = self.cbar.astype(np.longdouble)
        return float(np.max(np.abs(C @ Mbar @ C.T - np.eye(self.N + 1))))


@lru_cache(maxsize=64)
def _closed_form_indices(N: int):
    """Degree-only arrays of the closed-form coefficients, shared and read-only.

    Returns n, the lag n - k (0 above the diagonal), the sign (-1)^{n-k}
    and cbar's q-exponent (n-k)(n-k-1)/2 - n(n-1)/4, which is -inf above
    the diagonal so that those entries come out as exact zeros.  Building
    them costs about as much as the coefficients themselves.
    """
    n = np.arange(N + 1, dtype=float)
    lag = np.subtract.outer(np.arange(N + 1), np.arange(N + 1))
    lower = lag >= 0
    lag[~lower] = 0
    sign = 1.0 - 2.0 * (lag % 2)
    expo = np.where(lower, 0.5 * lag * (lag - 1.0) - 0.25 * n[:, None] * (n[:, None] - 1.0),
                    -np.inf)
    arrays = (n, lag, sign, expo)
    for a in arrays:
        a.setflags(write=False)
    return arrays


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
    N = _check_degree(N)
    nu2 = weight.nu2
    n, lag, sign, expo = _closed_form_indices(N)
    log_F = np.zeros(N + 1)
    # log expm1(x) = x + log(1 - e^{-x}), finite for every x > 0
    np.cumsum(nu2 * n[1:] + np.log(-np.expm1(-nu2 * n[1:])), out=log_F[1:])
    log_abs = nu2 * expo + 0.5 * log_F[:, None] - log_F - log_F[lag]
    with np.errstate(over="ignore"):
        eta = _UNIT_ROUNDOFF * np.exp(log_abs + 0.5 * nu2 * n * n).sum(axis=1)
    dropped = np.flatnonzero(eta > CLOSED_FORM_ETA_MAX)
    resolvable = int(dropped[0]) - 1 if dropped.size else N

    cbar = sign * np.exp(log_abs)
    lead = np.diagonal(cbar)[:resolvable + 1]
    if not lead.all():
        raise NumericalError(
            f"basis coefficients of degree {int(np.argmin(lead))} underflow to "
            f"zero (nu^2={nu2:.4g}, N={N})", module="basis")
    cbar[resolvable + 1:] = 0.0
    return OrthonormalBasis(weight=weight, N=N, cbar=cbar, resolvable_degree=resolvable,
                            eta=eta)
