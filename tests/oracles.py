"""Independent numerical oracles used by the tests.

These deliberately avoid the library's computational paths: moments come
from a hand-rolled RK4 integration of the moment ODE or from the benchmark's
high-precision series oracle (``perfbench/oracle.py::SeriesOracle``, which
also gives series prices and densities), inner products from
adaptive quadrature in log space, orthonormality checks from
Gauss-Hermite quadrature, basis coefficients from a high-precision
Cholesky factorization of the scaled Gram matrix, and the grid density
estimators from their brute-force grid x paths formula on the library's
paths.  The basis polynomials, the weight's moments and the Gram identity
defect, which the library never needs, are evaluated here from a basis's
coefficients.
"""

import importlib.util
import math
from pathlib import Path

import mpmath
import numpy as np
from scipy import integrate
from scipy.special import roots_hermite

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    """The module ``perfbench/<name>.py``, loaded read-only from its file."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: the high-precision series oracle of the benchmark: SeriesOracle(r, sigma,
#: T, mu, nu, n_max) of a unit-spot market and a weight, with the relative
#: moments ``mbar`` (Decimal), ``price(S0, K, N)`` and ``density(x, N)``
SeriesOracle = load_perfbench("oracle").SeriesOracle


def rk4_moments(r, sigma, T, N, steps):
    """RK4 integration of the moment ODE m' = G m, m(0) = e_1.

    The generator is rebuilt here from the drift/diffusion coefficients so
    that only the formula, not the propagation, is shared with the library.
    """
    n = np.arange(N + 1, dtype=float)
    G = np.zeros((N + 1, N + 1))
    G[np.arange(N + 1), np.arange(N + 1)] = n * r + 0.5 * n * (n - 1) * sigma**2
    G[np.arange(1, N + 1), np.arange(N)] = n[1:] / T
    h = T / steps
    m = np.zeros(N + 1)
    m[0] = 1.0
    for _ in range(steps):
        k1 = G @ m
        k2 = G @ (m + 0.5 * h * k1)
        k3 = G @ (m + 0.5 * h * k2)
        k4 = G @ (m + h * k3)
        m = m + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return m


def quad_weighted(f, mu, nu, span=12.0):
    """Adaptive quadrature of f against the log-normal weight, in log space."""
    def integrand(y):
        x = math.exp(y)
        return f(x) * math.exp(-0.5 * ((y - mu) / nu) ** 2) / (nu * math.sqrt(2 * math.pi))
    val, _ = integrate.quad(integrand, mu - span * nu, mu + span * nu, limit=400)
    return val


def quad_payoff_moment(mu, nu, strike, n):
    """<(x - K)^+ x^n>_w by adaptive quadrature."""
    return quad_weighted(lambda x: max(x - strike, 0.0) * x**n, mu, nu)


def quad_payoff_norm_sq(r, T, mu, nu, strike):
    """||exp(-rT)(x-K)^+||_w^2 by adaptive quadrature."""
    disc2 = math.exp(-2.0 * r * T)
    return disc2 * quad_weighted(lambda x: max(x - strike, 0.0) ** 2, mu, nu)


def weight_moment(weight, n):
    """n-th moment s_n = exp(n mu + n^2 nu^2 / 2) of a log-normal weight."""
    n = np.asarray(n, dtype=float)
    return np.exp(n * weight.mu + 0.5 * n**2 * weight.nu2)


def basis_evaluate(basis, x):
    """All polynomials of an ``OrthonormalBasis`` at x > 0; shape
    (N+1,) + x.shape.

    Uses the scaled-monomial form exp(k (log x - mu) - k^2 nu^2 / 2),
    which stays bounded on the bulk of the weight for any degree.
    """
    x = np.asarray(x, dtype=float)
    k = np.arange(basis.N + 1, dtype=float)
    lx = np.log(x).reshape(-1)
    U = np.exp(np.outer(k, lx - basis.weight.mu) - 0.5 * (k**2)[:, None] * basis.weight.nu2)
    return (basis.cbar @ U).reshape((basis.N + 1,) + x.shape)


def gram_identity_error(basis):
    """max |cbar Mbar cbar^T - I|, the orthonormality defect of a basis.

    Mbar and the product are evaluated in np.longdouble (extended
    precision where the platform has it): in double precision their
    rounding alone reads 1.5e-8 at nu^2 = 0.125, N = 10, where the defect
    of cbar itself is 5e-13.
    """
    k = np.arange(basis.N + 1, dtype=np.longdouble)
    Mbar = np.exp(np.outer(k, k) * basis.weight.nu2)
    C = basis.cbar.astype(np.longdouble)
    return float(np.max(np.abs(C @ Mbar @ C.T - np.eye(basis.N + 1))))


def gauss_hermite_gram(basis, nodes=500):
    """<b_i, b_j>_w for i,j <= N via Gauss-Hermite quadrature in log space."""
    t, w = roots_hermite(nodes)
    x = np.exp(basis.weight.mu + math.sqrt(2.0) * basis.weight.nu * t)
    B = basis_evaluate(basis, x)
    return (B * w) @ B.T / math.sqrt(math.pi)


def mp_cbar(nu2, N, dps=90):
    """Basis coefficients cbar = L^{-1}, L the Cholesky factor of
    Mbar_ij = exp(i j nu^2), in mpmath at ``dps`` digits.

    ``nu2`` is taken exactly as the double it is.  L is inverted by forward
    substitution: an LU-based inverse reports Mbar as numerically singular
    at large N even at this precision.
    """
    with mpmath.workdps(dps):
        q = mpmath.exp(mpmath.mpf(nu2))
        M = mpmath.matrix(N + 1, N + 1)
        for i in range(N + 1):
            for j in range(N + 1):
                M[i, j] = q ** (i * j)
        L = mpmath.cholesky(M)
        C = [[mpmath.mpf(0)] * (N + 1) for _ in range(N + 1)]
        for n in range(N + 1):
            C[n][n] = 1 / L[n, n]
            for k in range(n):
                C[n][k] = -sum(L[n, m] * C[m][k] for m in range(k, n)) / L[n, n]
        return np.array([[float(c) for c in row] for row in C])


def dense_ibp_density(market, config, x, control_variate):
    """Brute-force integration-by-parts density estimate on a grid.

    Builds every term as a grid x paths array over all paths at once:
    (1{A >= x} - 1{x <= E[A]}) W_A for the plain estimator, less the same
    term for the geometric average Q plus its closed-form density q(x) for
    the control-variate one, whose variance is that of the difference of
    the two terms, q(x) being a constant.  Returns (value, std_error,
    variance_reduction), the last None for the plain estimator.  Only the
    paths and the weights come from the library.
    """
    from asianlns import geo_average_density, mean_average, simulate
    from asianlns.mc import _arith_malliavin_weight, _geo_malliavin_weight

    x = np.asarray(x, dtype=float)[:, None]
    p = simulate(market, config)
    plain = ((p.average >= x).astype(float) - (x <= mean_average(market))) \
        * _arith_malliavin_weight(market, p)
    n = p.n
    if not control_variate:
        return plain.mean(axis=1), np.sqrt(plain.var(axis=1) / (n - 1)), None
    mq = 0.5 * (market.r - 0.5 * market.sigma**2) * market.T
    m1q = math.exp(mq + market.sigma**2 * market.T / 6.0)
    geo = ((p.geo_average >= x).astype(float) - (x <= m1q)) \
        * _geo_malliavin_weight(market, p)
    diff = plain - geo
    v_plain, v_cv = plain.var(axis=1), diff.var(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        vr = np.where((v_cv > 0) & (v_plain > 0), v_plain / v_cv, np.nan)
    return (diff.mean(axis=1) + geo_average_density(market, x[:, 0]),
            np.sqrt(v_cv / (n - 1)), vr)
