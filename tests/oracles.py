"""Independent numerical oracles used by the tests.

These deliberately avoid the library's computational paths: moments come
from a hand-rolled RK4 integration of the moment ODE, inner products from
adaptive quadrature in log space, orthonormality checks from
Gauss-Hermite quadrature, and basis coefficients from a high-precision
Cholesky factorization of the scaled Gram matrix.
"""

import math

import mpmath
import numpy as np
from scipy import integrate
from scipy.special import roots_hermite


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


def lognormal_pdf(mu, nu, x):
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * ((np.log(x) - mu) / nu) ** 2) / (x * nu * math.sqrt(2 * math.pi))


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


def gauss_hermite_gram(evaluate, mu, nu, N, nodes=500):
    """<b_i, b_j>_w for i,j <= N via Gauss-Hermite quadrature in log space."""
    t, w = roots_hermite(nodes)
    x = np.exp(mu + math.sqrt(2.0) * nu * t)
    B = evaluate(x)
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
