"""High-precision reference for the series price and density, and fixture data.

The oracle evaluates the same degree-N series as the library,

    price = exp(-rT) S0 fbar' Mbar^{-1} mbar,
    g(x)  = w(x) sum_k (Mbar^{-1} mbar)_k u_k(x),

on the weight the library chose, but shares none of its numeric path:

- relative moments mbar = exp(G T) e_1 come from the Taylor series of the
  action of the scaled moment generator, summed in decimal arithmetic (no
  ``expm_multiply``);
- ``Mbar_ij = exp(i j nu^2)`` is solved by Gaussian elimination in the same
  arithmetic (no ``orthonormal_basis``, no Cholesky);
- the projections fbar use ``mpmath.ncdf``.

Every input float converts exactly.  The working precision is 60 digits
plus twice the digits that the conditioning of Mbar can cost, so the
result carries at least 60 correct digits even for the smallest tau the
workloads draw (Mbar's pivots shrink like prod_m (exp(m nu^2) - 1)).
``mp.expm`` would do the moments too but costs about 0.6 s per market at
N = 20; the tests check the Taylor moments against it.
"""

from __future__ import annotations

import json
import math
from decimal import Context, Decimal, localcontext
from pathlib import Path

import mpmath

#: significant digits the oracle guarantees before conditioning losses
BASE_DIGITS = 60

#: the largest order the workloads request; moments and the LU factor are
#: built once at this order and their leading blocks serve every lower order
MAX_N = 20

FIXTURE = Path("src") / "asianlns" / "data" / "reference_prices.json"


def working_digits(nu2: float, N: int = MAX_N) -> int:
    """60 digits plus twice the decimal digits lost to Mbar's conditioning."""
    lost = sum(max(0.0, -math.log10(math.expm1(m * nu2))) for m in range(1, N + 1))
    return BASE_DIGITS + 2 * math.ceil(lost) + 10


class SeriesOracle:
    """Reference series for one normalized market and one weight.

    Parameters are the unit-initial-price market (r, sigma, T) and the
    weight (mu, nu) that the library reported for it.  Moments and the
    elimination of Mbar are computed once, at order ``n_max``; prices and
    densities at any order N <= n_max reuse their leading blocks (Gaussian
    elimination without pivoting factors every leading block of an SPD
    matrix on the way).
    """

    def __init__(self, r: float, sigma: float, T: float, mu: float, nu: float,
                 n_max: int = MAX_N):
        self.n_max = n_max
        self.digits = working_digits(nu * nu, n_max)
        self.ctx = Context(prec=self.digits, Emax=10**6, Emin=-10**6)
        with localcontext(self.ctx):
            self.r, self.T, self.mu, self.nu = map(Decimal, (r, T, mu, nu))
            self.nu2 = self.nu * self.nu
            self.mbar = self._relative_moments(Decimal(sigma))
            self._lu = self._eliminate()
        self._coef = {}
        self._fbar = {}

    def _relative_moments(self, sigma: Decimal) -> list:
        """mbar = exp(G T) e_1 by the Taylor series of the action.

        G T has diagonal (n r + n (n-1) sigma^2 / 2) T and subdiagonal
        n exp(-mu + (1 - 2n) nu^2 / 2).  All subdiagonal entries are
        positive and negative diagonal entries (r < 0) are small, so the
        partial sums barely cancel.
        """
        N, nu2 = self.n_max, self.nu2
        diag = [(n * self.r + n * (n - 1) * sigma * sigma / 2) * self.T
                for n in range(N + 1)]
        sub = [Decimal(0)] + [n * ((Decimal(1 - 2 * n) / 2) * nu2 - self.mu).exp()
                              for n in range(1, N + 1)]
        norm = max(abs(d) + s for d, s in zip(diag, sub))
        tiny = Decimal(10) ** (-self.digits - 5)
        v = [Decimal(1)] + [Decimal(0)] * N
        acc = list(v)
        k = 0
        while True:
            k += 1
            v = [diag[0] * v[0] / k] + [(diag[n] * v[n] + sub[n] * v[n - 1]) / k
                                        for n in range(1, N + 1)]
            acc = [a + b for a, b in zip(acc, v)]
            if k > norm and max(map(abs, v)) <= tiny * min(acc):
                return acc

    def _eliminate(self) -> list:
        """Doolittle elimination of Mbar_ij = q^(i j), q = exp(nu^2), in place:
        unit-lower L below the diagonal, U on and above it.  No pivoting:
        Mbar is positive definite."""
        N = self.n_max
        q = self.nu2.exp()
        A = []
        for i in range(N + 1):
            qi, e, row = q ** i, Decimal(1), []
            for _ in range(N + 1):
                row.append(e)
                e *= qi
            A.append(row)
        for j in range(N + 1):
            Aj = A[j]
            for i in range(j + 1, N + 1):
                Ai = A[i]
                f = Ai[j] / Aj[j]
                Ai[j] = f
                for k in range(j + 1, N + 1):
                    Ai[k] -= f * Aj[k]
        return A

    def coefficients(self, N: int) -> list:
        """Mbar^{-1} mbar at order N (leading blocks of the order-n_max LU)."""
        if not 0 <= N <= self.n_max:
            raise ValueError(f"order {N} outside 0..{self.n_max}")
        if N not in self._coef:
            A = self._lu
            with localcontext(self.ctx):
                y = []
                for i in range(N + 1):
                    y.append(self.mbar[i] - sum((A[i][k] * y[k] for k in range(i)),
                                                Decimal(0)))
                x = [Decimal(0)] * (N + 1)
                for i in range(N, -1, -1):
                    x[i] = (y[i] - sum((A[i][k] * x[k] for k in range(i + 1, N + 1)),
                                       Decimal(0))) / A[i][i]
            self._coef[N] = x
        return self._coef[N]

    def _ncdf(self, d: Decimal) -> Decimal:
        with mpmath.workdps(self.digits + 5):
            return Decimal(mpmath.nstr(mpmath.ncdf(mpmath.mpf(str(d))), self.digits + 5))

    def _projections(self, k: Decimal) -> list:
        """fbar_i = exp(mu + (2i+1) nu^2 / 2) Phi(d_{i+1}) - k Phi(d_i), i <= n_max,
        with d_n = (mu + n nu^2 - log k) / nu; cached per normalized strike."""
        if k not in self._fbar:
            with localcontext(self.ctx):
                q = self.nu2.exp()
                lead = [(self.mu + self.nu2 / 2).exp()]
                for _ in range(self.n_max):
                    lead.append(lead[-1] * q)
                if k == 0:
                    self._fbar[k] = lead
                else:
                    logk = k.ln()
                    phi = [self._ncdf((self.mu + n * self.nu2 - logk) / self.nu)
                           for n in range(self.n_max + 2)]
                    self._fbar[k] = [lead[i] * phi[i + 1] - k * phi[i]
                                     for i in range(self.n_max + 1)]
        return self._fbar[k]

    def price(self, S0: float, K: float, N: int) -> float:
        """Series price of the call with strike K on spot S0 (currency)."""
        x = self.coefficients(N)
        with localcontext(self.ctx):
            fbar = self._projections(Decimal(K) / Decimal(S0))
            dot = sum((f * xi for f, xi in zip(fbar, x)), Decimal(0))
            return float((-self.r * self.T).exp() * Decimal(S0) * dot)

    def likelihood_norm_sq(self, N: int) -> float:
        """sum_{n <= N} ell_n^2 = mbar' Mbar^{-1} mbar, a lower bound on ||ell||_w^2."""
        x = self.coefficients(N)
        with localcontext(self.ctx):
            return float(sum((m * xi for m, xi in zip(self.mbar, x)), Decimal(0)))

    def density(self, xs, N: int) -> list:
        """Series density of the normalized average at each x > 0:
        w(x) sum_k a_k exp(-k^2 nu^2 / 2) z^k with z = x exp(-mu)."""
        coef = self.coefficients(N)
        with localcontext(self.ctx):
            scaled = [a * (-(k * k) * self.nu2 / 2).exp() for k, a in enumerate(coef)]
            with mpmath.workdps(self.digits + 5):
                pi = Decimal(mpmath.nstr(mpmath.pi, self.digits + 5))
            inv_root = 1 / ((2 * pi).sqrt() * self.nu)
            emu = (-self.mu).exp()
            out = []
            for xv in xs:
                x = Decimal(float(xv))
                y = x.ln() - self.mu
                z = x * emu
                poly = Decimal(0)
                for a in reversed(scaled):
                    poly = poly * z + a
                w = inv_root * (-(y * y) / (2 * self.nu2)).exp() / x
                out.append(float(w * poly))
        return out


def load_fixture(root: Path) -> dict:
    """Published per-case reference values, keyed by 1-based case number.

    Each row carries the market, the eigenfunction-expansion price ``ee``
    and the published 95% Monte-Carlo interval ``mc_lo``/``mc_hi``.
    """
    with open(root / FIXTURE) as fh:
        data = json.load(fh)
    return {row["case"]: dict(row, K=data["strike"]) for row in data["cases"]}


def half_unit(value: float) -> float:
    """Half a unit in the last published decimal place of a fixture value."""
    text = repr(value)
    places = len(text.split(".")[1]) if "." in text else 0
    return 0.5 * 10.0 ** (-places)
