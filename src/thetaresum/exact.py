"""Exact rational layer: Bernoulli polynomials, L-values, series coefficients.

L(-m, h) = -(P^m/(m+1)) sum_{r=1}^{P} h(r) B_{m+1}(r/P) of any even periodic
table h is written once (l_value).  For an even mean-zero period-M function
f the asymptotic expansion of the normalised theta sum around q = 1 has
coefficients

    C_n = (-1)^n L(-2n-1, f) = (-1)^n c L(-2n-1, pattern of f),

all computed here as exact Fractions; the theta radial limits are L(-1, h)
and h(0) + L(0, h) of a twisted table.  The constant C_M = -(M/2) sum f(m)
B_2(m/M) is C_0; suite cm checks it against the Dirichlet sum of f~.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf

from .periodic import PeriodicFunction, tilde_transform
from .precision import DEFAULT_CTX, PrecisionContext, richardson_limit, to_mpf


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; indicates a bug, not bad input."""


# ---------------------------------------------------------------------------
# Bernoulli numbers and polynomials, exact and cached.

_BERNOULLI: list = [Fraction(1)]
_BERNOULLI_LCM: list = [1]  # _BERNOULLI_LCM[k] = lcm(den B_0, ..., den B_k)
_BERNOULLI_LOCK = threading.Lock()


def bernoulli_number(n: int) -> Fraction:
    """B_n (convention B_1 = -1/2), via the binomial recurrence, cached.

    Cache growth is idempotent and guarded by a lock so concurrent readers
    never observe a partially built table.
    """
    if n < 0:
        raise ValueError("Bernoulli index must be >= 0")
    if n < len(_BERNOULLI):
        return _BERNOULLI[n]
    with _BERNOULLI_LOCK:
        while len(_BERNOULLI) <= n:
            m = len(_BERNOULLI)
            # sum_{j=0}^{m} C(m+1, j) B_j = 0  for m >= 1
            s = Fraction(0)
            for j in range(m):
                s += math.comb(m + 1, j) * _BERNOULLI[j]
            b = -s / (m + 1)
            _BERNOULLI_LCM.append(math.lcm(_BERNOULLI_LCM[-1], b.denominator))
            _BERNOULLI.append(b)
    return _BERNOULLI[n]


def bernoulli_polynomial(k: int, x) -> Fraction:
    """B_k(x) for exact rational x, via the binomial sum over B_j.

    For x = n/d, B_k(x) = S/(D d^k) with D = lcm(den B_0, ..., den B_k) and
    the integer S = sum_j C(k, j) (D B_{k-j}) n^j d^{k-j}, summed by Horner
    in n from j = k down.
    """
    if k < 0:
        raise ValueError("Bernoulli degree must be >= 0")
    x = Fraction(x)
    n, d = x.numerator, x.denominator
    bernoulli_number(k)  # fills _BERNOULLI and _BERNOULLI_LCM up to k
    D = _BERNOULLI_LCM[k]
    S, dpow = 0, 1
    for j in range(k, -1, -1):
        b = _BERNOULLI[k - j]
        S *= n
        if b:
            S += math.comb(k, j) * b.numerator * (D // b.denominator) * dpow
        dpow *= d
    return Fraction(S, D * d ** k)


# ---------------------------------------------------------------------------
# L-values and series coefficients.

def bernoulli_sum(h, k: int):
    """sum_{r=1}^{P} h(r) B_k(r/P) over one period h[0], ..., h[P-1] of an even h.

    Every table the library passes is even, h(P - r) = h(r): the sign pattern
    of f (its classes +-k1, +-k2), f~, and the twisted h of the radial limits
    (f times a phase in n^2).  With B_k(1 - x) = (-1)^k B_k(x) the terms r and
    P - r pair up, and B_k(1/2) = 0 for odd k, so the sum is h(0) B_k(1) plus,
    for even k only, 2 sum_{0<r<P/2} h(r) B_k(r/P) + h(P/2) B_k(1/2) (P even).
    The term h(0) B_k(1) is skipped when h(0) = 0.  Exact values (int or
    Fraction) give an exact sum; mpf or mpc values a sum at the current
    precision, each B_k(r/P) rounded once by mpmath.
    """
    P = len(h)
    total = h[0] * bernoulli_polynomial(k, 1) if h[0] else 0
    if k % 2 == 0:
        for r in range(1, P // 2 + 1):
            if h[r]:
                total += (1 if 2 * r == P else 2) * h[r] * bernoulli_polynomial(k, Fraction(r, P))
    return total


def l_value(h, m: int):
    """L(-m, h) = -(P^m/(m+1)) sum_{r=1}^{P} h(r) B_{m+1}(r/P) for an even
    period-P table h (bernoulli_sum): exact for exact values."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return -Fraction(len(h) ** m, m + 1) * bernoulli_sum(h, m + 1)


@dataclass(frozen=True)
class FormalSeries:
    """The divergent expansion sum_n (C_n / n!) (1/(b x))^n attached to f.

    C are exact Fractions, and c_m = C_0 is the constant C_M.  a(n) =
    C_n/(n! b^n) gives the coefficients of the 1/x power series handed to
    the Borel layer.
    """

    f: PeriodicFunction
    b: int
    C: tuple
    c_m: Fraction

    @property
    def count(self) -> int:
        return len(self.C)

    def a(self, n: int):
        if n >= len(self.C):
            raise IndexError(f"coefficient {n} beyond computed range {len(self.C)}")
        return self.C[n] / (Fraction(math.factorial(n)) * Fraction(self.b) ** n)

    @property
    def tilde(self):
        return tilde_transform(self.f)


def series_coefficients(spec, count: int) -> FormalSeries:
    """Exact C_0..C_{count-1} for a theta spec (needs .f and .b attributes)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    f = spec.f
    if not isinstance(f, PeriodicFunction):
        raise TypeError("series coefficients require the plain periodic f")
    C = tuple((-1) ** n * f.c * l_value(f.pattern, 2 * n + 1) for n in range(count))
    return FormalSeries(f=f, b=spec.b, C=C, c_m=C[0])


# ---------------------------------------------------------------------------
# Empirical Gevrey-1 growth fit.

@dataclass(frozen=True)
class GevreyFit:
    A: mpf
    B: mpf
    B_lsq: mpf           # slope fit of log(|a_n|/n!) against n
    radius: mpf          # extrapolated 1/B = Borel radius of convergence
    radius_expected: mpf  # b pi^2 l*^2 / M^2 from the f~ support


def gevrey_estimate(series: FormalSeries, count: int = None,
                    ctx: PrecisionContext = DEFAULT_CTX) -> GevreyFit:
    """Fit |a_n| <= A B^n n! empirically.

    B_lsq is the least-squares slope of log(|a_n|/n!) against n over the
    tail half of the coefficients; B refines it through Richardson-
    extrapolated ratios of the Borel coefficients g_n = a_{n+1}/n! (the
    subexponential n^{3/2} factor cancels in the ratios).  A caps
    |a_n| / (B^n n!) over the computed range.
    """
    n_max = series.count if count is None else min(count, series.count)
    if n_max < 10:
        raise ValueError("need at least 10 coefficients for a stable fit")
    with ctx.working():
        g = []
        for n in range(n_max - 1):
            g.append(to_mpf(series.a(n + 1)) / mp.factorial(n))
        # ratio g_{n+1}/g_n -> 1/radius with O(1/n) corrections
        take = min(8, n_max - 3)
        idx = list(range(n_max - 1 - take, n_max - 2))
        xs = [mpf(1) / (k + 1) for k in idx]
        ys = [abs(g[k + 1] / g[k]) for k in idx]
        B, _ = richardson_limit(xs, ys)
        if not (B > 0 and mp.isfinite(B)):
            raise ConsistencyError(
                f"coefficient ratios do not stabilise (B fit = {B}); "
                "growth is not Gevrey-1, which indicates a bug upstream")
        radius = 1 / B
        # straight least-squares on the tail half: log|g_{n-1}| ~ logA + n logB
        lo = n_max // 2
        pts = [(mpf(n + 1), mp.log(abs(g[n]))) for n in range(lo, n_max - 1) if g[n]]
        nn = len(pts)
        sx = mp.fsum(p[0] for p in pts)
        sy = mp.fsum(p[1] for p in pts)
        sxx = mp.fsum(p[0] ** 2 for p in pts)
        sxy = mp.fsum(p[0] * p[1] for p in pts)
        slope = (nn * sxy - sx * sy) / (nn * sxx - sx ** 2)
        B_lsq = mp.exp(slope)
        ell0 = series.tilde.first_support
        expected = (mpf(series.b) * mp.pi ** 2 * ell0 ** 2) / series.f.M ** 2
        A = mpf(0)
        for n in range(n_max):
            A = max(A, abs(to_mpf(series.a(n))) / (B ** n * mp.factorial(n)))
        return GevreyFit(A=A, B=B, B_lsq=B_lsq, radius=radius,
                         radius_expected=expected)
