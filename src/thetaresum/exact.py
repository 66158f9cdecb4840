"""Exact rational layer: Bernoulli polynomials, L-values, series coefficients.

L(-m, h) = -(P^m/(m+1)) sum_{r=1}^{P} h(r) B_{m+1}(r/P) of any even periodic
table h is written once (l_value), on one pairing of r with P - r
(bernoulli_term).  For an even mean-zero period-M function f the
asymptotic expansion of the normalised theta sum around q = 1 has
coefficients

    C_n = (-1)^n L(-2n-1, f) = (-1)^n c L(-2n-1, pattern of f),

all computed here as exact Fractions.  The theta radial limits are L(-1, h)
and h(0) + L(0, h) of a twisted table h; qseries sums them by phase class
with the same bernoulli_term.  The constant C_M = -(M/2) sum f(m)
B_2(m/M) is C_0; suite cm checks it against the Dirichlet sum of f~.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from fractions import Fraction

from .periodic import PeriodicFunction, TildeFunction


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


@functools.lru_cache(maxsize=None)
def bernoulli_polynomial(k: int, x) -> Fraction:
    """B_k(x) for exact rational x, via the binomial sum over B_j, cached.

    For x = n/d, B_k(x) = S/(D d^k) with D = lcm(den B_0, ..., den B_k) and
    the integer S = sum_j C(k, j) (D B_{k-j}) n^j d^{k-j}, summed by Horner
    in n from j = k down.  The series of one pattern read the same B_k(r/P)
    at every count and every suite, so each value is summed once.
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

def bernoulli_term(v, k: int, r: int, P: int):
    """v w_r B_k(x_r): what h(r) = v, 0 <= r <= P/2, carries in sum_{m=1}^{P}
    h(m) B_k(m/P) of an even period-P table h.

    Every table the library sums is even, h(P - r) = h(r): the sign pattern
    of f (its classes +-k1, +-k2), f~, and the twisted h of the radial limits
    (f times a phase in n^2).  With B_k(1 - x) = (-1)^k B_k(x) the terms m and
    P - m pair up, and B_k(1/2) = 0 for odd k, so the sum is h(0) B_k(1) (m =
    P) plus, for even k only, 2 sum_{0<r<P/2} h(r) B_k(r/P) + h(P/2) B_k(1/2)
    (P even).  This pairing is the one rule for the sum, read by
    bernoulli_sum and by the radial limits (qseries.theta_radial_limit),
    which sum by phase class.  The multiplicity w_r scales v, so exact
    values take one Fraction product per term.
    """
    if r == 0:
        return v * bernoulli_polynomial(k, 1)
    if k % 2:
        return 0
    return (v if 2 * r == P else 2 * v) * bernoulli_polynomial(k, Fraction(r, P))


def bernoulli_sum(h, k: int):
    """sum_{m=1}^{P} h(m) B_k(m/P) over one period h[0], ..., h[P-1] of an even
    h: bernoulli_term over the r <= P/2 (r = 0 alone for odd k) with h(r) !=
    0.  Exact values (int or Fraction) give an exact sum; mpf or mpc values a
    sum at the current precision, each B_k(x_r) rounded once by mpmath.
    """
    P = len(h)
    return sum(bernoulli_term(h[r], k, r, P)
               for r in range(P // 2 + 1 if k % 2 == 0 else 1) if h[r])


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
        return TildeFunction(self.f)


def series_coefficients(spec, count: int) -> FormalSeries:
    """Exact C_0..C_{count-1} for a theta spec (needs .f and .b attributes)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    f = spec.f
    if not isinstance(f, PeriodicFunction):
        raise TypeError("series coefficients require the plain periodic f")
    C = tuple((-1) ** n * f.c * l_value(f.pattern, 2 * n + 1) for n in range(count))
    return FormalSeries(f=f, b=spec.b, C=C, c_m=C[0])
