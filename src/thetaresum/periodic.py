"""Even mean-zero periodic functions supported on four residue classes.

The family handled here assigns +c on the residues {k1, M-k1} mod M, -c on
{k2, M-k2}, and 0 elsewhere.  It covers the sign characters chi_{2st}^{(n,m)}
attached to coprime (s,t) and everything the resummation pipeline consumes.
Also houses PeriodicTable (how the library reads any periodic function), the
sine-product transform f~ (TildeFunction(f)), the index set D(s,t) (pair_set,
a tuple of pairs), the finite S-matrix, and the check that f~ of a character
decomposes over the characters of D(s,t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from mpmath import mp, mpf, workprec

from .precision import (DEFAULT_CTX, Estimate, PrecisionContext, as_fraction, exact, frac_to_mp,
                        to_mpf)
from .report import agrees


class ConfigError(ValueError):
    """Raised for structurally invalid periodic-function parameters."""


class PeriodicTable(tuple):
    """h(0), ..., h(P-1) of a periodic h at one precision; P = len(table).

    The one form in which the library reads a periodic function: f
    (PeriodicFunction.table), f~ (TildeFunction.table) and the twisted h of
    the radial limits (qseries.twisted_table).  Zeros are exact.  Data
    derived from the values, such as resum's cotangent moments, is kept in
    the instance's __dict__.
    """

    def __call__(self, n: int):
        return self[n % len(self)]

    def max_abs(self) -> mpf:
        return max(abs(v) for v in self)

    def partial_sum_peak(self) -> mpf:
        """max_n |sum_{1<=l<=n} h(l)| over one period; mean zero makes the
        partial sums periodic, so this bounds them all (Abel tails)."""
        acc = peak = mpf(0)
        for v in self[1:] + self[:1]:
            acc += v
            peak = max(peak, abs(acc))
        return peak


def _min_residue(k: int, M: int) -> int:
    """Representative of the class {k, -k} mod M inside 0..M//2."""
    r = k % M
    return min(r, M - r)


@dataclass(frozen=True)
class PeriodicFunction:
    """Even, mean-zero, period-M function with values in {+c, -c, 0}.

    ``c`` is an exact nonzero Fraction; the residue table is stored as an
    integer sign pattern so that all exact arithmetic (Bernoulli sums,
    L-values) factors through ``c``.
    """

    c: Fraction
    M: int
    k1: int
    k2: int

    @property
    def pattern(self) -> tuple:
        return _pattern(self.M, self.k1, self.k2)

    @property
    def values(self) -> list:
        """Residue-indexed table over 0..M-1, as Fractions."""
        return [self.c * s for s in self.pattern]

    def sign(self, n: int) -> int:
        return self.pattern[n % self.M]

    def __call__(self, n: int):
        return self.c * self.pattern[n % self.M]

    def table(self) -> PeriodicTable:
        """(f(0), ..., f(M-1)) at the current precision."""
        c = to_mpf(self.c)
        return PeriodicTable(c * s for s in self.pattern)

    @property
    def period(self) -> int:
        return self.M

    def scale(self, factor) -> "PeriodicFunction":
        """Same sign pattern with c multiplied by an exact rational factor."""
        factor = as_fraction(factor)
        if factor == 0:
            raise ConfigError("scale factor must be nonzero")
        return PeriodicFunction(self.c * factor, self.M, self.k1, self.k2)


@lru_cache(maxsize=None)
def _pattern(M: int, k1: int, k2: int) -> tuple:
    row = [0] * M
    for r in (k1 % M, (-k1) % M):
        row[r] = 1
    for r in (k2 % M, (-k2) % M):
        row[r] = -1
    return tuple(row)


def make_periodic(c, M: int, k1: int, k2: int) -> PeriodicFunction:
    """Construct the four-residue function of (c, M, k1, k2).

    c must be an exact rational (int, Fraction or a string like '-1/2'); a
    float or mpf raises TypeError.  k1, k2 are normalised mod M to the
    minimal representatives of their +/- classes.  The four residue classes
    must be pairwise distinct; merged classes (e.g. k1 = -k1 mod M, or
    overlap between the +c and -c classes) are rejected as ambiguous
    configurations.
    """
    if M < 2:
        raise ConfigError(f"period M must be >= 2, got {M}")
    cval = as_fraction(c)
    if cval == 0:
        raise ConfigError("scale c must be nonzero")
    a = _min_residue(k1, M)
    b = _min_residue(k2, M)
    residues = {k1 % M, (-k1) % M, k2 % M, (-k2) % M}
    if len(residues) != 4:
        raise ConfigError(
            f"residue classes of k1={k1}, k2={k2} mod {M} collide; "
            "the piecewise definition would be ambiguous"
        )
    if a > b:
        # keep the stored pair ordered; swapping the classes flips the sign
        a, b = b, a
        cval = -cval
    return PeriodicFunction(cval, M, a, b)


@dataclass(frozen=True)
class ChiParams:
    """Index data (s, t, n, m) of the character chi_{2st}^{(n,m)}."""

    s: int
    t: int
    n: int
    m: int

    def __post_init__(self):
        if self.s < 1 or self.t < 1:
            raise ConfigError("s, t must be positive")
        if math.gcd(self.s, self.t) != 1:
            raise ConfigError(f"s={self.s} and t={self.t} must be coprime")
        if not (1 <= self.n <= self.s - 1):
            raise ConfigError(f"n must lie in 1..s-1, got n={self.n}")
        if not (1 <= self.m <= self.t - 1):
            raise ConfigError(f"m must lie in 1..t-1, got m={self.m}")


def chi_function(p: ChiParams) -> PeriodicFunction:
    """chi_{2st}^{(n,m)}: +1 on k = +-(nt-ms), -1 on k = +-(nt+ms) mod 2st."""
    M = 2 * p.s * p.t
    k1 = p.n * p.t - p.m * p.s
    k2 = p.n * p.t + p.m * p.s
    f = make_periodic(Fraction(1), M, k1, k2)
    # coprimality forces the four classes apart, so the sign never flips here
    assert f.c == 1
    return f


@dataclass(frozen=True)
class TildeFunction:
    """The transform f~(l) = (-1)^l sin((k2-k1) l pi/M) sin((M-k1-k2) l pi/M).

    ``period`` is the exact minimal period P, a divisor of M, and f~ is
    read over one period: ``table()`` holds f~(0), ..., f~(P-1), each the
    sine product at the current mpmath precision (from exact rational
    multiples of pi), cached per (M, k1, k2, precision); the scale c does
    not enter f~.  A sine argument is an integer exactly when mp.sinpi
    returns 0, so the zeros of f~ are exact zeros of the table.
    """

    base: PeriodicFunction

    @property
    def M(self) -> int:
        return self.base.M

    def __call__(self, ell: int) -> mpf:
        return self.table()(ell)

    @property
    def first_support(self) -> int:
        """The least l >= 1 with f~(l) != 0 (f~(0) = 0)."""
        return next(ell for ell, v in enumerate(self.table()) if v)

    @property
    def period(self) -> int:
        """Exact minimal period, a divisor of M.

        f~(l) = (cos(2 pi k2 l/M) - cos(2 pi k1 l/M))/2 (sin A sin B =
        (cos(A-B) - cos(A+B))/2) is a sum of the characters e^{+-2 pi i k l/M},
        k = k1, k2, whose four classes mod M are distinct (make_periodic).
        Distinct characters are independent, so the period is the lcm of
        theirs, M/gcd(k, M).
        """
        M, k1, k2 = self.base.M, self.base.k1, self.base.k2
        return math.lcm(M // math.gcd(k1, M), M // math.gcd(k2, M))

    def table(self) -> PeriodicTable:
        base = self.base
        return _tilde_table(base.M, base.k1, base.k2, self.period, mp.prec)

    def partial_sum_peak(self) -> mpf:
        """PeriodicTable.partial_sum_peak of f~, at no fewer than 80 bits."""
        with workprec(max(mp.prec, 80)):
            return self.table().partial_sum_peak()


def _sine_product(M: int, k1: int, k2: int, ell: int) -> mpf:
    """f~(l) at the current precision; depends on l only through l mod 2M."""
    r1 = Fraction((k2 - k1) * ell, M) % 2
    r2 = Fraction((M - k1 - k2) * ell, M) % 2
    sign = -1 if ell % 2 else 1
    return sign * mp.sinpi(frac_to_mp(r1)) * mp.sinpi(frac_to_mp(r2))


@lru_cache(maxsize=256)
def _tilde_table(M: int, k1: int, k2: int, period: int, prec: int) -> PeriodicTable:
    """(f~(0), ..., f~(period-1)) at ``prec`` bits, exactly even.

    f~ is even and of period ``period``, so f~(period - l) = f~(l): the sine
    products are taken for l <= period/2 and mirrored, which makes the table
    even bit for bit (resum.tilde_dirichlet pairs r with period - r).
    """
    with workprec(prec):
        half = [_sine_product(M, k1, k2, ell) for ell in range(period // 2 + 1)]
    return PeriodicTable(half[min(ell, period - ell)] for ell in range(period))


def _divisors(n: int):
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


def pair_set(s: int, t: int) -> tuple:
    """The index set D(s,t), (s-1)(t-1)/2 pairs (n, m), per the parity
    cases; odd-odd (s,t) returns the D1 convention."""
    if math.gcd(s, t) != 1:
        raise ConfigError(f"s={s}, t={t} must be coprime")
    if s < 2 or t < 2:
        raise ConfigError("need s, t >= 2 for a nonempty pair set")
    if s % 2 == 1:
        pairs = [(n, m) for n in range(1, (s - 1) // 2 + 1) for m in range(1, t)]
    else:
        pairs = [(n, m) for n in range(1, s) for m in range(1, (t - 1) // 2 + 1)]
    expected = (s - 1) * (t - 1) // 2
    if len(pairs) != expected or len(set(pairs)) != expected:
        raise AssertionError("pair set cardinality violates (s-1)(t-1)/2")
    return tuple(pairs)


def s_matrix_entry(s: int, t: int, nm: tuple, nm2: tuple,
                   ctx: PrecisionContext = DEFAULT_CTX) -> mpf:
    """sqrt(8/st) (-1)^{nm'+mn'+1} sin(nn't pi/s) sin(mm's pi/t)."""
    n, m = nm
    np_, mp_ = nm2
    with ctx.working():
        sign = -1 if (n * mp_ + m * np_ + 1) % 2 else 1
        a1 = Fraction(n * np_ * t, s) % 2
        a2 = Fraction(m * mp_ * s, t) % 2
        return (mp.sqrt(mpf(8) / (s * t)) * sign
                * mp.sinpi(frac_to_mp(a1)) * mp.sinpi(frac_to_mp(a2)))


@dataclass(frozen=True)
class DecompositionReport:
    """Both sides of the decomposition at every residue, and the vanishing.

    sides holds (k, f~(k), -sqrt(st/8) sum S chi'(k)) for k mod 2st, as
    Estimates with rounding bars; vanishing is the sum of |both sides| over
    the k divisible by s or t, exact with a zero bar.  Each passes by the
    pass rule (report.agrees) at prec bits.
    """

    s: int
    t: int
    nm: tuple
    sides: tuple
    vanishing: Estimate
    prec: int

    @property
    def passed(self) -> bool:
        return (all(agrees(lhs, rhs, self.prec) for _, lhs, rhs in self.sides)
                and agrees(self.vanishing, exact(0), self.prec))


def verify_decomposition(s: int, t: int, nm: tuple,
                         ctx: PrecisionContext = DEFAULT_CTX) -> DecompositionReport:
    """Check chi~^{(n,m)}(k) = -sqrt(st/8) sum_{(n',m')} S chi^{(n',m')}(k)
    over every residue k mod 2st, plus the vanishing on multiples of s or t.

    The sides are taken at wp = ctx.prec + GUARD_BITS bits, and their bars
    are rounding bars.  A sine product of two rational multiples of pi,
    each rounded to wp bits, is within 2^(5-wp) of its exact value (each
    sinpi within (2 pi + 1) 2^-wp, and the product's rounding): that is
    f~(k)'s bar, and an S entry is within sqrt(8/st) 2^(5-wp).  The right
    side adds n = |D(s,t)| entries, each of size at most sqrt(8/st), and
    scales by sqrt(st/8), so it is within n 2^(6-wp), which also covers
    the roundings of the sum, of the prefactor and of the product.  On a
    multiple of s or t every sine argument of f~ is an integer and every
    chi' vanishes, so both sides are exact zeros there.
    """
    ps = pair_set(s, t)
    if tuple(nm) not in ps:
        raise ConfigError(f"{nm} is not in D({s},{t})")
    n, m = nm
    with ctx.working():
        tilde = TildeFunction(chi_function(ChiParams(s, t, n, m))).table()
        chis = [chi_function(ChiParams(s, t, a, b)) for (a, b) in ps]
        row = [s_matrix_entry(s, t, nm, other, ctx) for other in ps]
        pref = -mp.sqrt(mpf(s * t) / 8)
        lhs_bar = mpf(2) ** (5 - mp.prec)
        rhs_bar = len(row) * mpf(2) ** (6 - mp.prec)
        sides = tuple((k, Estimate(tilde(k), lhs_bar),
                       Estimate(pref * mp.fsum(row[i] * chis[i].sign(k) for i in range(len(row))),
                                rhs_bar))
                      for k in range(2 * s * t))
        vanishing = mp.fsum(abs(lhs.value) + abs(rhs.value) for k, lhs, rhs in sides
                            if k % s == 0 or k % t == 0)
        return DecompositionReport(s, t, tuple(nm), sides, exact(vanishing), ctx.prec)
