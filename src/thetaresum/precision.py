"""Working-precision context and error-carrying numeric results.

Every numeric operation in this package takes a PrecisionContext and returns
values together with an error estimate (truncation bounds plus a roundoff
allowance).  All internal arithmetic uses mpmath at ``prec + guard`` bits so
results rounded back to ``prec`` bits are dominated by the reported
truncation error, never by accumulated roundoff.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field
from fractions import Fraction

from mpmath import mpf, mpc, workprec

DEFAULT_PREC_ENV = "THETARESUM_PREC"

# extra bits carried by every operation on top of ctx.prec
GUARD_BITS = 20

# Constants that are exact in binary, parsed once for the hot loops.  Being
# exact at every precision, they give the same bits as parsing in place.
HALF = mpf("0.5")
MINUS_HALF = mpf("-0.5")
THREE_HALVES = mpf("1.5")
MINUS_THREE_HALVES = mpf("-1.5")
FIVE_HALVES = mpf("2.5")
MINUS_FIVE_HALVES = mpf("-2.5")
SEVEN_QUARTERS = mpf("1.75")


def default_prec() -> int:
    """Default precision in bits; overridable via the environment."""
    raw = os.environ.get(DEFAULT_PREC_ENV)
    if raw is None:
        return 128
    if not raw.strip().isdigit() or int(raw) < 24:
        raise ValueError(f"{DEFAULT_PREC_ENV} must be a whole number of bits >= 24, got {raw!r}")
    return int(raw)


@dataclass(frozen=True)
class PrecisionContext:
    """Numeric policy: working precision, target tolerance and budgets.

    prec          working precision in bits
    tol           target absolute tolerance for truncated sums/integrals
    ell_cap       cap on the head of every truncated l- or n-sum (ell_sum)
    """

    prec: int = field(default_factory=default_prec)
    tol: float = 1e-8
    ell_cap: int = 200_000

    def __post_init__(self):
        if self.prec < 24:
            raise ValueError("prec must be at least 24 bits")
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be finite and positive, got {self.tol}")
        if self.ell_cap < 16:
            raise ValueError("ell_cap too small to be useful")

    def working(self, extra: int = 0):
        """mpmath context manager at prec + guard (+ extra) bits."""
        return workprec(self.prec + GUARD_BITS + extra)

    def tolerance(self) -> mpf:
        with workprec(self.prec + GUARD_BITS):
            return mpf(self.tol)


try:
    DEFAULT_CTX = PrecisionContext()
except ValueError as exc:  # a bad THETARESUM_PREC: library defaults warn and use 128 bits
    warnings.warn(f"{exc}; the library defaults use 128 bits", stacklevel=2)
    DEFAULT_CTX = PrecisionContext(prec=128)


@dataclass(frozen=True)
class Estimate:
    """A numeric value with an absolute error estimate.

    budget_exhausted is set when a truncated sum stopped at ctx.ell_cap
    before its bound met the target; the value is then a partial answer.
    Arithmetic carries both, at the current mpmath precision: a sum of
    estimates adds their errors and ORs their flags, a product with a
    number c scales the error by |c|, and adding an exact number shifts the
    value alone (a difference is a + b * -1).
    """

    value: mpc
    error: mpf
    budget_exhausted: bool = False

    def __add__(self, other):
        if isinstance(other, Estimate):
            return Estimate(self.value + other.value, self.error + other.error,
                            self.budget_exhausted or other.budget_exhausted)
        return Estimate(self.value + other, self.error, self.budget_exhausted)

    def __mul__(self, c):
        return Estimate(self.value * c, self.error * abs(c), self.budget_exhausted)

    def rounded(self, prec: int):
        """The same estimate with |value| 2^-prec of roundoff added to its error."""
        return Estimate(self.value, self.error + abs(self.value) * mpf(2) ** (-prec),
                        self.budget_exhausted)


def as_fraction(x) -> Fraction:
    """Coerce ints, Fractions and exact decimal strings like '-1/2'."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def frac_to_mp(x: Fraction) -> mpf:
    return mpf(x.numerator) / x.denominator


def to_mpf(x) -> mpf:
    """An exact Fraction, or any real number, as an mpf at the current precision."""
    return frac_to_mp(x) if isinstance(x, Fraction) else mpf(x)


def exact(x) -> Estimate:
    """An exact number (a Fraction, or an mpf known to be exact) with a zero
    bar.  A Fraction is rounded at the current precision; callers that
    compare it at ctx.prec hold GUARD_BITS more (ctx.working())."""
    return Estimate(to_mpf(x), mpf(0))
