"""Finite evaluations at roots of unity: q-Pochhammer, Gaussian binomials and
the nested torus-knot sums X_u^(l), with the Kontsevich-Zagier series as
X_1^(0), together with the strange-identity checks against theta radial
limits.

At a primitive N-th root zeta every value is an element of Z[zeta], and all
arithmetic runs in the exact convolution ring Z[X]/(X^N - 1) (integer
vectors; X stands for zeta, so q^e sits at index e mod N).  Vanishing
factors like 1 - q^N are exact, and the result is rounded to a complex
number once, from one table of zeta^r per root and precision.  Every
function here takes q as a RootOfUnity and raises TypeError for any other q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from mpmath import mp, mpf, mpc, workprec

from .config import config_hikami
from .precision import DEFAULT_CTX, PrecisionContext, as_fraction, frac_to_mp
from .qseries import ThetaSpec, theta_radial_limit


@dataclass(frozen=True)
class RootOfUnity:
    """zeta = e^{2 pi i j / N} with j/N reduced; always a primitive N-th root."""

    j: int
    N: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("order must be positive")
        if math.gcd(self.j % self.N if self.N > 1 else 1, self.N) != 1:
            raise ValueError(f"exponent {self.j} not coprime to order {self.N}")

    @classmethod
    def from_fraction(cls, alpha) -> "RootOfUnity":
        alpha = as_fraction(alpha)
        return cls(alpha.numerator % alpha.denominator if alpha.denominator > 1 else 0,
                   alpha.denominator)

    def zeta(self) -> mpc:
        return _root_powers(self.j, self.N, mp.prec)[1 % self.N]


@lru_cache(maxsize=256)
def _root_powers(j: int, N: int, prec: int) -> tuple:
    """zeta^r = e^{2 pi i r j/N} for r = 0, ..., N-1, at ``prec`` bits."""
    with workprec(prec):
        return tuple(mp.expjpi(frac_to_mp(Fraction(2 * r * j, N) % 2)) for r in range(N))


class _RingScalar:
    """Element of Z[X]/(X^N - 1); X represents the chosen primitive root."""

    __slots__ = ("v",)

    def __init__(self, v: list):
        self.v = v

    def __add__(self, o):
        return _RingScalar([a + b for a, b in zip(self.v, o.v)])

    def __sub__(self, o):
        return _RingScalar([a - b for a, b in zip(self.v, o.v)])

    def __mul__(self, o):
        # one rotated copy of the denser factor per nonzero term of the
        # sparser one, so a monomial or 1 - q^k times anything costs O(N)
        a, b = self.v, o.v
        if a.count(0) < b.count(0):
            a, b = b, a
        n = len(a)
        out = None
        for i, c in [(i, c) for i, c in enumerate(a) if c]:
            rot = b[n - i:] + b[:n - i]  # rot[(k + i) % n] = b[k]
            if c != 1:
                rot = [c * y for y in rot]
            out = rot if out is None else [x + y for x, y in zip(out, rot)]
        return _RingScalar(out if out is not None else [0] * n)


class _Arith:
    """Exact arithmetic in Z[X]/(X^N - 1) at a RootOfUnity."""

    def __init__(self, q):
        if not isinstance(q, RootOfUnity):
            raise TypeError(f"q must be a RootOfUnity, got {q!r}")
        self.q, self.N = q, q.N

    def one(self):
        return self.q_power(0)

    def zero(self):
        return _RingScalar([0] * self.N)

    def q_power(self, e: int):
        v = [0] * self.N
        v[e % self.N] = 1
        return _RingScalar(v)

    def to_complex(self, x) -> mpc:
        """Round once: sum a_r zeta^r in ascending r, at the current precision."""
        powers = _root_powers(self.q.j, self.N, mp.prec)
        acc = mpc(0)
        for r, a in enumerate(x.v):
            if a:
                acc += a * powers[r]
        return acc

    def binomial_transform(self, t: list) -> list:
        """[sum_k [n, k]_q t[k] for n < len(t)], by q-Pascal on the sequence:
        sum_k [n, k] t[k] = sum_k [n-1, k] (t[k+1] + q^k t[k]).  Division-free,
        so roots of unity never hit 0/0."""
        out = []
        while t:
            out.append(t[0])
            t = [t[k + 1] + self.q_power(k) * t[k] for k in range(len(t) - 1)]
        return out

    def pochhammer_sum(self, s: list):
        """sum_{m < len(s)} (q)_m s[m] = s[0] + (1-q)(s[1] + (1-q^2)(...))."""
        acc = s[-1]
        for m in range(len(s) - 1, 0, -1):
            acc = s[m - 1] + (self.one() - self.q_power(m)) * acc
        return acc


def q_pochhammer(n: int, q: RootOfUnity, ctx: PrecisionContext = DEFAULT_CTX) -> mpc:
    """(q; q)_n = prod_{k=1}^{n} (1 - q^k), exact and rounded once, so it is
    exactly 0 for n >= N."""
    if n < 0:
        raise ValueError("n must be >= 0")
    with ctx.working():
        ar = _Arith(q)
        return ar.to_complex(ar.pochhammer_sum([ar.zero()] * n + [ar.one()]))


def q_binomial(top: int, bottom: int, q: RootOfUnity, ctx: PrecisionContext = DEFAULT_CTX) -> mpc:
    """Gaussian binomial [top, bottom]_q, exact and rounded once."""
    with ctx.working():
        ar = _Arith(q)
        unit = [ar.one() if k == bottom else ar.zero() for k in range(top + 1)]
        return ar.to_complex(ar.binomial_transform(unit)[top] if top >= 0 else ar.zero())


def kontsevich_zagier_eval(q: RootOfUnity, ctx: PrecisionContext = DEFAULT_CTX) -> mpc:
    """Phi(q) = sum_{n>=0} (q;q)_n, which terminates at n = N - 1; it is X_1^(0)."""
    return hikami_x(1, 0, q, ctx)


class BudgetError(ValueError):
    """Nested-sum size estimate exceeded the evaluation budget."""


# bound on hikami_x's cost estimate (u - 1) N^3 + N^2: about 1 s
HIKAMI_BUDGET = 10_000_000


def hikami_x(u: int, ell: int, q: RootOfUnity,
             ctx: PrecisionContext = DEFAULT_CTX) -> mpc:
    """X_u^{(l)}(q): nested sum over 0 <= k_i <= k_{i+1} + delta_{i,l}, k_u < N.

        X = sum (q)_{k_u} q^{k_1^2+...+k_{u-1}^2 + k_{l+1}+...+k_{u-1}}
              prod_i binom[k_{i+1} + delta_{i,l}, k_i]_q

    summed level by level in the exact ring: S_0 = 1,
    S_i[m] = sum_{k <= m+d} [m+d, k]_q q^{k^2 + [i>l] k} S_{i-1}[k] with
    d = [i = l], and X = sum_{m<N} (q)_m S_{u-1}[m].  HIKAMI_BUDGET bounds
    the cost (u - 1) N^3 + N^2 of the levels and the sum.
    """
    if u < 1 or not 0 <= ell <= u - 1:
        raise ValueError("need u >= 1 and 0 <= l <= u-1")
    ar = _Arith(q)
    N = q.N
    cost = (u - 1) * N ** 3 + N ** 2
    if cost > HIKAMI_BUDGET:
        raise BudgetError(f"estimated cost (u-1)*N^3 + N^2 = {cost} exceeds budget {HIKAMI_BUDGET}")
    with ctx.working():
        s = [ar.one()] * (N + 1)  # S_0; the one shift d = 1 eats an entry
        for i in range(1, u):
            t = [ar.q_power(k * k + (k if i > ell else 0)) * x for k, x in enumerate(s)]
            s = ar.binomial_transform(t)[int(i == ell):]
        return ar.to_complex(ar.pochhammer_sum(s[:N]))


# ---------------------------------------------------------------------------
# Strange identities.

@dataclass(frozen=True)
class StrangeConfig:
    """The Habiro element X_u^(l) paired with the theta data of
    config_hikami(u, l).  The family is a label: the trefoil, whose element
    is the Kontsevich-Zagier series, is X_1^(0)."""

    family: str            # "trefoil" or "hikami"
    u: int = 1
    ell: int = 0

    def __post_init__(self):
        if self.family != "hikami" and (self.family, self.u, self.ell) != ("trefoil", 1, 0):
            raise ValueError(f"unknown strange family in {self!r}")

    def theta_spec(self) -> ThetaSpec:
        return config_hikami(self.u, self.ell).theta_spec()

    def habiro_value(self, q: RootOfUnity, ctx: PrecisionContext) -> mpc:
        return hikami_x(self.u, self.ell, q, ctx)


@dataclass(frozen=True)
class StrangeReport:
    family: str
    u: int
    ell: int
    alpha: Fraction
    habiro_side: mpc
    theta_side: mpc
    residual: mpf
    tolerance: mpf

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


def verify_strange(config: StrangeConfig, alpha,
                   ctx: PrecisionContext = DEFAULT_CTX) -> StrangeReport:
    """Compare the finite Habiro evaluation at e^{2 pi i alpha} with the
    radial limit of its partial theta series at alpha, to ctx.tolerance()."""
    alpha = as_fraction(alpha)
    with ctx.working():
        lhs = config.habiro_value(RootOfUnity.from_fraction(alpha), ctx)
        rhs = theta_radial_limit(config.theta_spec(), alpha, ctx).value
        return StrangeReport(config.family, config.u, config.ell, alpha,
                             lhs, rhs, abs(lhs - rhs), ctx.tolerance())
