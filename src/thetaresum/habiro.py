"""Finite evaluations at roots of unity: q-Pochhammer, Gaussian binomials,
the Kontsevich-Zagier series, the trefoil colored Jones values, and the
nested torus-knot sums X_u^(l), together with the strange-identity checks
against theta radial limits.

At a primitive N-th root zeta every value is an element of Z[zeta], and all
arithmetic runs in the exact convolution ring Z[X]/(X^N - 1) (integer
vectors; X stands for zeta, so q^e sits at index e mod N).  Vanishing
factors like 1 - q^N are exact, and the result is rounded to a complex
number once, from one table of zeta^r per root and precision.  A generic
complex q, which `q_pochhammer` and `q_binomial` also accept, runs in
complex floats at the context precision.
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
    """Exact ring arithmetic at a RootOfUnity, complex floats at any other q."""

    def __init__(self, q):
        if isinstance(q, RootOfUnity):
            self.N = q.N
            self._powers = _root_powers(q.j, q.N, mp.prec)
        else:
            self.N = None
            self._qc = mpc(q)

    def one(self):
        return self.q_power(0)

    def zero(self):
        return mpc(0) if self.N is None else _RingScalar([0] * self.N)

    def q_power(self, e: int):
        if self.N is None:
            return self._qc ** e
        v = [0] * self.N
        v[e % self.N] = 1
        return _RingScalar(v)

    def to_complex(self, x) -> mpc:
        """Round once: sum a_r zeta^r in ascending r."""
        if self.N is None:
            return mpc(x)
        acc = mpc(0)
        for r, a in enumerate(x.v):
            if a:
                acc += a * self._powers[r]
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


def q_pochhammer(n: int, q, a_exponent: int = 1,
                 ctx: PrecisionContext = DEFAULT_CTX) -> mpc:
    """(q^{a_exponent}; q)_n = prod_{k=1}^{n} (1 - q^{a_exponent + k - 1}).

    At a RootOfUnity the product is exact and rounded once, so (q; q)_n is
    exactly 0 for n >= N; at any other q it is a complex float product.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    with ctx.working():
        ar = _Arith(q)
        acc = ar.one()
        for k in range(1, n + 1):
            acc = acc * (ar.one() - ar.q_power(a_exponent + k - 1))
        return ar.to_complex(acc)


def q_binomial(top: int, bottom: int, q, ctx: PrecisionContext = DEFAULT_CTX) -> mpc:
    """Gaussian binomial [top, bottom]_q; exact at a RootOfUnity, like `q_pochhammer`."""
    with ctx.working():
        ar = _Arith(q)
        unit = [ar.one() if k == bottom else ar.zero() for k in range(top + 1)]
        return ar.to_complex(ar.binomial_transform(unit)[top] if top >= 0 else ar.zero())


def kontsevich_zagier_eval(q: RootOfUnity, ctx: PrecisionContext = DEFAULT_CTX) -> mpc:
    """Phi(q) = sum_{n>=0} (q;q)_n; terminates at n = N - 1 at an N-th root."""
    if not isinstance(q, RootOfUnity):
        raise TypeError("the series only converges at roots of unity")
    with ctx.working():
        ar = _Arith(q)
        return ar.to_complex(ar.pochhammer_sum([ar.one()] * q.N))


def colored_jones_trefoil(N: int, ctx: PrecisionContext = DEFAULT_CTX) -> mpc:
    """J_N at q = zeta_N from the explicit sum q^{1-N} sum q^{-nN} (q^{1-N};q)_n."""
    if N < 2:
        raise ValueError("N must be >= 2")
    with ctx.working():
        ar = _Arith(RootOfUnity(1, N))
        acc = ar.zero()
        poch = ar.one()  # (q^{1-N}; q)_n
        for n in range(N):
            acc = acc + ar.q_power(-n * N) * poch
            poch = poch * (ar.one() - ar.q_power(1 - N + n))
        return ar.to_complex(ar.q_power(1 - N) * acc)


class BudgetError(ValueError):
    """Nested-sum size estimate exceeded the evaluation budget."""


def hikami_x(u: int, ell: int, q: RootOfUnity,
             ctx: PrecisionContext = DEFAULT_CTX,
             budget: int = 10_000_000) -> mpc:
    """X_u^{(l)}(q): nested sum over 0 <= k_i <= k_{i+1} + delta_{i,l}, k_u < N.

        X = sum (q)_{k_u} q^{k_1^2+...+k_{u-1}^2 + k_{l+1}+...+k_{u-1}}
              prod_i binom[k_{i+1} + delta_{i,l}, k_i]_q

    summed level by level in the exact ring: S_0 = 1,
    S_i[m] = sum_{k <= m+d} [m+d, k]_q q^{k^2 + [i>l] k} S_{i-1}[k] with
    d = [i = l], and X = sum_{m<N} (q)_m S_{u-1}[m].  The budget bounds the
    cost (u - 1) N^3 + N^2 of the levels and the sum (default: about 1 s).
    """
    if u < 1:
        raise ValueError("u must be >= 1")
    if not (0 <= ell <= u - 1):
        raise ValueError("need 0 <= l <= u-1")
    if not isinstance(q, RootOfUnity):
        raise TypeError("X_u^(l) is evaluated at roots of unity only")
    N = q.N
    cost = (u - 1) * N ** 3 + N ** 2
    if cost > budget:
        raise BudgetError(f"estimated cost (u-1)*N^3 + N^2 = {cost} exceeds budget {budget}")
    with ctx.working():
        ar = _Arith(q)
        s = [ar.one()] * (N + 1)  # S_0; the one shift d = 1 eats an entry
        for i in range(1, u):
            t = [ar.q_power(k * k + (k if i > ell else 0)) * x for k, x in enumerate(s)]
            s = ar.binomial_transform(t)[int(i == ell):]
        return ar.to_complex(ar.pochhammer_sum(s[:N]))


# ---------------------------------------------------------------------------
# Strange identities.

@dataclass(frozen=True)
class StrangeConfig:
    """A Habiro element paired with its partial theta data."""

    family: str            # "trefoil" or "hikami"
    u: int = 1
    ell: int = 0

    def theta_spec(self) -> ThetaSpec:
        """The theta data of config_hikami(u, l); the trefoil is hikami(1, 0)."""
        if self.family == "trefoil":
            return config_hikami(1, 0).theta_spec()
        if self.family != "hikami":
            raise ValueError(f"unknown strange family {self.family!r}")
        return config_hikami(self.u, self.ell).theta_spec()

    def habiro_value(self, q: RootOfUnity, ctx: PrecisionContext) -> mpc:
        if self.family == "trefoil":
            return kontsevich_zagier_eval(q, ctx)
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
                   ctx: PrecisionContext = DEFAULT_CTX, tol=None) -> StrangeReport:
    """Compare the finite Habiro evaluation at e^{2 pi i alpha} with the
    radial limit of its partial theta series at alpha."""
    alpha = as_fraction(alpha)
    with ctx.working():
        tolv = ctx.tolerance() if tol is None else mpf(tol)
        q = RootOfUnity.from_fraction(alpha)
        lhs = config.habiro_value(q, ctx)
        spec = config.theta_spec()
        rhs = theta_radial_limit(spec, alpha, ctx).value
        return StrangeReport(config.family, config.u, config.ell, alpha,
                             lhs, rhs, abs(lhs - rhs), tolv)
