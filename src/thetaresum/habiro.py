"""Finite evaluations at roots of unity: q-Pochhammer, Gaussian binomials,
the Kontsevich-Zagier series, the trefoil colored Jones values, and the
nested torus-knot sums X_u^(l), together with the strange-identity checks
against theta radial limits.

At a primitive N-th root zeta with N <= 8 all arithmetic runs in the exact
convolution ring Z[X]/(X^N - 1) (dense integer vectors; X stands for zeta, so
q^e sits at index e mod N), and vanishing factors like 1 - q^N are exact;
larger N falls back to complex floats at the context precision.  Both read
zeta^r from one table per root and precision.
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

EXACT_RING_MAX_ORDER = 8


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

    def __init__(self, v):
        self.v = tuple(v)

    def __add__(self, o):
        return _RingScalar(a + b for a, b in zip(self.v, o.v))

    def __sub__(self, o):
        return _RingScalar(a - b for a, b in zip(self.v, o.v))

    def __mul__(self, o):
        n = len(self.v)
        out = [0] * n
        for i, a in enumerate(self.v):
            if a:
                for k, b in enumerate(o.v):
                    if b:
                        out[(i + k) % n] += a * b
        return _RingScalar(out)

    def is_zero(self):
        return not any(self.v)


class _Arith:
    """Uniform exact-ring / floating arithmetic for root-of-unity evaluation."""

    def __init__(self, q, ctx: PrecisionContext):
        self.ctx = ctx
        if isinstance(q, RootOfUnity):
            self.root = q
            self.N = q.N
            self.exact = q.N <= EXACT_RING_MAX_ORDER
            self._powers = _root_powers(q.j, q.N, mp.prec)
        else:
            self.root = None
            self.exact = False
            self._qc = mpc(q)

    def one(self):
        if self.exact:
            return _RingScalar([1] + [0] * (self.N - 1))
        return mpc(1)

    def zero(self):
        if self.exact:
            return _RingScalar([0] * self.N)
        return mpc(0)

    def q_power(self, e: int):
        if self.exact:
            v = [0] * self.N
            v[e % self.N] = 1
            return _RingScalar(v)
        if self.root is not None:
            # reduce through the root order so huge exponents stay exact
            return self._powers[e % self.N]
        return self._qc ** e

    def to_complex(self, x) -> mpc:
        if not self.exact:
            return mpc(x)
        acc = mpc(0)
        for r, a in enumerate(x.v):
            if a:
                acc += a * self._powers[r]
        return acc


def q_pochhammer(n: int, q, a_exponent: int = 1,
                 ctx: PrecisionContext = DEFAULT_CTX):
    """(q^{a_exponent}; q)_n = prod_{k=1}^{n} (1 - q^{a_exponent + k - 1}).

    Returns an exact ring element for small-order roots, else a complex value.
    (q; q)_n vanishes exactly for n >= N at a primitive N-th root.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    with ctx.working():
        ar = _Arith(q, ctx)
        acc = ar.one()
        for k in range(1, n + 1):
            acc = acc * (ar.one() - ar.q_power(a_exponent + k - 1))
        return acc if ar.exact else mpc(acc)


class _QBinomial:
    """Gaussian binomials by the q-Pascal recurrence (division-free, so roots
    of unity never hit 0/0)."""

    def __init__(self, ar: _Arith):
        self.ar = ar
        self.memo = {}

    def __call__(self, top: int, bottom: int):
        if bottom < 0 or bottom > top:
            return self.ar.zero()
        if bottom == 0 or bottom == top:
            return self.ar.one()
        key = (top, bottom)
        got = self.memo.get(key)
        if got is None:
            # [top, bottom] = [top-1, bottom-1] + q^bottom [top-1, bottom]
            got = self(top - 1, bottom - 1) + self.ar.q_power(bottom) * self(top - 1, bottom)
            self.memo[key] = got
        return got


def q_binomial(top: int, bottom: int, q, ctx: PrecisionContext = DEFAULT_CTX):
    with ctx.working():
        ar = _Arith(q, ctx)
        val = _QBinomial(ar)(top, bottom)
        return val if ar.exact else mpc(val)


def kontsevich_zagier_eval(q: RootOfUnity, ctx: PrecisionContext = DEFAULT_CTX) -> mpc:
    """Phi(q) = sum_{n>=0} (q;q)_n; terminates at n = N - 1 at an N-th root."""
    if not isinstance(q, RootOfUnity):
        raise TypeError("the series only converges at roots of unity")
    with ctx.working():
        ar = _Arith(q, ctx)
        acc = ar.zero()
        term = ar.one()
        for n in range(q.N):
            acc = acc + term
            term = term * (ar.one() - ar.q_power(n + 1))  # -> (q)_{n+1}
        return ar.to_complex(acc)


def colored_jones_trefoil(N: int, ctx: PrecisionContext = DEFAULT_CTX) -> mpc:
    """J_N at q = zeta_N from the explicit sum q^{1-N} sum q^{-nN} (q^{1-N};q)_n."""
    if N < 2:
        raise ValueError("N must be >= 2")
    with ctx.working():
        q = RootOfUnity(1, N)
        ar = _Arith(q, ctx)
        acc = ar.zero()
        for n in range(N):
            term = ar.q_power(1 - N) * ar.q_power(-n * N) \
                * q_pochhammer(n, q, a_exponent=1 - N, ctx=ctx)
            acc = acc + term
        return ar.to_complex(acc)


class BudgetError(ValueError):
    """Nested-sum size estimate exceeded the evaluation budget."""


def hikami_x(u: int, ell: int, q: RootOfUnity,
             ctx: PrecisionContext = DEFAULT_CTX,
             budget: int = 5_000_000) -> mpc:
    """X_u^{(l)}(q): nested sum over 0 <= k_i <= k_{i+1} + delta_{i,l}, k_u < N.

        X = sum (q)_{k_u} q^{k_1^2+...+k_{u-1}^2 + k_{l+1}+...+k_{u-1}}
              prod_i binom[k_{i+1} + delta_{i,l}, k_i]_q
    """
    if u < 1:
        raise ValueError("u must be >= 1")
    if not (0 <= ell <= u - 1):
        raise ValueError("need 0 <= l <= u-1")
    if not isinstance(q, RootOfUnity):
        raise TypeError("X_u^(l) is evaluated at roots of unity only")
    N = q.N
    if u * N ** u > budget:
        raise BudgetError(f"estimated cost u*N^u = {u * N ** u} exceeds budget {budget}")
    with ctx.working():
        ar = _Arith(q, ctx)
        qbin = _QBinomial(ar)
        poch = [q_pochhammer(n, q, 1, ctx) for n in range(N)]

        acc = ar.zero()
        # enumerate k_u, k_{u-1}, ..., k_1; delta fires at index i = l (1-based)
        def rec(i: int, upper: int, kvec):
            nonlocal acc
            for k in range(upper + 1):
                kv = kvec + (k,)
                if i == 1:
                    acc = acc + _term(kv)
                else:
                    rec(i - 1, k + (1 if (i - 1) == ell else 0), kv)

        def _term(kv):
            # kv holds (k_u, k_{u-1}, ..., k_1)
            ks = kv[::-1]  # (k_1, ..., k_u)
            expo = sum(ks[i] * ks[i] for i in range(u - 1)) \
                + sum(ks[i] for i in range(ell, u - 1))
            term = poch[ks[u - 1]] * ar.q_power(expo)
            for i in range(u - 1):
                term = term * qbin(ks[i + 1] + (1 if (i + 1) == ell else 0), ks[i])
            return term

        if u == 1:
            for k in range(N):
                acc = acc + poch[k]
        else:
            rec(u, N - 1, ())
        return ar.to_complex(acc)


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
