"""Partial theta series: upper half-plane sums, radial limits, Eichler integrals.

theta^{(nu)}_{a,b,f}(x) = sum_{n>=0} n^nu f(n) e^{2 pi i x (n^2-a)/b},  Im x > 0.

Radial limits at nonzero rationals alpha are computed from the twisted
coefficient function h(n) = f(n) e^{2 pi i alpha (n^2-a)/b} (periodic, mean
zero) through its L-values at s = 0 and s = -1.  The independent oracle, a
Richardson extrapolation along x = alpha + i eps, lives with the tests.
The Eichler integrals sum the same table term by term in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf, mpc, workprec

from .exact import l_value
from .periodic import (ChiParams, ConfigError, PeriodicFunction, PeriodicTable,
                       TildeFunction, _divisors, chi_function)
from .precision import (DEFAULT_CTX, GUARD_BITS, MINUS_HALF, MINUS_THREE_HALVES, Estimate,
                        PrecisionContext, as_fraction, frac_to_mp)


class DomainError(ValueError):
    """Evaluation requested outside the region where the sum converges."""


class NoRadialLimitError(ValueError):
    """The twisted coefficient function has nonzero mean; no finite limit."""


@dataclass(frozen=True)
class ThetaSpec:
    """Parameters (a, b, nu, f) of a partial theta series."""

    a: int
    b: int
    nu: int
    f: object  # PeriodicFunction or TildeFunction

    def __post_init__(self):
        if self.a < 0:
            raise ConfigError("a must be >= 0")
        if self.b <= 0:
            raise ConfigError("b must be > 0")
        if self.nu not in (0, 1):
            raise ConfigError("nu must be 0 or 1")
        if not isinstance(self.f, (PeriodicFunction, TildeFunction)):
            raise ConfigError("f must be a periodic function or a tilde transform")


def _gauss_tail(nu: int, lam, n0: int):
    """Bound on sum_{n > n0} n^nu e^{-lam n^2} by comparison integrals."""
    if lam <= 0:
        raise DomainError("decay rate must be positive")
    e0 = mp.exp(-lam * (n0 + 1) ** 2)
    if nu == 0:
        # e^{-lam(n0+1)^2} + int_{n0+1}^inf e^{-lam x^2} dx
        return e0 + mp.sqrt(mp.pi / lam) / 2 * mp.erfc(mp.sqrt(lam) * (n0 + 1))
    # nu = 1: int_{n0}^inf x e^{-lam x^2} dx + endpoint term
    return (n0 + 1) * e0 + mp.exp(-lam * n0 ** 2) / (2 * lam)


def _gauss_cutoff(bound, target, cap: int):
    """The cut (N, bound(N), bound(N) > target) for resum.ell_sum, N the least in
    [1, cap] with bound(N) <= target, else cap; bound is nonincreasing (a
    _gauss_tail multiple): doubling, then bisection."""
    lo, hi = 0, 1
    while (b := bound(hi)) > target and hi < cap:
        lo, hi = hi, min(2 * hi, cap)
    while b <= target and hi - lo > 1:  # bound(lo) > target, or lo = 0
        mid = (lo + hi) // 2
        if (bm := bound(mid)) > target:
            lo = mid
        else:
            hi, b = mid, bm
    return hi, b, b > target


def theta_upper_half(spec: ThetaSpec, x, ctx: PrecisionContext = DEFAULT_CTX) -> Estimate:
    """Truncated theta sum with a Gaussian tail bound; requires Im x > 0.

    f(0) = 0, so resum.ell_sum takes n = 1..N, N from _gauss_cutoff at
    2^-(prec + GUARD_BITS)."""
    from . import resum  # resum imports this module
    with ctx.working():
        x = mpc(x)
        if x.imag <= 0:
            raise DomainError(f"Im x must be positive, got {x}")
        lam = 2 * mp.pi * x.imag / spec.b
        h = spec.f.table()
        scale = h.max_abs() * mp.exp(2 * mp.pi * x.imag * spec.a / spec.b)
        cut = _gauss_cutoff(lambda n: scale * _gauss_tail(spec.nu, lam, n),
                            mpf(2) ** (-ctx.prec - GUARD_BITS), ctx.ell_cap)

        def term(n):
            with workprec(mp.prec + 2 * n.bit_length()):  # x (n^2 - a) exactly
                return (n ** spec.nu) * mp.exp(2j * mp.pi * (x * (n * n - spec.a)) / spec.b)

        return resum.ell_sum(h, cut, term, []).rounded(ctx.prec)


# ---------------------------------------------------------------------------
# Twisted coefficient tables and radial limits.

def _phase_exponent(alpha: Fraction, n: int, a: int, b: int) -> Fraction:
    """Exact exponent of e^{pi i *}: 2 alpha (n^2 - a)/b reduced mod 2."""
    return (2 * alpha * (n * n - a) / b) % 2


def _twist_period(period: int, alpha: Fraction, b: int) -> int:
    """Minimal common period of a period-``period`` f and the quadratic twist
    e^{2pi i alpha n^2/b}.

    The least multiple Q of period dividing the safe period lcm(period,
    den(alpha) b) (which qualifies) for which the phase difference 2 alpha
    (2nQ + Q^2)/b is an even integer for all n; it is linear in n, so n = 0
    and n = 1 suffice.
    """
    for Q in _divisors(math.lcm(period, alpha.denominator * b)):
        if Q % period == 0 and all((2 * alpha * (2 * n * Q + Q * Q) / b) % 2 == 0
                                   for n in (0, 1)):
            return Q


def twisted_table(f, alpha: Fraction, a: int, b: int) -> PeriodicTable:
    """h(0), ..., h(P-1) for h(n) = f(n) e^{2 pi i alpha (n^2-a)/b}, P = _twist_period,
    with f read from f.table()."""
    ft = f.table()
    return PeriodicTable(v * mp.expjpi(frac_to_mp(_phase_exponent(alpha, n, a, b)))
                         if (v := ft(n)) else mpc(0)
                         for n in range(_twist_period(len(ft), alpha, b)))


def _require_mean_zero(h: PeriodicTable, prec: int) -> None:
    """Raise unless h has mean zero: else theta^{(0)} ~ mean sqrt(b/(8w)) at alpha + iw."""
    mean = mp.fsum(h) / len(h)
    if abs(mean) > mpf(2) ** (-prec // 2) * max(h.max_abs(), mpf(1)):
        raise NoRadialLimitError(
            f"twisted coefficients have mean {mean}; radial limit undefined")


def theta_radial_limit(spec: ThetaSpec, alpha, ctx: PrecisionContext = DEFAULT_CTX) -> Estimate:
    """Radial limit of the theta series at a nonzero rational alpha.

    nu = 1:  L(-1, h) = -(P/2) sum_{m=1}^{P} h(m) B_2(m/P)
    nu = 0:  h(0) + L(0, h),  L(0, h) = -sum_{m=1}^{P} h(m) B_1(m/P)

    both by exact.l_value, with B_1(1) = +1/2 at the endpoint m = P
    (validated against zeta(0) and the alternating series, and against the
    extrapolation oracle).  h is even, so L(0, h) = -h(0)/2.  The mean of h
    over a period must vanish or no finite limit exists.
    """
    alpha = as_fraction(alpha)
    if alpha == 0:
        raise DomainError("alpha must be nonzero")
    with ctx.working(40):
        h = twisted_table(spec.f, alpha, spec.a, spec.b)
        _require_mean_zero(h, ctx.prec)
        val = l_value(h, 1) if spec.nu == 1 else h[0] + l_value(h, 0)
        err = (len(h) ** 2) * h.max_abs() * mpf(2) ** (-ctx.prec - 20)
        return Estimate(val, err)


# ---------------------------------------------------------------------------
# Theta on vertical lines, with Poisson summation near the real axis.

class VerticalTheta:
    """Evaluator of theta^{(0)}_{0,B,f}(alpha + i w) for fixed f, B, alpha.

    Not used by the library: the tests integrate it as an oracle, and the
    benchmark's tracer names VerticalTheta.value.

    Direct Gaussian summation for w large; Poisson-transformed series for w
    small, where the direct sum would need ~1/sqrt(w) terms.  Relies on f
    even with f(0) = 0, so the one-sided sum is half the two-sided one, and
    on the twisted table having mean zero, so H(0) = 0 and the Poisson sum
    starts at j = 1.
    """

    def __init__(self, f, B: int, alpha=Fraction(0)):
        self.f = f
        self.B = B
        self.alpha = as_fraction(alpha)
        self._tables = {}

    def _build(self):
        key = mp.prec
        if key not in self._tables:
            h = twisted_table(self.f, self.alpha, 0, self.B)
            self._tables[key] = (len(h), h, h.max_abs(), {})
        return self._tables[key]

    def _dft(self, j: int):
        P, h, _, cache = self._build()
        if j not in cache:
            acc = mpc(0)
            for r in range(P):
                if h[r]:
                    acc += h[r] * mp.expjpi(frac_to_mp(Fraction(2 * j * r, P) % 2))
            cache[j] = acc
        return cache[j]

    def value(self, w) -> mpc:
        """theta^{(0)} at x = alpha + i w, w > 0."""
        w = mpf(w)
        if w <= 0:
            raise DomainError("w must be positive")
        P, h, hmax, _ = self._build()
        lam = 2 * mp.pi * w / self.B
        target = mpf(2) ** (-mp.prec - 4)
        if hmax == 0:
            return mpc(0)
        cap = (mp.prec + 4) * P  # both decay rates exceed pi/P, so N^2 < cap
        if lam * P >= mp.pi:
            # direct sum
            N = _gauss_cutoff(lambda n: hmax * _gauss_tail(0, lam, n), target, cap)[0]
            return sum((h(n) * mp.exp(-lam * n * n) for n in range(1, N + 1) if h(n)), mpc(0))
        # Poisson regime: theta = F/2 with
        # F = (1/P) sqrt(pi/lam) sum_{j != 0} H(j) e^{-pi^2 j^2/(lam P^2)};
        # H(0) = 0, whose roundoff would grow like w^{-1/2}; |H(j)| <= P hmax
        pref = mp.sqrt(mp.pi / lam) / P
        mu = mp.pi ** 2 / (lam * P * P)
        J = _gauss_cutoff(lambda j: pref * P * hmax * _gauss_tail(0, mu, j), target, cap)[0]
        return pref * sum((self._dft(j) * mp.exp(-mu * j * j) for j in range(1, J + 1)), mpc(0))


# ---------------------------------------------------------------------------
# Non-holomorphic Eichler integral and the period function.

def _chi_spec0(s: int, t: int, nm: tuple) -> ThetaSpec:
    return ThetaSpec(a=0, b=4 * s * t, nu=0, f=chi_function(ChiParams(s, t, *nm)))


def eichler_integral(s: int, t: int, nm: tuple, z, lower,
                     ctx: PrecisionContext = DEFAULT_CTX) -> Estimate:
    """sqrt(st i/(8 pi^2)) int theta^{(0)}_{0,4st,chi}(tau) (tau - z)^{-3/2} dtau.

    The path is the vertical ray up from conj(z) (lower = "conj", Im z < 0)
    or from a rational alpha (the period-function variant, Im z <= 0).  On
    it theta(x + iw) = sum_n h(n) e^{-lambda_n w}, lambda_n = 2 pi n^2/B,
    h(n) = chi(n) e^{2 pi i x n^2/B}, and tau - z = i(w + c), Re c >= 0, so
    the prefactor becomes sqrt(st/(8 pi^2)) and the n-terms are

        J(lambda; w0, c) = int_{w0}^inf e^{-lambda w} (w + c)^{-3/2} dw
                         = e^{lambda c} lambda^{1/2} Gamma(-1/2, lambda u)
                         = -e^{-lambda w0} u^{-1/2} K^{(-1/2)}_0(-lambda u),

    u = w0 + c, K = resum.laplace_kernel (t = lambda(w + c) runs in Re t > 0).
    |J| <= (w0 + Re c)^{-3/2} e^{-lambda w0}/lambda.  Three closed forms:

    - z = alpha (within 2^-prec max(1, |alpha|)), or |c| <= w0 = c_1/((prec
      + 40) ln 2), c_j = pi B j^2/(2 P^2), P the period of h.  Below w0,
      Poisson summation with H(0) = P mean(h) = 0 gives |theta| <= hmax
      sqrt(B/(2w)) sum_{j>=1} e^{-c_j/w}, and |w + c| >= w: at most hmax
      sqrt(B/2) q/(c_1 (1 - q)), q = e^{-c_1/w0}.  Above w0, h(n) J(lambda_n;
      w0, c) for n <= N, N the least whose tail (below) is at most
      2^-prec/pref (_gauss_cutoff).
    - Other z, c = i(z - alpha): J(lambda_n; 0, c) falls like n^{-2};
      resum.vertical_sum sums a head and Watson moments.
    - "conj", z = x - iy: chi(n) e^{2 pi i x n^2/B} J(lambda_n; y, y), n <= N.

    Past N the first and last sum to at most hmax (w0 + Re c)^{-3/2}
    lambda_{N+1}^{-1} sum_{n>N} e^{-lambda_1 w0 n^2}.  The error adds the
    tail and Poisson bounds, the head and Hurwitz roundoff (ell_sum) and
    |value| 2^-prec.
    """
    from . import resum  # resum imports this module
    spec = _chi_spec0(s, t, nm)
    B = spec.b
    with ctx.working(20):
        z = mpc(z)
        pref = mp.sqrt(mpf(s * t) / 8) / mp.pi
        lam1 = 2 * mp.pi / B
        target = mpf(2) ** (-ctx.prec) / pref
        x, poisson = mpf(0), mpf(0)
        if isinstance(lower, str):
            if lower != "conj":
                raise ConfigError("lower must be 'conj', 0, or a rational")
            if z.imag >= 0:
                raise DomainError("the conj-based integral needs Im z < 0")
            x, w0 = z.real, -z.imag
            c = w0
            table = twisted_table(spec.f, Fraction(0), 0, B)
        else:
            alpha = as_fraction(lower)
            if z.imag > 0:
                raise DomainError("a rational base point needs Im z <= 0")
            alpha_mp = frac_to_mp(alpha)
            c = 1j * (z - alpha_mp)
            if abs(c) <= mpf(2) ** (-ctx.prec) * max(1, abs(alpha_mp)):
                c = mpf(0)
            table = twisted_table(spec.f, alpha, 0, B)
            c1 = mp.pi * B / (2 * len(table) ** 2)
            w0 = c1 / ((ctx.prec + 40) * mp.ln2)
            if abs(c) > w0:
                w0 = mpf(0)
            else:
                _require_mean_zero(table, ctx.prec)
                q = mp.exp(-c1 / w0)
                poisson = mp.sqrt(mpf(B) / 2) * q / (c1 * (1 - q))    # times hmax
        hmax = table.max_abs()
        if w0:
            # terms falling like e^{-lambda_n w0}: all of them up to N
            root = (w0 + c) ** MINUS_HALF

            def term(n):
                lam = lam1 * n * n
                v = -mp.exp(-lam * w0) * root * resum.laplace_kernel(
                    -lam * (w0 + c), 0, MINUS_HALF)
                if not x:
                    return v
                with workprec(mp.prec + 2 * n.bit_length()):  # x n^2 exactly
                    phase = mp.expjpi(2 * x * n * n / B)
                return phase * v

            scale = hmax * (w0 + mp.re(c)) ** MINUS_THREE_HALVES / lam1
            cut = _gauss_cutoff(lambda n: scale / (n + 1) ** 2 * _gauss_tail(0, lam1 * w0, n),
                                target, ctx.ell_cap)
            est = resum.ell_sum(table, cut, term, []) + Estimate(mpf(0), hmax * poisson)
        else:
            # terms falling like n^{-2}: a head and Watson moments
            est = resum.vertical_sum(table, lam1, c, target, ctx.ell_cap)
        return (est * pref).rounded(ctx.prec)
