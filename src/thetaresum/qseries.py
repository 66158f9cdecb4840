"""Partial theta series: upper half-plane sums, radial limits, Eichler integrals.

theta^{(nu)}_{a,b,f}(x) = sum_{n>=0} n^nu f(n) e^{2 pi i x (n^2-a)/b},  Im x > 0.

Radial limits at nonzero rationals alpha are computed from the twisted
coefficient function h(n) = f(n) e^{2 pi i alpha (n^2-a)/b} (periodic, even,
mean zero) through its L-values at s = 0 and s = -1.  Its phase takes few
values over a period (at most N at alpha = j/N), so h is read by phase
class (_PhaseClasses): one walk over the support r <= P/2 of f, one
e^{pi i e} per distinct exponent e, real Bernoulli sums within a class.
The independent oracles, a Richardson extrapolation along x = alpha + i eps
and the L-value of the whole table built entry by entry, live with the
tests.  The Eichler integrals sum the same table term by term in closed
form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf, mpc, workprec

from .exact import bernoulli_term
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
    den = alpha.denominator * b
    return Fraction(2 * alpha.numerator * (n * n - a) % (2 * den), den)


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


class _PhaseClasses:
    """The twisted table h(n) = f(n) e^{pi i e_n}, e_n = _phase_exponent(alpha,
    n, a, b), of period P = _twist_period, read by phase class.

    h is even: f is, and P is a period of the twist, so e_{P-r} = e_{-r} =
    e_r.  One walk over the support 0 <= r <= P/2 of f therefore holds the
    table.  It groups the residues by their exact exponent e (classes[e] =
    [(r, f(r)), ...]) and takes one e^{pi i e} per class (phase[e]): at alpha
    = j/N at most N, where the table has up to P/2 nonzero entries.
    |h| = |f|, so hmax = max |f|.
    """

    def __init__(self, f, alpha: Fraction, a: int, b: int):
        ft = f.table()
        self.P = _twist_period(len(ft), alpha, b)
        self.classes = {}
        for r in range(self.P // 2 + 1):
            if v := ft(r):
                self.classes.setdefault(_phase_exponent(alpha, r, a, b), []).append((r, v))
        self.phase = {e: mp.expjpi(frac_to_mp(e)) for e in self.classes}
        self.hmax = max((abs(v) for members in self.classes.values() for _, v in members),
                        default=mpf(0))

    def class_sum(self, term):
        """sum_e e^{pi i e} sum_{r in e} term(f(r), r) over the support r <=
        P/2: the class sums are real, and each class takes one complex
        product."""
        return mp.fsum(self.phase[e] * mp.fsum(term(v, r) for r, v in members)
                       for e, members in self.classes.items())

    def require_mean_zero(self, prec: int) -> None:
        """Raise unless h has mean zero: else theta^{(0)} ~ mean sqrt(b/(8w)) at
        alpha + iw.  Over a period r and P - r both count, r = 0 and P/2 once."""
        mean = self.class_sum(lambda v, r: v if 2 * r % self.P == 0 else 2 * v) / self.P
        if abs(mean) > mpf(2) ** (-prec // 2) * max(self.hmax, mpf(1)):
            raise NoRadialLimitError(
                f"twisted coefficients have mean {mean}; radial limit undefined")

    def table(self) -> PeriodicTable:
        h = [mpc(0)] * self.P
        for e, members in self.classes.items():
            for r, v in members:
                h[r] = h[-r] = v * self.phase[e]  # h[-r] is h(P - r)
        return PeriodicTable(h)


def twisted_table(f, alpha: Fraction, a: int, b: int) -> PeriodicTable:
    """h(0), ..., h(P-1) for h(n) = f(n) e^{2 pi i alpha (n^2-a)/b}, P = _twist_period,
    with f read from f.table() (even): one e^{pi i e} per phase class
    (_PhaseClasses), the same bits as an e^{pi i e_n} per entry."""
    return _PhaseClasses(f, alpha, a, b).table()


def theta_radial_limit(spec: ThetaSpec, alpha, ctx: PrecisionContext = DEFAULT_CTX) -> Estimate:
    """Radial limit of the theta series at a nonzero rational alpha.

    nu = 1:  L(-1, h) = -(P/2) sum_{m=1}^{P} h(m) B_2(m/P)
    nu = 0:  h(0) + L(0, h),  L(0, h) = -sum_{m=1}^{P} h(m) B_1(m/P)

    for the twisted table h (validated against zeta(0) and the alternating
    series, and against the extrapolation oracle), with B_1(1) = +1/2 at the
    endpoint m = P.  h is even, so sum_m h(m) B_1(m/P) = h(0)/2 and the nu = 0
    limit is h(0)/2, that same sum.  Both sums are read by phase class
    (_PhaseClasses.class_sum) with exact.bernoulli_term's pairing of m with
    P - m:

        L(-1, h) = -(P/2) sum_e e^{pi i e} sum_{r in e} w_r f(r) B_2(r/P).

    The mean of h over a period must vanish or no finite limit exists.

    The error bar P^2 hmax 2^(-prec-20), hmax = max |f|, covers the
    rounding.  At wp = prec + 40 bits and u = 2^-wp, each f(r) (a rounded
    table entry), each B_k(x_r), each product and each class sum is off by
    a few u relative, the phases and their complex products by a few u; the
    terms are at most hmax sum_r w_r |B_2(r/P)| <= P hmax/6 in all (sum_r
    w_r = P, |B_2| <= 1/6), times P/2.  So the rounding is at most about
    10 u P^2 hmax/12 < P^2 hmax 2^(-prec-40), a 2^-20 share of the bar.
    """
    alpha = as_fraction(alpha)
    if alpha == 0:
        raise DomainError("alpha must be nonzero")
    with ctx.working(40):
        h = _PhaseClasses(spec.f, alpha, spec.a, spec.b)
        h.require_mean_zero(ctx.prec)
        # sum_m h(m) B_{nu+1}(m/P): h(0)/2 for nu = 0, L(-1, h) after -P/2
        val = h.class_sum(lambda v, r: bernoulli_term(v, spec.nu + 1, r, h.P))
        if spec.nu == 1:
            val *= -Fraction(h.P, 2)
        return Estimate(val, h.P ** 2 * h.hmax * mpf(2) ** (-ctx.prec - 20))


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

# The guard g of eichler_integral's head precision (at least 3, see its
# docstring) and the floor of that precision.  Timed on the 256-bit chi(2,3)
# heads (pure-Python mpmath 1.3.0, 2-vCPU VM): each guard bit costs about
# 0.2% (g = 0 to 32: 69 to 74 ms at alpha = 1/2), and floors of 16 to 96
# bits time within 10% of each other.
EICHLER_HEAD_GUARD = 8
EICHLER_HEAD_FLOOR = 64

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
    tail and Poisson bounds, the head and moment roundoff (ell_sum) and
    |value| 2^-prec.

    The n-terms of the first and last fall like e^{-lambda_n w0}, and each
    runs at the bits its size needs.  With wp the working precision, n1
    the least n with h(n) != 0 and g = EICHLER_HEAD_GUARD, term n runs at

        p_n = wp + ceil(log2 N) + g - floor((lambda_n - lambda_{n1}) w0 log2 e)

    bits, and never below EICHLER_HEAD_FLOOR (its e^{-lambda_n w0} at
    log2(lambda_N w0) more, so the exponent's roundoff stays under 2^-p_n).
    For lambda >= lambda' and w >= w0, e^{-lambda w} = e^{-(lambda -
    lambda')w} e^{-lambda' w} <= e^{-(lambda - lambda') w0} e^{-lambda' w},
    so J(lambda; w0, c) <= e^{-(lambda - lambda') w0} J(lambda'; w0, c) for
    real c >= 0.  For complex c (|c| <= w0, Re c >= 0) w + c lies within
    pi/4 of the real axis, so Re (w + c)^{-3/2} >= cos(3 pi/8) |w + c|^{-3/2}
    and the same holds with a factor 1/cos(3 pi/8) < 2.7.  |h| is 1 on the
    support of a chi table, and the float that gives the floor is off by
    at most one bit, so with g >= 3 the 2^{8-p_n} relative roundoff of
    term n is at most 2^{8-wp} |h(n1) t_{n1}|/N, and the N terms stay
    within the sum |h(n) t_n| 2^{8-wp} that ell_sum already charges.
    """
    from . import resum  # resum imports this module
    B = 4 * s * t
    chi = chi_function(ChiParams(s, t, *nm))
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
            h = _PhaseClasses(chi, Fraction(0), 0, B)
        else:
            alpha = as_fraction(lower)
            if z.imag > 0:
                raise DomainError("a rational base point needs Im z <= 0")
            alpha_mp = frac_to_mp(alpha)
            c = 1j * (z - alpha_mp)
            if abs(c) <= mpf(2) ** (-ctx.prec) * max(1, abs(alpha_mp)):
                c = mpf(0)
            h = _PhaseClasses(chi, alpha, 0, B)
            c1 = mp.pi * B / (2 * h.P ** 2)
            w0 = c1 / ((ctx.prec + 40) * mp.ln2)
            if abs(c) > w0:
                w0 = mpf(0)
            else:
                h.require_mean_zero(ctx.prec)
                q = mp.exp(-c1 / w0)
                poisson = mp.sqrt(mpf(B) / 2) * q / (c1 * (1 - q))    # times hmax
        table, hmax = h.table(), h.hmax
        if w0:
            # terms falling like e^{-lambda_n w0}: all of them up to N, term n
            # at the bits its size needs
            scale = hmax * (w0 + mp.re(c)) ** MINUS_THREE_HALVES / lam1
            cut = _gauss_cutoff(lambda n: scale / (n + 1) ** 2 * _gauss_tail(0, lam1 * w0, n),
                                target, ctx.ell_cap)
            N, wp = cut[0], mp.prec
            n1 = next((n for n in range(1, N + 1) if table(n)), N)
            top = wp + (N - 1).bit_length() + EICHLER_HEAD_GUARD
            rate, arg, root = lam1 * w0, lam1 * (w0 + c), (w0 + c) ** MINUS_HALF
            drop = float(rate / mp.ln2)                 # bits per unit of n^2
            decay_bits = int(rate * N * N).bit_length()  # lambda_n w0 < 2^decay_bits

            def term(n):
                p = max(EICHLER_HEAD_FLOOR, top - int(drop * (n * n - n1 * n1)))
                with workprec(p + decay_bits):
                    v = -mp.exp(-rate * (n * n))
                with workprec(p):
                    v *= root * resum.laplace_kernel(-arg * (n * n), 0, MINUS_HALF)
                if x:
                    with workprec(wp + 2 * n.bit_length()):  # x n^2 exactly
                        turn = 2 * x * n * n / B
                    with workprec(p):
                        v *= mp.expjpi(turn)
                return v

            est = resum.ell_sum(table, cut, term, []) + Estimate(mpf(0), hmax * poisson)
        else:
            # terms falling like n^{-2}: a head and Watson moments
            est = resum.vertical_sum(table, lam1, c, target, ctx.ell_cap)
        return (est * pref).rounded(ctx.prec)
