"""Partial theta series: upper half-plane sums, radial limits, Eichler integrals.

theta^{(nu)}_{a,b,f}(x) = sum_{n>=0} n^nu f(n) e^{2 pi i x (n^2-a)/b},  Im x > 0.

Radial limits at nonzero rationals alpha are computed from the twisted
coefficient function h(n) = f(n) e^{2 pi i alpha (n^2-a)/b} (periodic, mean
zero) through its L-values at s = 0 and s = -1.  The independent oracle, a
Richardson extrapolation along x = alpha + i eps, lives with the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf, mpc

from .periodic import (ChiParams, ConfigError, PeriodicFunction, TildeFunction,
                       _divisors, chi_function, pair_set, s_matrix_entry)
from .precision import (DEFAULT_CTX, MINUS_THREE_HALVES, Estimate, PrecisionContext,
                        as_fraction, frac_to_mp, to_mpf)


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


def theta_upper_half(spec: ThetaSpec, x, ctx: PrecisionContext = DEFAULT_CTX) -> Estimate:
    """Truncated theta sum with a Gaussian tail bound; requires Im x > 0."""
    with ctx.working():
        x = mpc(x)
        if x.imag <= 0:
            raise DomainError(f"Im x must be positive, got {x}")
        lam = 2 * mp.pi * x.imag / spec.b
        fmax = _f_max(spec.f)
        target = ctx.tolerance() * mpf("0.01") + mpf(2) ** (-ctx.prec - 10)
        period = spec.f.period
        n = 0
        acc = mpc(0)
        two_pi_i = 2j * mp.pi
        while True:
            v = to_mpf(spec.f(n))
            if v:
                acc += (n ** spec.nu) * v * mp.exp(two_pi_i * x * (n * n - spec.a) / spec.b)
            n += 1
            if n % period == 0:
                tail = fmax * mp.exp(2 * mp.pi * x.imag * spec.a / spec.b) \
                    * _gauss_tail(spec.nu, lam, n - 1)
                if tail < target:
                    return Estimate(acc, tail + abs(acc) * mpf(2) ** (-ctx.prec))
            if n > 10_000_000:
                raise DomainError("theta sum did not reach tolerance; Im x too small")


def _f_max(f) -> mpf:
    return abs(to_mpf(f.c)) if isinstance(f, PeriodicFunction) else f.max_abs()


# ---------------------------------------------------------------------------
# Twisted coefficient tables and radial limits.

def _phase_exponent(alpha: Fraction, n: int, a: int, b: int) -> Fraction:
    """Exact exponent of e^{pi i *}: 2 alpha (n^2 - a)/b reduced mod 2."""
    return (2 * alpha * (n * n - a) / b) % 2


def _twist_period(f, alpha: Fraction, b: int) -> int:
    """Minimal common period of f and the quadratic twist e^{2pi i alpha n^2/b}.

    Starts from the safe period lcm(period_f, den(alpha) * b) and minimises by
    scanning divisors, comparing exact phase exponents.
    """
    period = f.period
    safe = math.lcm(period, alpha.denominator * b)
    alpha0 = alpha

    def twist_ok(Q):
        # phase difference 2 alpha (2nQ + Q^2)/b must be an even integer for
        # all n; linear in n, so checking n = 0 and n = 1 suffices
        for n in (0, 1):
            d = (2 * alpha0 * (2 * n * Q + Q * Q) / b) % 2
            if d != 0:
                return False
        return True

    best = safe
    for d in _divisors(safe):
        if d % period == 0 and twist_ok(d):
            best = d
            break
    return best


def twisted_table(f, alpha: Fraction, a: int, b: int):
    """(P, [h(0), ..., h(P-1)]) for h(n) = f(n) e^{2 pi i alpha (n^2-a)/b}."""
    P = _twist_period(f, alpha, b)
    vals = []
    for n in range(P):
        fv = to_mpf(f(n))
        if fv == 0:
            vals.append(mpc(0))
            continue
        expo = _phase_exponent(alpha, n, a, b)
        vals.append(fv * mp.expjpi(frac_to_mp(expo)))
    return P, vals


def theta_radial_limit(spec: ThetaSpec, alpha, ctx: PrecisionContext = DEFAULT_CTX) -> Estimate:
    """Radial limit of the theta series at a nonzero rational alpha.

    nu = 1:  L(-1, h) = -(P/2) sum_{m=1}^{P} h(m) B_2(m/P)
    nu = 0:  h(0) + L(0, h),  L(0, h) = -sum_{m=1}^{P} h(m) B_1(m/P)

    with B_1(1) = +1/2 at the endpoint m = P (validated against zeta(0) and
    the alternating series, and against the extrapolation oracle).  The mean
    of h over a period must vanish or no finite limit exists.
    """
    alpha = as_fraction(alpha)
    if alpha == 0:
        raise DomainError("alpha must be nonzero")
    with ctx.working(40):
        P, h = twisted_table(spec.f, alpha, spec.a, spec.b)
        hmax = max(abs(v) for v in h) if h else mpf(0)
        mean = mp.fsum(h) / P
        if abs(mean) > mpf(2) ** (-ctx.prec // 2) * max(hmax, mpf(1)):
            raise NoRadialLimitError(
                f"twisted coefficients have mean {mean}; radial limit undefined")
        acc = mpc(0)
        for m in range(1, P + 1):
            hv = h[m % P]
            if hv:
                # B_2(m/P) and B_1(m/P) as exact Fractions built from integers
                if spec.nu == 1:
                    br = Fraction(6 * m * m - 6 * m * P + P * P, 6 * P * P)
                else:
                    br = Fraction(2 * m - P, 2 * P)
                acc += hv * frac_to_mp(br)
        if spec.nu == 1:
            val = -mpf(P) / 2 * acc
        else:
            val = h[0] - acc
        err = (P ** 2) * hmax * mpf(2) ** (-ctx.prec - 20)
        return Estimate(val, err)


# ---------------------------------------------------------------------------
# Theta on vertical lines, with Poisson summation near the real axis.

class VerticalTheta:
    """Evaluator of theta^{(0)}_{0,B,f}(alpha + i w) for fixed f, B, alpha.

    Direct Gaussian summation for w large; Poisson-transformed series for w
    small, where the direct sum would need ~1/sqrt(w) terms.  Relies on f
    even with f(0) = 0, so the one-sided sum is half the two-sided one.
    """

    def __init__(self, f, B: int, alpha=Fraction(0)):
        self.f = f
        self.B = B
        self.alpha = as_fraction(alpha)
        self._tables = {}

    def _build(self):
        key = mp.prec
        if key not in self._tables:
            P, h = twisted_table(self.f, self.alpha, 0, self.B)
            self._tables[key] = (P, h, max(abs(v) for v in h), {})
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
        if lam * P >= mp.pi:
            # direct sum
            acc = mpc(0)
            n = 1
            while True:
                hv = h[n % P]
                if hv:
                    acc += hv * mp.exp(-lam * n * n)
                if n % P == 0 and hmax * _gauss_tail(0, lam, n) < target:
                    return acc
                n += 1
        # Poisson regime: theta = F/2 with
        # F = (1/P) sqrt(pi/lam) sum_j H(j) e^{-pi^2 j^2/(lam P^2)}
        pref = mp.sqrt(mp.pi / lam) / P
        mu = mp.pi ** 2 / (lam * P * P)
        acc = self._dft(0) / 2
        j = 1
        while True:
            damp = mp.exp(-mu * j * j)
            if pref * P * hmax * damp < target and j > 2:
                break
            acc += self._dft(j) * damp
            j += 1
        return pref * acc


# ---------------------------------------------------------------------------
# Non-holomorphic Eichler integral and the period function.

def _chi_spec0(s: int, t: int, nm: tuple) -> ThetaSpec:
    return ThetaSpec(a=0, b=4 * s * t, nu=0, f=chi_function(ChiParams(s, t, *nm)))


def eichler_integral(s: int, t: int, nm: tuple, z, lower,
                     ctx: PrecisionContext = DEFAULT_CTX) -> Estimate:
    """sqrt(st i/(8 pi^2)) int theta^{(0)}_{0,4st,chi}(tau) (tau - z)^{-3/2} dtau.

    lower = "conj": integrate from conj(z) upward (z in the lower half-plane);
    lower = rational alpha (or 0): the period-function variant from alpha.
    The path is the vertical ray; the integrand decays exponentially at the
    top and, for rational base points, vanishes to all orders at the bottom.
    """
    spec = _chi_spec0(s, t, nm)
    B = spec.b
    with ctx.working(20):
        z = mpc(z)
        pref = mp.sqrt(mpc(0, s * t) / (8 * mp.pi ** 2))
        if isinstance(lower, str):
            if lower != "conj":
                raise ConfigError("lower must be 'conj', 0, or a rational")
            if z.imag >= 0:
                raise DomainError("the conj-based integral needs Im z < 0")
            base_re, base_im = z.real, -z.imag
            vert = None
        else:
            alpha = as_fraction(lower)
            base_re, base_im = frac_to_mp(alpha), mpf(0)
            vert = VerticalTheta(spec.f, B, alpha)

        ell0 = 1
        while spec.f(ell0) == 0:
            ell0 += 1
        rate = 2 * mp.pi * ell0 ** 2 / B
        W = (mp.log(10) * (mp.dps + 8)) / rate  # exponential tail cutoff

        def theta_at(w):
            if vert is not None:
                return vert.value(w)
            est = theta_upper_half(spec, mpc(base_re, base_im + w), ctx)
            return est.value

        def integrand(w):
            tau_minus_z = mpc(base_re - z.real, base_im + w - z.imag)
            return theta_at(w) * tau_minus_z ** MINUS_THREE_HALVES * 1j

        guard = abs(mpc(base_re, base_im) - z)
        if vert is None and guard == 0:
            raise DomainError("path would start at z itself")
        pts = [mpf(0)]
        # resolve the small-w region where Poisson evaluation takes over
        small = mpf(B) / (2 * spec.f.period)
        for sc in (mpf("0.01"), mpf("0.1"), mpf(1)):
            if small * sc < W:
                pts.append(small * sc)
        pts.append(W)
        val, qerr = mp.quad(integrand, sorted(set(pts)), error=True,
                            maxdegree=8)
        # tail beyond W: |theta| <= fmax * P * e^{-rate w} / (1 - ...) roughly
        fmax = _f_max(spec.f)
        tail = fmax * spec.f.period * mp.exp(-rate * W) / rate \
            * abs(mpc(base_re, base_im + W) - z) ** MINUS_THREE_HALVES
        return Estimate(pref * val, abs(pref) * (qerr + tail))


@dataclass(frozen=True)
class TransformReport:
    s: int
    t: int
    nm: tuple
    z: mpc
    lhs: mpc
    rhs: mpc
    residual: mpf
    tolerance: mpf

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


def verify_modular_transform(s: int, t: int, nm: tuple, z,
                             ctx: PrecisionContext = DEFAULT_CTX,
                             tol=None) -> TransformReport:
    """Check theta^{(0)}_{chi(n,m)}(z) = sqrt(i/z) sum S theta^{(0)}_{chi'}(-1/z).

    The left-hand index is read as (n,m); both sides are evaluated by the
    truncated upper-half-plane sums at the context precision.
    """
    ps = pair_set(s, t)
    if tuple(nm) not in ps.pairs:
        raise ConfigError(f"{nm} not in D({s},{t})")
    with ctx.working():
        z = mpc(z)
        if z.imag <= 0:
            raise DomainError("need Im z > 0")
        tolv = ctx.tolerance() if tol is None else mpf(tol)
        lhs = theta_upper_half(_chi_spec0(s, t, nm), z, ctx).value
        w = -1 / z
        acc = mpc(0)
        for other in ps:
            S = s_matrix_entry(s, t, tuple(nm), other, ctx)
            acc += S * theta_upper_half(_chi_spec0(s, t, other), w, ctx).value
        rhs = mp.sqrt(1j / z) * acc
        return TransformReport(s, t, tuple(nm), z, lhs, rhs, abs(lhs - rhs), tolv)
