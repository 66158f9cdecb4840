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

from .periodic import (ChiParams, ConfigError, PeriodicFunction, TildeFunction,
                       _divisors, chi_function, pair_set, s_matrix_entry)
from .precision import (DEFAULT_CTX, HALF, MINUS_HALF, MINUS_THREE_HALVES, Estimate,
                        PrecisionContext, as_fraction, frac_to_mp, to_mpf)


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


class PeriodicTable(tuple):
    """h(0), ..., h(M-1) of a periodic h, with what resum.ell_sum reads of f~."""

    __slots__ = ()
    M = property(len)

    def __call__(self, n: int):
        return self[n % len(self)]

    def is_zero(self, n: int) -> bool:
        return self[n % len(self)] == 0

    def max_abs(self) -> mpf:
        return max(abs(v) for v in self)


def _require_mean_zero(h, hmax, prec: int) -> None:
    """Raise unless h has mean zero: else theta^{(0)} ~ mean sqrt(b/(8w)) at alpha + iw."""
    mean = mp.fsum(h) / len(h)
    if abs(mean) > mpf(2) ** (-prec // 2) * max(hmax, mpf(1)):
        raise NoRadialLimitError(
            f"twisted coefficients have mean {mean}; radial limit undefined")


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
        hmax = max(abs(v) for v in h)
        _require_mean_zero(h, hmax, ctx.prec)
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
        # F = (1/P) sqrt(pi/lam) sum_{j != 0} H(j) e^{-pi^2 j^2/(lam P^2)};
        # H(0) = 0, whose roundoff would grow like w^{-1/2}
        pref = mp.sqrt(mp.pi / lam) / P
        mu = mp.pi ** 2 / (lam * P * P)
        acc = mpc(0)
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
      w0, c) for n <= N, lambda_N w0 >= (prec + 60) ln 2.
    - Other z, c = i(z - alpha): J(lambda_n; 0, c) falls like n^{-2}.  A head
      n <= N0, and over n > N0 Watson's lemma on (1 + w/c)^{-3/2}: moments
      c^{-3/2} (-1)^k (3/2)_k c^{-k} lambda_1^{-k-1} sum h(n) n^{-2k-2}, k <
      K, and a rest <= hmax |c|^{-3/2-K} (3/2)_K lambda_1^{-K-1}
      N0^{-2K-1}/(2K+1); (N0, K) from resum._truncation.
    - "conj", z = x - iy: chi(n) e^{2 pi i x n^2/B} J(lambda_n; y, y), n <= N.

    Past N the first and last sum to at most hmax (w0 + Re c)^{-3/2}
    lambda_{N+1}^{-1} sum_{n>N} e^{-lambda_1 w0 n^2}.  The error adds the
    tail and Poisson bounds, the head and Hurwitz roundoff (ell_sum) and
    |value| 2^-prec; budget_exhausted: ctx.ell_cap stopped N or N0 short.
    """
    from . import resum  # resum imports this module
    spec = _chi_spec0(s, t, nm)
    B = spec.b
    with ctx.working(20):
        z = mpc(z)
        pref = mp.sqrt(mpf(s * t) / 8) / mp.pi
        lam1 = 2 * mp.pi / B
        target = mpf(2) ** (-ctx.prec) / pref
        x, moments, poisson = mpf(0), [], mpf(0)
        if isinstance(lower, str):
            if lower != "conj":
                raise ConfigError("lower must be 'conj', 0, or a rational")
            if z.imag >= 0:
                raise DomainError("the conj-based integral needs Im z < 0")
            x, w0 = z.real, -z.imag
            c = w0
            table = PeriodicTable(to_mpf(spec.f(n)) for n in range(spec.f.period))
            hmax = table.max_abs()
        else:
            alpha = as_fraction(lower)
            if z.imag > 0:
                raise DomainError("a rational base point needs Im z <= 0")
            alpha_mp = frac_to_mp(alpha)
            c = 1j * (z - alpha_mp)
            if abs(c) <= mpf(2) ** (-ctx.prec) * max(1, abs(alpha_mp)):
                c = mpf(0)
            P, h = twisted_table(spec.f, alpha, 0, B)
            table = PeriodicTable(h)
            hmax = table.max_abs()
            c1 = mp.pi * B / (2 * P * P)
            w0 = c1 / ((ctx.prec + 40) * mp.ln2)
            if abs(c) > w0:
                w0 = mpf(0)
            else:
                _require_mean_zero(h, hmax, ctx.prec)
                q = mp.exp(-c1 / w0)
                poisson = hmax * mp.sqrt(mpf(B) / 2) * q / (c1 * (1 - q))
        root = (w0 + c) ** MINUS_HALF

        def term(n):
            lam = lam1 * n * n
            v = -mp.exp(-lam * w0) * root * resum.laplace_kernel(-lam * (w0 + c), 0, MINUS_HALF)
            if not x:
                return v
            with workprec(mp.prec + 2 * n.bit_length()):  # x n^2 exactly
                phase = mp.expjpi(2 * x * n * n / B)
            return phase * v

        if w0:
            # terms falling like e^{-lambda_n w0}: all of them up to N
            N = min(int(mp.sqrt((ctx.prec + 60) * mp.ln2 / (lam1 * w0))) + 1, ctx.ell_cap)
            while True:
                tail = hmax * (w0 + mp.re(c)) ** MINUS_THREE_HALVES / (lam1 * (N + 1) ** 2) \
                    * _gauss_tail(0, lam1 * w0, N)
                if tail <= target or N >= ctx.ell_cap:
                    break
                N = min(2 * N, ctx.ell_cap)
            exhausted = tail > target
        else:
            # terms falling like n^{-2}: a head and Watson moments
            bounds = []
            coef = hmax * abs(c) ** MINUS_THREE_HALVES / lam1    # K = 0
            mk = c ** MINUS_THREE_HALVES / lam1
            for K in range(1, resum.TRUNCATION_K_MAX + 1):
                moments.append((2 * K, mk))
                mk *= -(K + HALF) / (c * lam1)
                coef *= (K + HALF) / (abs(c) * lam1)
                bounds.append((coef / (2 * K + 1), 2 * K + 1))
            N, K, tail, exhausted = resum._truncation(table, bounds, 1, target, ctx.ell_cap)
            moments = moments[:K]
        est = resum.ell_sum(table, N, term, moments, tail)
        value = pref * est.value
        err = pref * (est.error + poisson) + abs(value) * mpf(2) ** (-ctx.prec)
        return Estimate(value, err, exhausted)


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
