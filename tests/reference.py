"""Independent reference computations that the library does not carry.

`lateral_sum_quadrature` is the lateral Borel-Laplace sum with each l-term's
remainder integral done by adaptive quadrature along the ray (with an
analytic bound for the cut-off piece), the route `resum.lateral_sum` took
before it evaluated those integrals in closed form.  Keeping it here keeps
the Stokes-jump identity and the closed form checked against something that
does not share the incomplete-gamma kernel.

`boundary_median_quadrature` is the boundary median with the vertical
theta integral done by adaptive quadrature over `VerticalTheta` values (its
Poisson branch near v = 0) and an exponential bound past the cutoff, the
route `resum.boundary_median` took before it summed the l-terms in closed
form with Watson moments; it shares only the theta radial limit term.

`eichler_integral_quadrature` is the Eichler integral by adaptive
quadrature along the vertical ray over `VerticalTheta` (rational base) or
`theta_upper_half` ("conj") values, the route `qseries.eichler_integral`
took before it summed the n-terms as incomplete-gamma values; it shares
only the twisted table with it.

`median_sum_e_series` is the median as the convergent special-function
series (4 M c / pi^{3/2}) sum_l (f~(l)/l^2) E((l pi/M) sqrt(b x)), with E
the Dawson-integral form of the eps = 1/2 kernel (`resum.special_e`), two
moments of E's expansion at infinity and a kappa bound on the rest, the
route `resum.median_sum` took before it became one lateral sum and half
the Stokes jump; it shares no lateral sum and no theta series with it.

`tilde_dirichlet_blocks_reference` is the plain mpf loop over the same head
as `resum.tilde_dirichlet_blocks`, the kernel's fixed-point sums replaced.

`bernoulli_polynomial_fractions` is B_k(x) as the binomial sum in Fractions,
the route `exact.bernoulli_polynomial` took before it summed in integers.
`pattern_bernoulli_sum_scan` is the Bernoulli pattern sum as a scan over all
M residues with it, without the pairing of r with M - r that
`exact.bernoulli_sum` takes from the evenness of the table and of B_k.

The rest are oracles for single layers: Watson's optimal truncation of the
formal series, Richardson extrapolation of theta along a radius, the
explicit trefoil Borel transform, the D2 pair set and the folding bijection
onto it, the full S-matrix, and polynomial fits at the origin.

`even_bernoulli_sum` is the inner sum of the even-Bernoulli generating
identity, sum_m f(m) B_{2n+2}(m/M) by `mp.bernpoly`, cached per degree so
the two tests of that identity on one pattern share their Bernoulli values.

`hikami_x_enumeration` is X_u^(l) as the nested sum over k-vectors in
complex floats, the route `habiro.hikami_x` took before it summed level by
level in the exact ring; it shares no ring arithmetic and no root table
with it.  `kontsevich_zagier_product` is Phi = X_1^(0) as the plain sum of
products (1 - q)...(1 - q^n) in complex floats, and `colored_jones_trefoil`
the explicit trefoil sum J_N = q^{1-N} sum q^{-nN} (q^{1-N}; q)_n at
q = e^{2 pi i/N}, the same way; the library evaluates neither form.

Three checks that only the tests run live here too, with the library
routines they call: `boundary_median_extrapolated` (Richardson of
`resum.median_sum` at boundary + eps, the interior approach to the boundary
median), `verify_modular_transform` (the S-transform of the weight-1/2
character theta series, both sides by `qseries.theta_upper_half`) and
`support_set` (the integers +-(nt +- ms) over D(s,t), distinct by the
distinctness lemma).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpc, mpf, workprec

from thetaresum.exact import bernoulli_number
from thetaresum.periodic import (ChiParams, ConfigError, PairSet, chi_function, pair_set,
                                 s_matrix_entry)
from thetaresum.precision import (DEFAULT_CTX, FIVE_HALVES, HALF, MINUS_FIVE_HALVES,
                                  MINUS_HALF, MINUS_THREE_HALVES, THREE_HALVES, Estimate,
                                  PrecisionContext, as_fraction, frac_to_mp, richardson_limit,
                                  to_mpf)
from thetaresum.qseries import (DomainError, ThetaSpec, VerticalTheta, _gauss_tail,
                                _phase_exponent, theta_radial_limit, theta_upper_half)
from thetaresum.resum import (RAY_ANGLE, boundary_point, ell_sum, median_sum, special_e,
                              tilde_dirichlet)

QUARTER = mpf("0.25")
_BETA2 = mpf("4.375")  # (5/2)_2/2! = 35/8
_BETA3 = mpf("6.5625")  # (5/2)_3/3! = 105/16
_BETAS = (mpf(1), FIVE_HALVES, _BETA2)  # (5/2)_j/j!, j < 3: the oracle's three moments


def remainder_r3(w):
    """R3(w) = (1-w)^{-5/2} - 1 - (5/2)w - (35/8)w^2, stable for small w."""
    if abs(w) > HALF:
        return (1 - w) ** MINUS_FIVE_HALVES - 1 - FIVE_HALVES * w - _BETA2 * w * w
    # series sum_{k>=3} (5/2)_k/k! w^k, ratio < 3/4 on |w| <= 1/2
    term = _BETA3 * w ** 3
    acc = term
    k = 3
    eps = mpf(2) ** (-mp.prec - 4)
    while abs(term) > eps * (1 + abs(acc)):
        term = term * w * (FIVE_HALVES + k) / (k + 1)
        acc += term
        k += 1
    return acc


def lateral_sum_quadrature(series, x, side: str, ctx: PrecisionContext) -> Estimate:
    """S^side(x) with the R3 ray integrals by mp.quad on [0, U] plus a bound
    44 |w|^3 on the piece beyond U.

    Three moments, summed over all l, and a fixed l^{-10} tail: |R3(w)| <=
    44 |w|^3 on the rays, so the R3 parts past L add at most |pref| 264
    fmax/(9 sig^4 b^3) (pi^2/M^2)^{-11/2} L^{-9} (pref = 3 pi c/(M^2 b)),
    and L is the least head length >= max(6, first support) that brings
    this below the target."""
    sgn = 1 if side in ("plus", "+") else -1
    with ctx.working(20):
        x = mpc(x)
        if x.real == 0:
            raise DomainError("x must not lie on the imaginary axis")
        theta = mp.pi * frac_to_mp(RAY_ANGLE)
        ray = mp.exp(1j * sgn * theta)
        sig = (ray * x).real
        if sig <= 0:
            raise DomainError("ray integral diverges")
        f, tilde, b = series.f, series.tilde, series.b
        M = f.M
        c = to_mpf(f.c)
        pref = 3 * mp.pi * c / (M ** 2 * b)
        Apref = mp.pi ** 2 / M ** 2
        m2pi2 = mpf(M * M) / mp.pi ** 2
        cm = to_mpf(series.c_m)

        poly = mpc(0)
        for j, beta in enumerate(_BETAS):
            w_s = tilde_dirichlet(tilde.table(), 4 + 2 * j)
            poly += (beta * mpf(b) ** (-j) * mp.factorial(j)
                     / x ** (j + 1) * m2pi2 ** (FIVE_HALVES + j) * w_s)

        target = ctx.tolerance() * mpf("0.1") + mpf(2) ** (-ctx.prec)
        fmax = tilde.table().max_abs()
        tail_const = abs(pref) * fmax * 264 / (sig ** 4 * mpf(b) ** 3) \
            * Apref ** mpf("-5.5") / 9
        L = max(6, tilde.first_support)
        while tail_const / mpf(L) ** 9 > target and L < ctx.ell_cap:
            L += 1
        budget_hit = tail_const / mpf(L) ** 9 > target
        tail_bound = tail_const / mpf(L) ** 9

        quad_prec = min(mp.prec, max(64, int(-3.33 * mp.log10(target)) + 36))
        quad_err = mpf(0)
        qsum = mpc(0)
        with workprec(quad_prec):
            U = (mp.log(10) * (-mp.log10(target) + 8)) / sig
            for ell in range(1, L + 1):
                tv = tilde(ell)
                if not tv:
                    continue
                Ab = Apref * ell * ell * b

                def g(u, _Ab=Ab):
                    p = ray * u
                    return ray * mp.exp(-p * x) * remainder_r3(p / _Ab)

                val, qe = mp.quad(g, [0, 1 / sig, 8 / sig, U], error=True,
                                  maxdegree=8)
                cut = 44 / Ab ** 3 * mp.exp(-sig * U) * (
                    U ** 3 / sig + 3 * U ** 2 / sig ** 2 + 6 * U / sig ** 3 + 6 / sig ** 4)
                coeff = ell * tv * (Apref * ell * ell) ** MINUS_FIVE_HALVES
                qsum += coeff * val
                quad_err += abs(coeff) * (qe + cut + abs(val) * mpf(2) ** (-quad_prec + 8))

        value = cm + pref * (poly + qsum)
        err = abs(pref) * quad_err + tail_bound + abs(value) * mpf(2) ** (-ctx.prec)
        return Estimate(value, err, budget_hit)


def boundary_median_quadrature(series, alpha, ctx: PrecisionContext = DEFAULT_CTX) -> Estimate:
    """S_med at x = -1/(2 pi i alpha) with the vertical integral by mp.quad:

        (c b e^{i pi/4} / (M pi (i alpha)^{3/2}))
            * int_0^{+i inf} theta0_{0,4M^2,f~}(b p) (1/alpha + p)^{-3/2} dp
        + (b/(i alpha))^{3/2} (sqrt2 c / M^2) theta1_{0,4M^2,f~}(-b/alpha).

    The integrand vanishes to all orders at p = 0 (VerticalTheta's Poisson
    side) and decays exponentially; the error is mp.quad's estimate plus a
    bound on the piece beyond the cutoff V."""
    alpha = as_fraction(alpha)
    if alpha == 0:
        raise DomainError("alpha must be a nonzero rational")
    with ctx.working(20):
        f = series.f
        tilde = series.tilde
        M, b = f.M, series.b
        c = to_mpf(f.c)
        B = 4 * M * M
        vert = VerticalTheta(tilde, B, Fraction(0))
        inv_alpha = frac_to_mp(alpha) ** -1

        ell0 = tilde.first_support
        rate = mp.pi * b * ell0 ** 2 / (2 * M ** 2)
        V = (mp.log(2) * (mp.prec + 10)) / rate

        def integrand(v):
            th = vert.value(b * v)
            return 1j * th * (inv_alpha + 1j * v) ** MINUS_THREE_HALVES

        period = tilde.period
        small = mpf(B) / (2 * period * b)
        pts = [mpf(0)]
        for sc in (mpf("0.01"), mpf("0.1"), mpf(1), mpf(10)):
            if small * sc < V:
                pts.append(small * sc)
        pts.append(V)
        kval, kerr = mp.quad(integrand, sorted(set(pts)), error=True,
                             maxdegree=8)
        fmax = tilde.table().max_abs()
        tail = fmax * period * mp.exp(-rate * V) / rate * abs(inv_alpha) ** MINUS_THREE_HALVES
        t1_pref = c * b * mp.expjpi(QUARTER) / (M * mp.pi * mpc(0, frac_to_mp(alpha)) ** THREE_HALVES)
        term1 = t1_pref * kval

        spec1 = ThetaSpec(a=0, b=B, nu=1, f=tilde)
        theta1 = theta_radial_limit(spec1, Fraction(-b, 1) / alpha, ctx)
        t2_pref = (mpf(b) / mpc(0, frac_to_mp(alpha))) ** THREE_HALVES * mp.sqrt(2) * c / M ** 2
        term2 = t2_pref * theta1.value

        value = term1 + term2
        err = abs(t1_pref) * (kerr + tail) + abs(t2_pref) * theta1.error \
            + abs(value) * mpf(2) ** (-ctx.prec)
        return Estimate(value, err)


def eichler_integral_quadrature(s: int, t: int, nm: tuple, z, lower,
                                ctx: PrecisionContext = DEFAULT_CTX) -> Estimate:
    """qseries.eichler_integral by mp.quad along the vertical ray.

    theta comes from `VerticalTheta` on a rational base (Poisson branch
    near w = 0, where the integrand vanishes to all orders) and from
    `theta_upper_half` on the "conj" path, whose largest truncation error is
    integrated against |tau - z|^{-3/2}.  The error is mp.quad's estimate,
    an exponential bound on the ray past the cutoff W, and that theta error.
    """
    spec = ThetaSpec(a=0, b=4 * s * t, nu=0, f=chi_function(ChiParams(s, t, *nm)))
    B = spec.b
    with ctx.working(20):
        z = mpc(z)
        pref = mp.sqrt(mpc(0, s * t) / (8 * mp.pi ** 2))
        if isinstance(lower, str):
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
        theta_err = [mpf(0)]

        def theta_at(w):
            if vert is not None:
                return vert.value(w)
            est = theta_upper_half(spec, mpc(base_re, base_im + w), ctx)
            theta_err[0] = max(theta_err[0], est.error)
            return est.value

        def integrand(w):
            tau_minus_z = mpc(base_re - z.real, base_im + w - z.imag)
            return theta_at(w) * tau_minus_z ** MINUS_THREE_HALVES * 1j

        pts = [mpf(0)]
        # resolve the small-w region where Poisson evaluation takes over
        small = mpf(B) / (2 * spec.f.period)
        for sc in (mpf("0.01"), mpf("0.1"), mpf(1)):
            if small * sc < W:
                pts.append(small * sc)
        pts.append(W)
        val, qerr = mp.quad(integrand, sorted(set(pts)), error=True, maxdegree=8)
        # tail beyond W: |theta| <= fmax P e^{-rate w}/rate, roughly
        fmax = spec.f.table().max_abs()
        tail = fmax * spec.f.period * mp.exp(-rate * W) / rate \
            * abs(mpc(base_re, base_im + W) - z) ** MINUS_THREE_HALVES
        # int_0^W |2y + w|^{-3/2} dw <= 2 (2y)^{-1/2} on the conj path
        trunc = theta_err[0] * 2 * (2 * base_im) ** MINUS_HALF if vert is None else 0
        return Estimate(pref * val, abs(pref) * (qerr + tail + trunc))


# kappa in median_sum_e_series's bound; a sweep of |y| in [2, 1000],
# |arg y| < pi/4 needs 1.62, at |y| = 3.03 on the real axis (tests/test_resum.py)
E_KAPPA = 2


def e_limit():
    """lim E(y) = 1/(2 sqrt(pi)) along directions |arg y| < pi/4."""
    return 1 / (2 * mp.sqrt(mp.pi))


def median_sum_e_series(series, x, ctx: PrecisionContext = DEFAULT_CTX) -> Estimate:
    """S_med(x) on Re x > 0 via the E-function series.

    E is called for l <= L (ell_sum).  For l > L, y_l = rho l, the
    expansion E ~ E_inf + (3/(4 y^2) + 15/(8 y^4) + ...)/sqrt(pi) (DLMF
    7.12), E_inf = 1/(2 sqrt(pi)), gives two moments: E_inf times
    sum_{l>L} f~(l) l^{-2} and 3/(4 sqrt(pi) rho^2) times
    sum_{l>L} f~(l) l^{-4}.  The rest is bounded, for |y| >= 2
    (L >= 2/|rho| + 1) and |arg y| < pi/4, through

        |E - E_inf - 3/(4 sqrt(pi) y^2)| <= |y|^3 e^{-Re y^2} + kappa 15/(8 sqrt(pi) |y|^4),

    kappa = E_KAPPA; its algebraic part falls like L^{-5}, so L doubles
    until the bound meets the target or ctx.ell_cap.
    """
    with ctx.working(20):
        x = mpc(x)
        if x.real <= 0:
            raise DomainError("median sum defined on Re x > 0")
        f, tilde, b = series.f, series.tilde, series.b
        M = f.M
        c = to_mpf(f.c)
        rho = mp.pi * mp.sqrt(b * x) / M          # y_l = rho * l
        tau = (mp.pi ** 2 * b / M ** 2) * x.real   # Re y_l^2 = tau l^2
        pref = 4 * M * c / mp.pi ** THREE_HALVES
        fmax = tilde.table().max_abs()
        target = ctx.tolerance() * mpf("0.1") + mpf(2) ** (-ctx.prec)

        def tail_bound(L):
            # sum_{l>L} fmax l^{-2} kappa 15/(8 sqrt(pi) |rho l|^4), and
            # sum_{l>L} fmax rho^3 l e^{-tau l^2}
            alg = E_KAPPA * 15 * fmax / (8 * mp.sqrt(mp.pi) * abs(rho) ** 4 * 5 * mpf(L) ** 5)
            return alg + fmax * abs(rho) ** 3 * _gauss_tail(1, tau, L)

        L = max(8, int(2 / abs(rho)) + 1, tilde.first_support + 1)
        while abs(pref) * tail_bound(L) > target and L < ctx.ell_cap:
            L = min(2 * L, ctx.ell_cap)
        bound = tail_bound(L)

        est = ell_sum(tilde.table(), (L, bound, False),
                      lambda ell: special_e(rho * ell, ctx) / mpf(ell) ** 2,
                      [(2, e_limit()), (4, 3 / (4 * mp.sqrt(mp.pi) * rho ** 2))])
        value = pref * est.value
        err = abs(pref) * est.error + abs(value) * mpf(2) ** (-ctx.prec)
        return Estimate(value, err, abs(pref) * bound > target)


def tilde_dirichlet_blocks_reference(table, s: int, target, guard: int = 64) -> tuple:
    """(sum_{l=1}^{L} f~(l) l^{-s}, the Abel tail bound) over the head that
    `tilde_dirichlet_blocks` picks for this target: f~ read at the ambient
    precision, as the kernel reads it, then summed term by term in mpf at
    ``guard`` more bits."""
    peak = table.partial_sum_peak()
    P = len(table)
    L = int((2 * peak / mpf(target)) ** (mpf(1) / s)) + 1
    L = P * (L // P + 1)
    with workprec(mp.prec + guard):
        acc = mpf(0)
        for ell in range(1, L + 1):
            v = table[ell % P]
            if v:
                acc += v / mpf(ell) ** s
    return acc, 2 * peak / mpf(L + 1) ** s


def bernoulli_polynomial_fractions(k: int, x) -> Fraction:
    """B_k(x) = sum_j C(k, j) B_{k-j} x^j, accumulated in Fractions."""
    x = Fraction(x)
    acc = Fraction(0)
    xpow = Fraction(1)
    for j in range(k + 1):
        acc += math.comb(k, j) * bernoulli_number(k - j) * xpow
        xpow *= x
    return acc


def pattern_bernoulli_sum_scan(f, degree: int) -> Fraction:
    """sum_{m=1}^{M} pattern(m) B_degree(m/M), exact, one term per residue."""
    total = Fraction(0)
    for m in range(1, f.M + 1):
        s = f.sign(m)
        if s:
            total += s * bernoulli_polynomial_fractions(degree, Fraction(m, f.M))
    return total


def optimal_truncation(series, x):
    """Partial sum of sum a_n x^{-n} truncated at the smallest term.

    Returns (value, first_omitted_magnitude, index); Watson's-lemma oracle.
    """
    x = mpc(x)
    acc = mpc(0)
    best = None
    for n in range(series.count):
        term = to_mpf(series.a(n)) * x ** (-n)
        if best is not None and abs(term) > best[1]:
            return acc, abs(term), n
        acc += term
        best = (acc, abs(term), n)
    raise ValueError("series too short to reach its optimal truncation")


def radial_extrapolate(spec: ThetaSpec, alpha, ctx: PrecisionContext = DEFAULT_CTX,
                       eps_values=None) -> Estimate:
    """Richardson extrapolation of theta(alpha + i eps) to eps -> 0."""
    alpha = as_fraction(alpha)
    if eps_values is None:
        eps_values = [mpf(10) ** (-2 - k * mpf("0.5")) for k in range(7)]
    with ctx.working(40):
        xs, ys = [], []
        for eps in eps_values:
            xs.append(mpf(eps))
            ys.append(_theta_on_radius(spec, alpha, mpf(eps), ctx))
        val, err = richardson_limit(xs, ys)
        return Estimate(val, err)


def boundary_median_extrapolated(series, alpha, ctx: PrecisionContext = DEFAULT_CTX,
                                 eps_values=(mpf("1e-2"), mpf("1e-3"), mpf("1e-4"))) -> Estimate:
    """Interior oracle: Richardson of median_sum at x = boundary + eps."""
    alpha = as_fraction(alpha)
    with ctx.working(20):
        x0 = boundary_point(alpha)
        xs = [mpf(e) for e in eps_values]
        ests = [median_sum(series, x0 + e, ctx) for e in xs]
        val, err = richardson_limit(xs, [e.value for e in ests])
        return Estimate(val, err, any(e.budget_exhausted for e in ests))


def _theta_on_radius(spec: ThetaSpec, alpha: Fraction, eps, ctx) -> mpc:
    """theta at x = alpha + i eps via exact rational phases (no angle loss)."""
    lam = 2 * mp.pi * eps / spec.b
    fmax = spec.f.table().max_abs()
    target = mpf(2) ** (-ctx.prec - 10)
    period = spec.f.period
    acc = mpc(0)
    n = 0
    while True:
        fv = to_mpf(spec.f(n))
        if fv:
            expo = _phase_exponent(alpha, n, spec.a, spec.b)
            term = (n ** spec.nu) * fv * mp.expjpi(frac_to_mp(expo)) \
                * mp.exp(-lam * (n * n - spec.a))
            acc += term
        n += 1
        if n % period == 0:
            if fmax * mp.exp(lam * spec.a) * _gauss_tail(spec.nu, lam, n - 1) < target:
                return acc


def trefoil_explicit_borel(p, ctx: PrecisionContext = DEFAULT_CTX,
                           terms: int = None) -> Estimate:
    """The explicit trefoil transform (3 pi/(2 sqrt 2)) sum n (12|n) (n^2 pi^2/6 - p)^{-5/2}.

    Independent of the general machinery: the conductor-12 character table is
    inlined and the sum is truncated with its own zeta-accelerated tail.
    """
    chi12 = (0, 1, 0, 0, 0, -1, 0, -1, 0, 0, 0, 1)
    with ctx.working(20):
        p = mpc(p)
        pref = 3 * mp.pi / (2 * mp.sqrt(2))
        L = 24
        while (mp.pi ** 2 / 6) * (L + 1) ** 2 <= 2 * abs(p):
            L += 12
        head = mpc(0)
        for n in range(1, L + 1):
            ch = chi12[n % 12]
            if ch:
                head += ch * n / (mpc(n * n) * mp.pi ** 2 / 6 - p) ** mpf("2.5")
        # tail via binomial expansion in p/(n^2 pi^2/6), summed with Hurwitz zeta
        tail = mpc(0)
        A = mp.pi ** 2 / 6
        ratio = abs(p) / (A * (L + 1) ** 2)
        K = A ** mpf("-2.5") / (3 * mpf(L + 1) ** 3)
        target = ctx.tolerance() * mpf("0.01") + mpf(2) ** (-ctx.prec - 8)
        binom = mpf(1)
        k = 0
        while True:
            zs = mpf(0)
            s = 4 + 2 * k
            for r in range(1, 13):
                if chi12[r % 12]:
                    zs += chi12[r % 12] * mp.zeta(s, mpf(r) / 12)
            zs = zs / mpf(12) ** s
            for n in range(1, L + 1):
                if chi12[n % 12]:
                    zs -= chi12[n % 12] * mpf(n) ** (-s)
            tail += binom * p ** k * zs * A ** (-mpf("2.5") - k)
            next_binom = binom * (mpf("2.5") + k) / (k + 1)
            bound = next_binom * ratio ** (k + 1) * K
            if k >= 2 and abs(pref) * bound / (1 - mpf("1.75") * ratio) < target:
                rem = bound / (1 - mpf("1.75") * ratio)
                break
            binom = next_binom
            k += 1
        value = pref * (head + tail)
        return Estimate(value, abs(pref) * rem + abs(value) * mpf(2) ** (-ctx.prec))


def pair_set_alternative(s: int, t: int) -> PairSet:
    """For odd-odd (s,t): the D2 variant, target of the folding bijection."""
    if s % 2 == 0 or t % 2 == 0:
        raise ConfigError("alternative set only defined for odd-odd (s,t)")
    pairs = [(n, m) for n in range(1, s) for m in range(1, (t - 1) // 2 + 1)]
    return PairSet(s, t, tuple(pairs))


def support_set(s: int, t: int) -> list:
    """The integers {+-(nt +- ms) : (n,m) in D(s,t)}; distinct by construction.

    A duplicate would contradict the distinctness lemma, so it is reported as
    an internal consistency failure rather than a user error.
    """
    ps = pair_set(s, t)
    out = []
    for (n, m) in ps:
        base = (n * t - m * s, n * t + m * s)
        for v in base:
            out.append(v)
            out.append(-v)
    if len(set(out)) != 2 * (s - 1) * (t - 1):
        raise AssertionError(
            f"support set of ({s},{t}) has duplicates; expected "
            f"{2 * (s - 1) * (t - 1)} distinct integers, got {len(set(out))}"
        )
    return sorted(out)


def fold_pair(s: int, t: int, n: int, m: int) -> tuple:
    """The bijection D1 -> D2: keep (n,m) in the shared corner, else reflect."""
    if 1 <= n <= (s - 1) // 2 and 1 <= m <= (t - 1) // 2:
        return (n, m)
    return (s - n, t - m)


def s_matrix(s: int, t: int, ctx: PrecisionContext = DEFAULT_CTX):
    """Full S-matrix over D(s,t) x D(s,t), in pair_set order."""
    ps = pair_set(s, t)
    return [[s_matrix_entry(s, t, a, b, ctx) for b in ps] for a in ps]


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

    def spec(pair):
        return ThetaSpec(a=0, b=4 * s * t, nu=0, f=chi_function(ChiParams(s, t, *pair)))
    with ctx.working():
        z = mpc(z)
        if z.imag <= 0:
            raise DomainError("need Im z > 0")
        tolv = ctx.tolerance() if tol is None else mpf(tol)
        lhs = theta_upper_half(spec(nm), z, ctx).value
        w = -1 / z
        acc = mpc(0)
        for other in ps:
            S = s_matrix_entry(s, t, tuple(nm), other, ctx)
            acc += S * theta_upper_half(spec(other), w, ctx).value
        rhs = mp.sqrt(1j / z) * acc
        return TransformReport(s, t, tuple(nm), z, lhs, rhs, abs(lhs - rhs), tolv)


def kontsevich_zagier_product(j: int, N: int, ctx: PrecisionContext = DEFAULT_CTX) -> mpc:
    """Phi(q) = sum_{n<N} prod_{k<=n} (1 - q^k) at q = e^{2 pi i j/N}, each
    power of q taken by complex exponentiation: no ring and no root table."""
    with ctx.working():
        q = mp.expjpi(mpf(2 * j) / N)
        acc, poch = mpc(0), mpc(1)
        for n in range(N):
            acc += poch
            poch *= 1 - q ** (n + 1)
        return acc


def colored_jones_trefoil(N: int, ctx: PrecisionContext = DEFAULT_CTX) -> mpc:
    """J_N at q = e^{2 pi i/N} from the explicit sum
    q^{1-N} sum_{n<N} q^{-nN} (q^{1-N}; q)_n, in complex floats."""
    if N < 2:
        raise ValueError("N must be >= 2")
    with ctx.working():
        q = mp.expjpi(mpf(2) / N)
        acc, poch = mpc(0), mpc(1)  # poch = (q^{1-N}; q)_n
        for n in range(N):
            acc += q ** (-n * N) * poch
            poch *= 1 - q ** (1 - N + n)
        return q ** (1 - N) * acc


def hikami_x_enumeration(u: int, ell: int, j: int, N: int,
                         ctx: PrecisionContext = DEFAULT_CTX) -> mpc:
    """X_u^(l) at q = e^{2 pi i j/N} as the nested sum over k-vectors
    0 <= k_i <= k_{i+1} + delta_{i,l}, k_u < N, in complex floats:

        X = sum (q)_{k_u} q^{k_1^2+...+k_{u-1}^2 + k_{l+1}+...+k_{u-1}}
              prod_i binom[k_{i+1} + delta_{i,l}, k_i]_q

    with its own table of e^{2 pi i j r/N}, memoised q-Pascal binomials and
    running q-Pochhammer products: the route `habiro.hikami_x` took before
    it summed level by level in the exact ring.
    """
    with ctx.working():
        zeta = [mp.expjpi(mpf(2 * j * r % (2 * N)) / N) for r in range(N)]
        poch = [mpc(1)]
        for n in range(1, N):
            poch.append(poch[-1] * (1 - zeta[n % N]))
        binom = {}

        def qbin(top, bottom):
            if bottom < 0 or bottom > top:
                return mpc(0)
            if bottom in (0, top):
                return mpc(1)
            if (top, bottom) not in binom:
                binom[top, bottom] = (qbin(top - 1, bottom - 1)
                                      + zeta[bottom % N] * qbin(top - 1, bottom))
            return binom[top, bottom]

        def vectors(i, upper):
            # (k_1, ..., k_i) with k_i <= upper and the constraints below it
            for k in range(upper + 1):
                if i == 1:
                    yield (k,)
                else:
                    for rest in vectors(i - 1, k + (1 if i - 1 == ell else 0)):
                        yield rest + (k,)

        acc = mpc(0)
        for ks in vectors(u, N - 1):
            expo = sum(k * k for k in ks[:-1]) + sum(ks[ell:u - 1])
            term = poch[ks[-1]] * zeta[expo % N]
            for i in range(u - 1):
                term *= qbin(ks[i + 1] + (1 if i + 1 == ell else 0), ks[i])
            acc += term
        return acc


def poly_fit_origin(xs, ys, ncoeff=None):
    """Exact polynomial interpolation coefficients c0, c1, ... at x = 0.

    Solves the Vandermonde system at the current mpmath precision.  Used to
    read off the first asymptotic-series coefficients from samples of a
    function along a geometric grid shrinking to 0.
    """
    n = len(xs)
    if ncoeff is None:
        ncoeff = n
    if ncoeff > n:
        raise ValueError("cannot extract more coefficients than samples")
    A = mp.matrix(n, n)
    rhs = mp.matrix(n, 1)
    for i, (x, y) in enumerate(zip(xs, ys)):
        p = mpf(1)
        for j in range(n):
            A[i, j] = p
            p = p * x
        rhs[i] = y
    sol = mp.lu_solve(A, rhs)
    return [sol[j] for j in range(ncoeff)]


@functools.lru_cache(maxsize=None)
def _even_bernoulli_sum(f, n: int, prec: int) -> mpf:
    with workprec(prec):
        return mp.fsum(frac_to_mp(f(m)) * mp.bernpoly(2 * n + 2, mpf(m) / f.M)
                       for m in range(1, f.M + 1) if f(m))


def even_bernoulli_sum(f, n: int) -> mpf:
    """sum_{m=1}^{M} f(m) B_{2n+2}(m/M) at the current precision.

    The residues where f vanishes are skipped, and values are cached per
    (f, n, precision): they are the generating identity's inner sums, which
    dominate its cost.
    """
    return _even_bernoulli_sum(f, n, mp.prec)
