"""Independent reference computations that the library no longer carries.

`lateral_sum_quadrature` is the lateral Borel-Laplace sum with each l-term's
remainder integral done by adaptive quadrature along the ray (with an
analytic bound for the cut-off piece), the route `resum.lateral_sum` took
before it evaluated those integrals in closed form.  Keeping it here keeps
the Stokes-jump identity and the closed form checked against something that
does not share the incomplete-gamma kernel.

`tilde_dirichlet_blocks_reference` is the plain mpf loop over the same head
as `resum.tilde_dirichlet_blocks`, the kernel's fixed-point sums replaced.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp, mpc, mpf, workprec

from thetaresum.precision import (FIVE_HALVES, HALF, MINUS_FIVE_HALVES,
                                  PrecisionContext, frac_to_mp)
from thetaresum.qseries import DomainError
from thetaresum.resum import _BETA, _BETA2, LateralResult, _scale_mpf, tilde_dirichlet

_BETA3 = mpf("6.5625")  # (5/2)_3/3! = 105/16


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


def lateral_sum_quadrature(series, x, side: str, ctx: PrecisionContext) -> LateralResult:
    """S^side(x) with the R3 ray integrals by mp.quad on [0, U] plus a bound
    44 |w|^3 on the piece beyond U; same moments, head length and l^{-10}
    tail bound as the library."""
    sgn = 1 if side in ("plus", "+") else -1
    with ctx.working(20):
        x = mpc(x)
        if x.real == 0:
            raise DomainError("x must not lie on the imaginary axis")
        theta = mp.pi * frac_to_mp(Fraction(ctx.theta))
        ray = mp.exp(1j * sgn * theta)
        sig = (ray * x).real
        if sig <= 0:
            raise DomainError("ray integral diverges")
        f, tilde, b = series.f, series.tilde, series.b
        M = f.M
        c = _scale_mpf(f.c)
        pref = 3 * mp.pi * c / (M ** 2 * b)
        Apref = mp.pi ** 2 / M ** 2
        m2pi2 = mpf(M * M) / mp.pi ** 2
        cm = _scale_mpf(series.c_m)

        poly = mpc(0)
        for j, beta in enumerate(_BETA):
            w_s = tilde_dirichlet(tilde, 4 + 2 * j)
            poly += (frac_to_mp(beta) * mpf(b) ** (-j) * mp.factorial(j)
                     / x ** (j + 1) * m2pi2 ** (FIVE_HALVES + j) * w_s)

        target = ctx.tolerance() * mpf("0.1") + mpf(2) ** (-ctx.prec)
        fmax = tilde.max_abs()
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
                                  maxdegree=ctx.quad_maxdegree)
                cut = 44 / Ab ** 3 * mp.exp(-sig * U) * (
                    U ** 3 / sig + 3 * U ** 2 / sig ** 2 + 6 * U / sig ** 3 + 6 / sig ** 4)
                coeff = ell * tv * (Apref * ell * ell) ** MINUS_FIVE_HALVES
                qsum += coeff * val
                quad_err += abs(coeff) * (qe + cut + abs(val) * mpf(2) ** (-quad_prec + 8))

        value = cm + pref * (poly + qsum)
        err = abs(pref) * quad_err + tail_bound + abs(value) * mpf(2) ** (-ctx.prec)
        return LateralResult(value, err, "plus" if sgn == 1 else "minus", x, budget_hit)


def tilde_dirichlet_blocks_reference(tilde, s: int, target, guard: int = 64) -> tuple:
    """(sum_{l=1}^{L} f~(l) l^{-s}, the Abel tail bound) over the head that
    `tilde_dirichlet_blocks` picks for this target: f~ read at the ambient
    precision, as the kernel reads it, then summed term by term in mpf at
    ``guard`` more bits."""
    peak = tilde.partial_sum_peak()
    P = tilde.period
    L = int((2 * peak / mpf(target)) ** (mpf(1) / s)) + 1
    L = P * (L // P + 1)
    table = tilde.table(P)
    with workprec(mp.prec + guard):
        acc = mpf(0)
        for ell in range(1, L + 1):
            v = table[ell % P]
            if v:
                acc += v / mpf(ell) ** s
    return acc, 2 * peak / mpf(L + 1) ** s
