"""Borel transform of the formal series: Taylor data, closed form, singularities.

The transform of sum a_n x^{-n} is a_0 delta + G(p), G(p) = sum_{n>=1} a_n
p^{n-1}/(n-1)!.  For the periodic-function series G has the closed form

    G(p) = (3 pi c / (M^2 b)) sum_{l>=1} l f~(l) / (l^2 pi^2/M^2 - p/b)^{5/2}

with singularities on the ray {b l^2 pi^2 / M^2 : f~(l) != 0}, listed by
singularities(series, count) as (l, position) pairs.  The Taylor
coefficients are also reproduced through the Hadamard factorisation
G = g1 (*) g2 with g2(p) = (1/b) 6 (1 - 4p/b)^{-5/2}, which serves as the
exact oracle for the transform machinery.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mpmath import mp, mpf, mpc

from .exact import FormalSeries, bernoulli_sum
from .precision import (DEFAULT_CTX, FIVE_HALVES, MINUS_FIVE_HALVES, SEVEN_QUARTERS,
                        Estimate, PrecisionContext, to_mpf)
from .resum import TRUNCATION_K_MAX, _truncation, ell_sum, five_halves_binomials


class SingularProximityError(ValueError):
    """p fell within the guard distance of a Borel singularity."""


class BranchCutError(ValueError):
    """p lies on the cut ray beyond the first singularity and no side given."""


def borel_coefficients(series: FormalSeries, count: int):
    """Taylor coefficients of G: coefficient of p^n is a_{n+1}/n!, exact."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if count + 1 > series.count:
        raise ValueError("series holds too few coefficients; recompute with more")
    out = []
    for n in range(count):
        out.append(series.a(n + 1) / Fraction(math.factorial(n)))
    return out


def gfp_coefficients(series: FormalSeries, count: int):
    """Same coefficients from the rearranged double-sum formula.

    coeff(p^n) = M sum_m (-1)^n f(m) B_{2n+4}(m/M) (2n+3)!/((2n+4)! n!(n+1)!)
                 * (M^2/b)^{n+1}
    Kept as an independent code path; must agree with borel_coefficients.
    """
    f = series.f
    M = f.M
    return [f.c * M * (-1) ** n * bernoulli_sum(f.pattern, 2 * n + 4)
            * Fraction(math.factorial(2 * n + 3), math.factorial(2 * n + 4))
            / (Fraction(math.factorial(n)) * math.factorial(n + 1))
            * Fraction(M * M, series.b) ** (n + 1)
            for n in range(count)]


def hadamard_g1_coefficients(series: FormalSeries, count: int):
    """g1 Taylor data: M^3 sum_m f(m) B_{2n+4}(m/M)/(2n+4)! * (-M^2)^n."""
    f = series.f
    M = f.M
    return [f.c * M ** 3 * bernoulli_sum(f.pattern, 2 * n + 4)
            / math.factorial(2 * n + 4) * Fraction(-M * M) ** n
            for n in range(count)]


def hadamard_g2_coefficients(b: int, count: int):
    """g2 Taylor data: (2n+3)!/(n!(n+1)!) b^{-(n+1)}, exact."""
    return [Fraction(math.factorial(2 * n + 3),
                     math.factorial(n) * math.factorial(n + 1)) * Fraction(1, b) ** (n + 1)
            for n in range(count)]


def hadamard_oracle(series: FormalSeries, count: int):
    """Coefficientwise product g1 (*) g2; equals borel_coefficients exactly."""
    if count > 40:
        raise ValueError("hadamard oracle capped at 40 coefficients (cost guard)")
    g1 = hadamard_g1_coefficients(series, count)
    g2 = hadamard_g2_coefficients(series.b, count)
    return [u * v for u, v in zip(g1, g2)]


def singularities(series: FormalSeries, count: int, ctx: PrecisionContext = DEFAULT_CTX):
    """The first count points of the ray {b l^2 pi^2/M^2 : f~(l) != 0}, as
    (l, position) pairs in increasing order.

    Membership uses the support of f~, the exact zeros of its table: a term
    with f~(l) = 0 vanishes identically in the closed form, so no
    singularity can sit there.
    """
    table = series.tilde.table()
    ells, ell = [], 0
    while len(ells) < count:
        ell += 1
        if table(ell):
            ells.append(ell)
    with ctx.working():
        base = mpf(series.b) * mp.pi ** 2 / series.f.M ** 2
        return [(ell, base * ell * ell) for ell in ells]


GUARD_FACTOR = mpf("1e-6")  # p this close to a singularity, relative to the first, is refused


def borel_eval(series: FormalSeries, p, ctx: PrecisionContext = DEFAULT_CTX,
               side: str = None) -> Estimate:
    """Evaluate G(p) away from the singular set.

    The head of the l-sum is evaluated term by term (with the branch side
    applied on the cut); the tail l > L, where |p| is small against the
    branch points, is resummed through K terms of the binomial expansion,
    whose l-sums are Dirichlet sums of f~ in closed form (ell_sum).  (L, K)
    come from resum._truncation; the error is its bound on the rest plus
    roundoff.

    side: 'plus' or 'minus' selects the limit from Im p > 0 or Im p < 0 when
    p lies exactly on the cut ray beyond the first singularity.
    """
    with ctx.working(20):
        p = mpc(p)
        f = series.f
        tilde = series.tilde.table()
        A = mp.pi ** 2 / f.M ** 2
        base = series.b * A
        first = base * series.tilde.first_support ** 2
        # the singular l nearest to sqrt(Re p/base) lies within M of it
        guess = max(1, int(mp.sqrt(max(p.real, 0) / base)))
        gap = min(abs(p - base * ell * ell)
                  for ell in range(max(1, guess - f.M), guess + f.M + 2) if tilde(ell))
        if gap < GUARD_FACTOR * first:
            raise SingularProximityError(
                f"p={p} is within guard distance {GUARD_FACTOR * first} of a singularity")
        on_cut = (p.imag == 0 and p.real > first)
        if on_cut and side not in ("plus", "minus"):
            raise BranchCutError("p sits on the cut ray; pass side='plus' or side='minus'")

        pref = 3 * mp.pi * to_mpf(f.c) / (f.M ** 2 * series.b)

        def term(ell):
            w = A * ell * ell - p / series.b
            if w.imag == 0 and w.real < 0:
                # on the cut: apply the requested side (limit from Im p -> +-0
                # means Im w -> -+0)
                ang = -mp.pi if side == "plus" else mp.pi
                return ell / mp.exp(FIVE_HALVES * (mp.log(abs(w)) + 1j * ang))
            return ell / w ** FIVE_HALVES

        # The head l <= L, L >= L0 = max(1, floor(sqrt(2 rho))), rho = |p|/(b A).
        # Then (L0 + 1)^2 > 2 rho, so r = rho/(L + 1)^2 <= r0 < 1/2, and every l
        # with l^2 < rho, the l whose term sits past its branch point when p is
        # on the cut, is in the head.  Term k of the tail's binomial expansion is
        # at most binom_k r^k A^{-5/2} max|f~|/(3 L^3), binom_k = (5/2)_k/k!, and
        # binom_{k+1} <= 7/4 binom_k for k >= 1, so past K terms the rest is at
        # most c_K L^{-2K-3}, c_K = binom_K rho^K A^{-5/2} max|f~|/(3 (1 - 7 r0/4)).
        rho = abs(p) / (series.b * A)
        L0 = max(1, int(mp.sqrt(2 * rho)))
        c0 = A ** MINUS_FIVE_HALVES * tilde.max_abs() \
            / (3 * (1 - SEVEN_QUARTERS * rho / (L0 + 1) ** 2))
        binom = five_halves_binomials()
        bounds = [(binom[K] * rho ** K * c0, 2 * K + 3) for K in range(1, TRUNCATION_K_MAX + 1)]
        target = ctx.tolerance() * mpf("0.01") + mpf(2) ** (-ctx.prec - 8)
        cut, K = _truncation(tilde, bounds, L0, target / abs(pref), ctx.ell_cap)
        moments = [(4 + 2 * k, binom[k] * (p / series.b) ** k * A ** (MINUS_FIVE_HALVES - k))
                   for k in range(K)]
        return (ell_sum(tilde, cut, term, moments) * pref).rounded(ctx.prec)
