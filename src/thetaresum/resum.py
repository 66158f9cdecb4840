"""Lateral and median Borel-Laplace resummation, and its boundary values.

The lateral sums integrate e^{-px} against the closed-form Borel transform
along rays at angle +-theta.  For l <= L each ray integral is the Laplace
kernel K_eps (an upper incomplete gamma value Gamma(-3/2, .) on the sheet
eps in {0, 1} the side selects); for l > L, K Taylor moments of
(1 - p/(b A_l))^{-5/2} are summed over l as Dirichlet sums of f~ in
closed form and the rest is bounded.  The jump S+ - S- across the positive
axis is an explicit theta series (disc_closed_form).  The median, the
average of the two sides, is the kernel at eps = 1/2; the kernel is affine
in eps, so K_{1/2} = (K_0 + K_1)/2 per l-term, and the moments over l > L
do not depend on the side.  Hence S_med = S- + disc/2 = S+ - disc/2, one
lateral sum on the side whose ray converges and half the jump
(median_sum).  special_e is the same median kernel as a Dawson-integral
function.

At the natural-boundary points x = -1/(2 pi i alpha) the median combines a
vertical theta integral with a theta radial limit (boundary_median).  That
integral, like the Eichler integrals away from their base point, is
vertical_sum: the kernel at exponent -1/2 over a head, Watson moments
beyond it, so no quadrature is left.

These sums, the Borel transform's and the Eichler integrals' share one
shape, written once as ell_sum: a kernel taken term by term over l <= L,
its expansion in l^{-2} as moments sum_{l>L} h(l) l^{-s} over l > L, the
caller's bound on the rest, and the roundoff of both parts in the error.
A moment is the full sum over l >= 1, pi^s times a finite sum of
cotangents at r/P for even s and an even table h of period P, less the
head l <= L.  One tilde_dirichlet call sums all of a sum's moments, at
one precision with the guard bits that subtraction cancels, and returns
them with one error bar.  The sum's cut (L, bound, budget flag) comes
from one chooser (_truncation, which also picks K), or from
qseries._gauss_cutoff for the Gaussian-tailed theta heads, and ell_sum
returns its sum already flagged; each public sum then combines such
estimates by Estimate arithmetic.  All fractional powers are principal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

from mpmath import mp, mpf, mpc, workprec

from .exact import FormalSeries, bernoulli_number
from .precision import (DEFAULT_CTX, FIVE_HALVES, HALF, MINUS_FIVE_HALVES, MINUS_HALF,
                        MINUS_THREE_HALVES, THREE_HALVES, Estimate,
                        PrecisionContext, as_fraction, frac_to_mp, to_mpf)
from .qseries import DomainError, ThetaSpec, theta_radial_limit, theta_upper_half


# ---------------------------------------------------------------------------
# The Laplace kernel shared by the lateral, median and boundary sums.

# laplace_kernel's crossover at s = -1/2 and real positive w: the erfc route
# below it, the continued fraction (_minus_half_cf) from it on.  Timed per
# call (pure-Python mpmath 1.3.0, 2-vCPU VM) at the bits an Eichler head
# term gets, prec + 20 - 1.44 w at prec = 168 and 296: the fraction takes
# 0.14-0.39 ms at w = 10, 0.06-0.19 ms at 20 and 0.03-0.10 ms at 40, the
# erfc route 0.09-0.13, 0.12-0.15 and 0.14-0.18 ms.  The 256-bit chi(2,3)
# Eichler integrals take the same time at X0 = 15, 20 and 25.
KERNEL_CF_X0 = 20


def _minus_half_cf(x) -> mpf:
    """F(x) = e^x x^{1/2} Gamma(-1/2, x) = int_0^inf e^{-xt} (1 + t)^{-3/2} dt,
    x >= 1, within 2^{2-prec} relative, by Legendre's continued fraction
    (DLMF 8.9.2 at a = -1/2, its levels with denominator 1 scaled by 2):

        F(x) = 1/(x + 3/(2 + 2/(x + 5/(2 + 4/(x + 7/(2 + ...)))))),

    partial numerators a_1 = 1, a_k = k + 1 (k even), k - 1 (k odd > 1),
    denominators b_k = x (k odd), 2 (k even).  The approximants f_k =
    A_k/B_k come from A_k = b_k A_{k-1} + a_k A_{k-2}, likewise B_k, in
    fixed point with Python ints, W = prec + 20 fractional bits.

    All a_k and b_k are positive, so A_k, B_k > 0 grow with k and F lies
    between f_{k-1} and f_k: the computed bracket bounds the truncation.
    x enters as x' = floor(x 2^W) 2^-W; 0 <= -x F'(x) <= F(x) (integrate
    by parts in t), so that moves F by at most 2^-W relative.  For x >= 1,
    A_{k-1} <= A_k, and A_j <= B_j as f_j <= f_1 = 1/x, so A_{k-1} is the
    least of the four integers; once it passes 2^{W+40} all four are
    shifted right together to W + 8 bits, so every floor (of x' A, x' B
    or a shift) cuts an integer of at least 2^{W+7} by under 2^{-W-7}
    relative.  A sum of positive terms keeps the larger relative error of
    its parts, so after k steps A_k and B_k are within k 2^{-W-6} of a
    common multiple of the exact ones.  The loop stops at an even k once
    the computed bracket |f_k - f_{k-1}| is at most 2^-W f_k; F is then
    within (2 + k/8) 2^-W F of f_k, and within 2^-prec F for k < 2^16,
    and the quotient's rounding to prec bits adds 2^{1-prec}.
    """
    W = mp.prec + 20
    man, exp = x.man, x.exp
    X = man << (exp + W) if exp + W >= 0 else man >> -(exp + W)
    one = 1 << (W + 8)
    A0, A1, B0, B1 = one, 0, 0, one    # A_{k-2}, A_{k-1}, B_{k-2}, B_{k-1}
    k = 0
    while True:
        k += 2
        a = k - 2 or 1                  # step k - 1: b = x
        A0, A1 = A1, (X * A1 >> W) + a * A0
        B0, B1 = B1, (X * B1 >> W) + a * B0
        a = k + 1                       # step k: b = 2
        A0, A1 = A1, 2 * A1 + a * A0
        B0, B1 = B1, 2 * B1 + a * B0
        shift = A0.bit_length() - W - 8
        if shift > 32:
            A0, A1, B0, B1 = A0 >> shift, A1 >> shift, B0 >> shift, B1 >> shift
        if k % 8 == 0 and abs(A1 * B0 - A0 * B1) << W <= A1 * B0:
            return mpf(A1) / B1


def laplace_kernel(z, eps, s=MINUS_THREE_HALVES):
    """K^{(s)}_eps(z) = -e^{-z} w^{-s} [Gamma(s, w) - 2 eps Gamma(s)], w = -z.

    s is -3/2 (the default) or -1/2; w and w^{-s} are principal,
    Gamma(-3/2) = 4 sqrt(pi)/3 and Gamma(-1/2) = -2 sqrt(pi).  At s = -3/2
    the lateral sums use eps in {0, 1}, the sheet of Gamma(-3/2, .) a side
    lands on (see _ray_laplace); their average, eps = 1/2, is the median.
    With the lower gamma Gamma(a) - Gamma(a, w) = gamma(a, w) =
    w^a sum_k (-w)^k/(k!(a + k)),

        K^{(-3/2)}_{1/2}(z) = e^{-z} w^{3/2} gamma(-3/2, w)

    is entire in z: w^{3/2} cancels the w^{-3/2} of the lower gamma, so the
    branch of w drops out.  boundary_median takes s = -1/2, eps = 0 on the
    imaginary axis, where w is off the cut, by mp.gammainc.  The Eichler
    integrals take it at real positive w, where K^{(-1/2)}_0(-w) = -e^w
    w^{1/2} Gamma(-1/2, w) has two routes: for w >= KERNEL_CF_X0 it is
    -_minus_half_cf(w), a continued fraction in fixed point; below,
    Gamma(-1/2, w) = 2 w^{-1/2} e^{-w} - 2 sqrt(pi) erfc(sqrt(w)), which
    cancels about log2(2w) bits, taken as guard bits.  mp.erfc sums
    1 - erf by a Taylor series with about 1.44 w more bits, which is what
    makes it the dearer route past the crossover.
    """
    w = -z
    if s == MINUS_HALF and not eps and not mp.im(w) and mp.re(w) > 0:
        w = mp.re(w)
        if w >= KERNEL_CF_X0:
            return -_minus_half_cf(w)
        with workprec(mp.prec + max(0, mp.mag(2 * w)) + 10):
            r = mp.sqrt(w)
            g = 2 * mp.exp(-w) / r - 2 * mp.sqrt(mp.pi) * mp.erfc(r)
    else:
        g = mp.gammainc(s, w)
        if eps:
            g -= (8 * eps * mp.sqrt(mp.pi) / 3 if s == MINUS_THREE_HALVES
                  else -4 * eps * mp.sqrt(mp.pi))
    return -mp.exp(-z) * w ** -s * g


def special_e(y, ctx: PrecisionContext = DEFAULT_CTX):
    """E(y) = (2 y^3 D(y) - y^2)/sqrt(pi) = (2 + 3 K_{1/2}(y^2))/(4 sqrt(pi)).

    D(y) = e^{-y^2} int_0^y e^{t^2} dt is the Dawson integral.  Reduction:
    with w = -y^2 and w^{1/2} = iy (K_{1/2} is entire, so any consistent
    branch will do), gamma(1/2, w) = sqrt(pi) erf(iy) = 2i e^{y^2} D(y), and
    the recurrence gamma(a + 1, w) = a gamma(a, w) - w^a e^{-w} taken down
    twice gives gamma(-3/2, w) = -(2/3) e^{y^2} (2i/y - 4i D(y) + i/y^3).
    Multiplied by e^{-z} w^{3/2} = -i y^3 e^{-y^2}, this is
    K_{1/2}(y^2) = (2/3)(4 y^3 D(y) - 2 y^2 - 1), i.e. 2 + 3 K = 4 sqrt(pi) E.
    Near y = 0, 2 + 3 K cancels about log2(1/|y|^2) bits, which are added as
    guard bits.  E is real on the real axis, and is returned real there.
    """
    with ctx.working():
        y = mpc(y)
        if y == 0:
            return mpc(0)
        with workprec(mp.prec + max(0, 2 - 2 * mp.mag(y))):
            val = (2 + 3 * laplace_kernel(y * y, HALF)) / (4 * mp.sqrt(mp.pi))
        return mpc(val) if y.imag else mpc(val.real)


# ---------------------------------------------------------------------------
# Shared l-sum helpers.

@lru_cache(maxsize=None)
def _cot_derivative(m: int) -> tuple:
    """Integer coefficients of D_m in u, d^m/dy^m cot y = D_m(cot y):
    D_0 = u, D_{m+1} = -(1 + u^2) D_m'."""
    if m == 0:
        return (0, 1)
    dp = [k * a for k, a in enumerate(_cot_derivative(m - 1))][1:] + [0, 0]
    return tuple(-dp[k] - (dp[k - 2] if k >= 2 else 0) for k in range(len(dp)))


def _cot_moments(table, wp: int, count: int) -> tuple:
    """(mu, max |h|): mu_j = sum_{0<r<=P/2} w_r h(r) cot^{2j}(pi r/P), j < count, at wp bits.

    w_r = 1, or 1/2 at r = P/2.  Kept on the table per wp and extended on
    demand, so every moment of one sum reads the same mu_j, and the values
    do not depend on which moments were asked for first.  Raises ValueError
    unless h(P - r) = h(r) bit for bit.
    """
    entries = table.__dict__.setdefault("cot_moments", {})
    if wp not in entries:
        P = len(table)
        if any(table[r] != table[P - r] for r in range(1, P)):
            raise ValueError("tilde_dirichlet needs an exactly even table, h(P - r) = h(r)")
        with workprec(wp):
            rs = [r for r in range(1, P // 2 + 1) if table[r]]
            cot2 = [mp.cot(mp.pi * r / P) ** 2 if 2 * r < P else mpf(0) for r in rs]
            power = [table[r] if 2 * r < P else table[r] / 2 for r in rs]
            hmax = max(abs(table[r]) for r in [0] + rs)
        entries[wp] = (cot2, power, [], hmax)
    cot2, power, mu, hmax = entries[wp]
    with workprec(wp):
        while len(mu) < count:
            if mu:
                power[:] = [p * c for p, c in zip(power, cot2)]
            mu.append(mp.fsum(power))
    return mu, hmax


def tilde_dirichlet(table, moments, start: int = 0) -> Estimate:
    """sum_k c_k sum_{l>start} h(l) l^{-s_k} for an exactly even PeriodicTable h.

    moments is a list of (s_k, c_k), each s_k even and >= 2.  h is f~ over
    its minimal period (a divisor of M) or a twisted table, P = len(h).
    Pairing r with P - r, sum_{n in Z} (x + n)^{-s} = -pi^s D_{s-1}(cot pi
    x)/(s-1)! (the (s-1)-th derivative of pi cot pi x = sum_n 1/(x + n),
    DLMF 4.22.3) gives the full sum

        sum_{l>=1} h(l) l^{-s} = P^{-s} [h(0) zeta(s)
            - pi^s/(s-1)! sum_{0<r<=P/2} w_r h(r) D_{s-1}(cot pi r/P)],

    with w_r = 1, or 1/2 at r = P/2, and zeta(s) from the exact B_s.
    D_{s-1} is even, sum_j d_j u^{2j}, so the r-sum is sum_j d_j mu_j over
    the mu_j of _cot_moments.  A moment's tail past start is its full sum
    less the head l <= start.

    Error: let p be the current precision, l1 the least l > start with
    h(l) != 0, hmax = max |h|, S = max_k s_k and T_k = l1^{-s_k} +
    l1^{1-s_k}/(s_k - 1).  Every moment is summed at one wp = p +
    bitlen(l1^S) + bitlen(4 N) bits (rounded up to a multiple of 64), N =
    10 S + P + start + 20, from one table of mu_j.  The roundoff of a tail
    is at most N 2^-wp times the sum of the sizes of its terms, which is at
    most 2 sum_l |h(l)| l^{-s} <= 2 zeta(2) hmax < 4 hmax: the argument r/P,
    pi and cot shift a term by at most s ulps each (x d/dx sum_n |x +
    n|^{-s} <= s sum_n |x + n|^{-s} for x <= 1/2, and u D'(u) <= s D(u)
    since D has coefficients of one sign), the powers of cot^2 by s/2, the
    r-sum by P/2, the j-sum by s/2, pi^s/(s-1)!, P^{-s} and zeta(s) by 2s +
    8, the head by start + 4.  So tail k is within hmax l1^{-S} 2^-p <=
    hmax l1^{-s_k} 2^-p of its sum, and it is at most hmax T_k.  The
    products by c_k and their sum, at wp, add at most 2^{1-wp} hmax sum_k
    |c_k| T_k, and the final rounding to p bits 2^-p times that sum; the
    factors 1 + O(2^-p) of these terms are within the gap between 2 zeta(2)
    and 4.  So the result is within

        2^{1-p} (1 + 2^{p-wp}) hmax sum_k |c_k| T_k

    of the sum for the table's values, the error returned with it (0 for a
    table that vanishes past start).  Raises ValueError for an odd s_k.
    """
    if any(s < 2 or s % 2 for s, _ in moments):
        raise ValueError(f"tilde_dirichlet needs even s >= 2, got {[s for s, _ in moments]}")
    P = len(table)
    l1 = next((ell for ell in range(start + 1, start + P + 1) if table(ell)), None)
    if l1 is None:
        return Estimate(mpf(0), mpf(0))
    top = max(s for s, _ in moments)
    guard = (l1 ** top).bit_length() + (4 * (10 * top + P + start + 20)).bit_length()
    wp = -(-(mp.prec + guard) // 64) * 64
    mu, hmax = _cot_moments(table, wp, top // 2 + 1)
    size = hmax * mp.fsum(abs(c) * (mpf(l1) ** -s + mpf(l1) ** (1 - s) / (s - 1))
                          for s, c in moments)
    error = mpf(2) ** (1 - mp.prec) * (1 + mpf(2) ** (mp.prec - wp)) * size
    with workprec(wp):
        terms = []
        for s, c in moments:
            rsum = mp.fsum(dj * mj for dj, mj in zip(_cot_derivative(s - 1)[::2], mu))
            full = -mp.pi ** s / math.factorial(s - 1) * rsum
            if table[0]:
                full += table[0] * abs(frac_to_mp(bernoulli_number(s))) * (2 * mp.pi) ** s \
                    / (2 * math.factorial(s))
            full /= mpf(P) ** s
            head = mp.fsum(table(ell) / mpf(ell ** s) for ell in range(1, start + 1)
                           if table(ell))
            terms.append(c * (full - head))
        total = mp.fsum(terms)
    return Estimate(+total, error)


def ell_sum(table, cut, term, moments) -> Estimate:
    """sum_{l<=L} h(l) term(l) + sum_k c_k sum_{l>L} h(l) l^{-s_k}, with its error.

    The one l-sum of the Borel, lateral and boundary sums (h = f~, read
    over one period) and of the Eichler integrals (h a twisted table), h a
    periodic.PeriodicTable of period P: a kernel taken term by term over
    the head l <= L (L >= 1), the first terms of its expansion in l^{-2} as
    moments (s_k, c_k) over l > L, summed in one tilde_dirichlet call with
    its error.  cut = (L, bound, exhausted), as _truncation or
    qseries._gauss_cutoff return it: bound is the caller's bound on the
    rest, and exhausted becomes the budget flag.  The head's roundoff,
    with its share of the rounding when the moments are added, is counted
    as sum |h(l) term(l)| 2^{8-prec}; the moments' share is 2^-prec times
    their sum.  The error is bound plus these and the moments' error.
    """
    L, bound, exhausted = cut
    head = mpc(0)
    size = mpf(0)
    for ell in range(1, L + 1):
        tv = table(ell)
        if tv:
            t = tv * term(ell)
            head += t
            size += abs(t)
    est = Estimate(head, bound + size * mpf(2) ** (8 - mp.prec), exhausted)
    return est + tilde_dirichlet(table, moments, L).rounded(mp.prec) if moments else est


# _truncation's price of a moment, per nonzero residue of the period, in head
# kernel calls, and the most moments it takes.  The price is the measured
# cost: timed in place (pure-Python mpmath 1.3.0, 2-vCPU VM; lateral sums at
# x = 1 and boundary medians at alpha = 1/2 on trefoil-chi, t3-2k(3) and
# t3-2k(5), at 128 and 256 bits), a moment costs 0.03 to 0.22 kernel calls per
# nonzero residue, about 0.1, so the cuts take short heads and many moments.
MOMENT_COST = 0.1
TRUNCATION_K_MAX = 40


def _truncation(table, bounds, floor: int, target, ell_cap: int):
    """The cheapest cut (L, bound, budget_exhausted) for an ell_sum, and its K.

    bounds[K-1] = (c_K, e_K): the rest after l <= L and K moments is at most
    c_K L^{-e_K}.  Each K takes the least L >= floor meeting the target, at
    a cost of L nnz/P kernels and K nnz moment terms at MOMENT_COST kernels
    each (nnz = #{r < P: h(r) != 0}, P = len(table)); the cheapest wins,
    the fewer moments on a tie.
    Failing that, L = cap with the K of least bound there, cap = max(floor,
    ell_cap): the bounds need L >= floor, so no cap cuts the head below it.
    The scan over K stops once K nnz moment terms alone cost as much as the
    cheapest cut so far: L >= 1, so no larger K can win, not even on a tie.
    """
    P = len(table)
    nnz = sum(1 for v in table if v)
    cap = max(floor, ell_cap)
    best = None
    for K, (c, e) in enumerate(bounds, 1):
        if best and MOMENT_COST * K * nnz >= best[0]:
            break
        L = max(floor, int(mp.ceil((c / target) ** (mpf(1) / e))))
        cost = L * nnz / P + MOMENT_COST * K * nnz
        if L <= cap and (best is None or cost < best[0]):
            best = (cost, K, L)
    if best:
        _, K, L = best
        c, e = bounds[K - 1]
        return (L, c / mpf(L) ** e, False), K
    bound, K = min((c / mpf(cap) ** e, K) for K, (c, e) in enumerate(bounds, 1))
    return (cap, bound, True), K


BLOCK_ELL_CAP = 10_000_000  # most terms tilde_dirichlet_blocks will sum


def tilde_dirichlet_blocks(table, s: int, target) -> Estimate:
    """Direct period-grouped summation of sum h(l) l^{-s} with an Abel bound.

    Not used by the library, which sums h(l) l^{-s} in closed form
    (tilde_dirichlet): the tests compare it with that sum and with a
    plain loop, and the benchmark's tracer names it.

    h is a mean-zero PeriodicTable (f~ in the constant identity), so its
    partial sums are periodic and the tail after a whole number of periods
    is bounded by 2 max_n |F(n)| (L+1)^{-s} (partial_sum_peak).  The head is
    summed per residue r mod P in fixed point: sum_{l = r mod P} floor(2^wp
    / l^s) in exact integers, with wp = prec + bit_length(L) + 10, so the L
    truncations cost at most L max|h| 2^-wp.  The n residue sums are then
    rounded, scaled by h(r) 2^-wp and added in mpf, which costs at most
    (n + 2) units of the sum of their sizes.
    """
    peak = table.partial_sum_peak()
    P = len(table)
    L = int((2 * peak / mpf(target)) ** (mpf(1) / s)) + 1
    L = P * (L // P + 1)
    if L > BLOCK_ELL_CAP:
        raise DomainError(f"block summation needs {L} terms, beyond the cap")
    wp = mp.prec + L.bit_length() + 10
    one = 1 << wp
    acc = mpf(0)
    size = mpf(0)
    n = 0
    for r in range(1, P + 1):
        v = table(r)
        if v:
            block = v * mp.ldexp(sum(one // ell ** s for ell in range(r, L + 1, P)), -wp)
            acc += block
            size += abs(block)
            n += 1
    roundoff = L * table.max_abs() * mp.ldexp(1, -wp) + (n + 2) * size * mp.ldexp(1, -mp.prec)
    return Estimate(acc, 2 * peak / mpf(L + 1) ** s + roundoff)


# ---------------------------------------------------------------------------
# Lateral Borel sums.

def five_halves_binomials() -> list:
    """beta_j = (5/2)_j/j!, j <= TRUNCATION_K_MAX, at the current precision:
    the coefficients of (1 - w)^{-5/2} = sum_j beta_j w^j."""
    beta = [mpf(1)]
    for j in range(TRUNCATION_K_MAX):
        beta.append(beta[-1] * (FIVE_HALVES + j) / (j + 1))
    return beta


RAY_ANGLE = Fraction(1, 4)  # theta/pi; lateral_sum's bound needs |1 - tw| >= sin(theta)


def _ray_laplace(Ab, x, sgn: int):
    """int_0^{inf e^{i sgn theta}} e^{-px} (1 - p/Ab)^{-5/2} dp in closed form.

    With z = Ab x, w = -z (principal) and epsilon in {0, 1}:

        = Ab K_epsilon(z) = -Ab e^{-z} w^{3/2} [Gamma(-3/2, w) - 2 epsilon Gamma(-3/2)],

    epsilon = 1 exactly when arg z + sgn pi leaves (-pi, pi], i.e. for
    sgn = +1 with arg z > 0 or sgn = -1 with arg z <= 0; Gamma(-3/2) =
    4 sqrt(pi)/3.

    Derivation: p = Ab (1 + v/z) maps the ray to a path from v = w to
    infinity, e^{-px} dp = (Ab/z) e^{-z} e^{-v} dv and
    (1 - p/Ab)^{-5/2} = (v/w)^{-5/2}, so the integral is
    -Ab e^{-z} w^{3/2} Gamma(-3/2, w) once w is given the argument that
    makes w^{5/2} v^{-5/2} the principal (1 - p/Ab)^{-5/2} all along the
    path.  Far out, v ~ x p has arg v = arg x + sgn theta in (-pi/2, pi/2)
    (Re(e^{i sgn theta} x) > 0), where Gamma's v^{-5/2} is principal, while
    1 - p/Ab ~ -p/Ab has arg sgn theta - sgn pi.  So arg w = arg z + sgn pi
    (arg z = arg x, since Ab > 0).  When this lies in (-pi, pi] it is the
    principal sheet (epsilon = 0).  Otherwise the sheet is w e^{2 pi i k}
    with k = sgn, and DLMF 8.2.10,
    Gamma(a, w e^{2 pi i k}) = e^{2 pi i k a} Gamma(a, w)
    + (1 - e^{2 pi i k a}) Gamma(a), gives for a = -3/2 (where e^{2 pi i k a}
    = -1 for both k = +-1) Gamma(a, w) -> -Gamma(a, w) + 2 Gamma(a), while
    w^{3/2} -> -w^{3/2}; the product is w^{3/2} [Gamma(a, w) - 2 Gamma(a)].
    The term 2 epsilon Gamma(-3/2) Ab e^{-z} w^{3/2} is the l-th term of the
    Stokes jump, so S+ - S- reproduces the theta series of disc_closed_form.
    """
    z = Ab * x
    return Ab * laplace_kernel(z, 1 if (mp.arg(z) > 0) == (sgn == 1) else 0)


def lateral_sum(series: FormalSeries, x, side: str,
                ctx: PrecisionContext = DEFAULT_CTX) -> Estimate:
    """S^side(x): ray Laplace integral of the Borel transform at angle +-theta.

    Decomposition per l-term (A_l = l^2 pi^2/M^2):

      int e^{-px} (A_l - p/b)^{-5/2} dp
        = A_l^{-5/2} [ sum_{j<K} beta_j (A_l b)^{-j} j!/x^{j+1}
                       + int e^{-px} R_K(p/(A_l b)) dp ],

    with beta_j = (5/2)_j/j! and R_K(w) = (1-w)^{-5/2} - sum_{j<K} beta_j w^j.
    For l <= L the ray integral is taken whole, in closed form
    (_ray_laplace); for l > L the K moments are Dirichlet sums of f~
    (ell_sum) and the rest is bounded: |1 - tw| >= 1/sqrt2 on the rays, so
    |R_K(w)| <= beta_K 2^{(K+5/2)/2} |w|^K; the ray integral of |p|^K is
    K!/sig^{K+1} (sig = Re e^{+-i theta} x); sum_{l>L} l^{-2K-4} <=
    L^{-2K-3}/(2K+3).  (L, K) come from _truncation.  The error is that
    bound plus roundoff.
    """
    if side not in ("plus", "minus"):
        raise ValueError("side must be 'plus' or 'minus'")
    sgn = 1 if side == "plus" else -1
    with ctx.working(20):
        x = mpc(x)
        if x.real == 0:
            raise DomainError("x must not lie on the imaginary axis")
        sig = (mp.exp(1j * sgn * mp.pi * frac_to_mp(RAY_ANGLE)) * x).real
        if sig <= 0:
            raise DomainError(
                f"Re(e^{{{sgn:+d}i theta}} x) = {sig} <= 0; ray integral diverges")

        tilde, b, M = series.tilde.table(), series.b, series.f.M
        pref = 3 * mp.pi * to_mpf(series.f.c) / (M ** 2 * b)
        Apref = mp.pi ** 2 / M ** 2
        m2pi2 = mpf(M * M) / mp.pi ** 2

        # beta_j, and for each K the bound c_K L^{-(2K+3)} on the rest
        beta = five_halves_binomials()
        hmax = tilde.max_abs()
        bounds = [(hmax * beta[K] * mpf(2) ** ((K + FIVE_HALVES) / 2) * mp.factorial(K)
                   * m2pi2 ** (K + FIVE_HALVES) / (sig ** (K + 1) * mpf(b) ** K * (2 * K + 3)),
                   2 * K + 3) for K in range(1, TRUNCATION_K_MAX + 1)]
        target = ctx.tolerance() * mpf("0.1") + mpf(2) ** (-ctx.prec)
        cut, K = _truncation(
            tilde, bounds, max(6, series.tilde.first_support), target / abs(pref), ctx.ell_cap)

        # the head l <= L in closed form, K moments over l > L
        moments = [(4 + 2 * j, beta[j] * mpf(b) ** (-j) * mp.factorial(j) / x ** (j + 1)
                    * m2pi2 ** (FIVE_HALVES + j)) for j in range(K)]
        est = ell_sum(tilde, cut, lambda ell: ell * (Apref * ell * ell) ** MINUS_FIVE_HALVES
                      * _ray_laplace(Apref * ell * ell * b, x, sgn), moments)
        return (est * pref + to_mpf(series.c_m)).rounded(ctx.prec)


# ---------------------------------------------------------------------------
# Stokes discontinuity, and the median as a lateral sum and half the jump.

@dataclass(frozen=True)
class DiscontinuityResult:
    numeric: Estimate
    closed_form: Estimate
    x: mpc


def disc_closed_form(series: FormalSeries, x, ctx: PrecisionContext = DEFAULT_CTX) -> Estimate:
    """2i (2 b pi x)^{3/2} (sqrt2 c/M^2) sum_l l f~(l) e^{-l^2 pi^2 b x / M^2}.

    The sum is theta^{(1)}_{0,4M^2,f~}(2 pi i b x), the nu = 1 partial theta
    of f~ with modulus 4M^2, summed by theta_upper_half with its Gaussian
    tail bound; boundary_median takes the radial limit of the same series.
    """
    with ctx.working(20):
        x = mpc(x)
        if x.real <= 0:
            raise DomainError("closed-form jump needs Re x > 0")
        M, b = series.f.M, series.b
        pref = 2j * (2 * b * mp.pi * x) ** THREE_HALVES * mp.sqrt(2) * to_mpf(series.f.c) / M ** 2
        theta = theta_upper_half(ThetaSpec(a=0, b=4 * M * M, nu=1, f=series.tilde),
                                 2j * mp.pi * b * x, ctx)
        return (theta * pref).rounded(ctx.prec)


def discontinuity(series: FormalSeries, x,
                  ctx: PrecisionContext = DEFAULT_CTX) -> DiscontinuityResult:
    """S+ - S- from the two closed-form lateral sums vs. the explicit theta series."""
    with ctx.working(20):
        x = mpc(x)
        plus = lateral_sum(series, x, "plus", ctx)
        minus = lateral_sum(series, x, "minus", ctx)
        return DiscontinuityResult(plus + minus * -1, disc_closed_form(series, x, ctx), x)


def median_sum(series: FormalSeries, x, ctx: PrecisionContext = DEFAULT_CTX) -> Estimate:
    """S_med(x) on Re x > 0: one lateral sum and half the Stokes jump.

    The median kernel is laplace_kernel at eps = 1/2, and the kernel is
    affine in eps, so per l-term K_{1/2} = (K_0 + K_1)/2, the average of the
    two sides' terms (_ray_laplace).  The moments over l > L expand
    (1 - p/(b A_l))^{-5/2}, the same on both rays, so they are the median's
    too.  Hence S_med = (S+ + S-)/2 = S- + disc/2 = S+ - disc/2, with
    disc = S+ - S- the theta series of disc_closed_form.

    Side rule: minus with + disc/2 for arg x >= 0, plus with - disc/2
    otherwise; only the chosen side's ray converges once |arg x| > pi/4.
    On the real axis S- = conj S+ (Schwarz reflection), so the median is
    real and its real part is returned.
    """
    with ctx.working(20):
        x = mpc(x)
        if x.real <= 0:
            raise DomainError("median sum defined on Re x > 0")
        side, sgn = ("minus", 1) if x.imag >= 0 else ("plus", -1)
        lat = lateral_sum(series, x, side, ctx)
        jump = disc_closed_form(series, x, ctx)
        est = lat + jump * (sgn * HALF)
        if x.imag == 0:
            est = replace(est, value=mpc(est.value.real))
        return est.rounded(ctx.prec)


# ---------------------------------------------------------------------------
# The vertical-ray sum, and boundary median values.

def vertical_sum(table, lam1, c, target, ell_cap: int) -> Estimate:
    """sum_{l>=1} h(l) J(lam1 l^2), J(lambda) = int_0^inf e^{-lambda w} (w + c)^{-3/2} dw.

    The vertical-ray integral of sum h(l) e^{-lambda_l w}, for Re c >= 0,
    c != 0: boundary_median's (h = f~) and the Eichler integrals' away
    from their base point (h a twisted table).  t =
    lambda (w + c) runs horizontally in Re t >= 0 from lambda c, off the
    cut, so J(lambda) = e^{lambda c} lambda^{1/2} Gamma(-1/2, lambda c) =
    -c^{-1/2} K^{(-1/2)}_0(-lambda c) (laplace_kernel), taken for l <= N0.
    For l > N0, Watson's lemma on (1 + w/c)^{-3/2}:

        J(lambda) = c^{-3/2} sum_{k<K} (-1)^k (3/2)_k c^{-k} lambda^{-k-1} + R_K,
        |R_K| <= |c|^{-3/2-K} (3/2)_K lambda^{-K-1},

    since |1 + u w/c| >= 1 for w >= 0, 0 <= u <= 1 and Re c >= 0, so the
    Taylor remainder of (1 + x)^{-3/2} is at most |C(-3/2, K) x^K|.  The
    moments are sums of h(l) l^{-2k-2} over l > N0 (ell_sum); the rest,
    summed over l > N0, is at most hmax |c|^{-3/2-K} (3/2)_K lam1^{-K-1}
    N0^{-2K-1}/(2K+1).  (N0, K) come from _truncation.
    """
    bounds, moments = [], []
    coef = table.max_abs() * abs(c) ** MINUS_THREE_HALVES / lam1    # K = 0
    mk = c ** MINUS_THREE_HALVES / lam1
    for K in range(1, TRUNCATION_K_MAX + 1):
        moments.append((2 * K, mk))
        mk *= -(K + HALF) / (c * lam1)
        coef *= (K + HALF) / (abs(c) * lam1)
        bounds.append((coef / (2 * K + 1), 2 * K + 1))
    cut, K = _truncation(table, bounds, 1, target, ell_cap)
    root = -c ** MINUS_HALF
    return ell_sum(table, cut, lambda ell: root * laplace_kernel(
        -lam1 * ell * ell * c, 0, MINUS_HALF), moments[:K])


def boundary_median(series: FormalSeries, alpha,
                    ctx: PrecisionContext = DEFAULT_CTX) -> Estimate:
    """S_med at the boundary point x = -1/(2 pi i alpha), nonzero rational alpha.

        S_med = (c b / (M pi (i alpha)^{3/2})) sum_l f~(l) J(lambda_l; -i/alpha)
              + (b/(i alpha))^{3/2} (sqrt2 c / M^2) theta1_{0,4M^2,f~}(-b/alpha),

    all powers principal, lambda_l = pi b l^2/(2 M^2) and J(lambda; c) the
    l-term of vertical_sum.  The vertical theta integral's l-term is
    int_0^inf i e^{-lambda v} (a + iv)^{-3/2} dv, a = 1/alpha, and
    a + iv = i (v + c) with c = -ia, arg(v + c) + pi/2 in (-pi, pi], so
    that term is i^{-1/2} J(lambda; c), and i^{-1/2} cancels the e^{i pi/4}
    of the first prefactor.  vertical_sum brings its rest below 2^-prec.
    """
    alpha = as_fraction(alpha)
    if alpha == 0:
        raise DomainError("alpha must be a nonzero rational")
    with ctx.working(20):
        tilde, b, M = series.tilde, series.b, series.f.M
        c = to_mpf(series.f.c)
        t1_pref = c * b / (M * mp.pi * mpc(0, frac_to_mp(alpha)) ** THREE_HALVES)
        est = vertical_sum(tilde.table(), mp.pi * b / (2 * M ** 2), mpc(0, -1 / frac_to_mp(alpha)),
                           mpf(2) ** (-ctx.prec) / abs(t1_pref), ctx.ell_cap)
        theta1 = theta_radial_limit(ThetaSpec(a=0, b=4 * M * M, nu=1, f=tilde),
                                    Fraction(-b, 1) / alpha, ctx)
        t2_pref = (mpf(b) / mpc(0, frac_to_mp(alpha))) ** THREE_HALVES * mp.sqrt(2) * c / M ** 2
        return (est * t1_pref + theta1 * t2_pref).rounded(ctx.prec)


def boundary_point(alpha) -> mpc:
    """The boundary point x = -1/(2 pi i alpha) = i/(2 pi alpha)."""
    alpha = as_fraction(alpha)
    return mpc(0, 1) / (2 * mp.pi * frac_to_mp(alpha))
