"""Independent reference values and the comparison of each check.

Nothing here imports thetaresum.  The families are rebuilt from their
definitions (config.py's docstring), f~ from its sine product, radial limits
from the twisted coefficients over a safe period with mpmath's bernpoly, the
Kontsevich-Zagier values from the plain product, and the asymptotic series
from L-values.  Each check allows the program's claimed error bars plus a
tolerance pinned here; sides are compared at the workload precision plus
64 bits, never after rounding to doubles.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mpmath import mp, mpc, mpf, workprec

GUARD = 64
# pinned tolerance, relative to max(1, |reference|): 2^-(prec - PIN_SLACK)
PIN_SLACK = 56
# known fault: qseries.eichler_integral with a rational base point (gap
# 8.3e-4 against a claimed error of 2.8e-4 at 256 bits)
KNOWN_FAULTS = frozenset({"eichler chi(2,3,1,1) alpha=1/2"})


# ---------------------------------------------------------------------------
# Families from their definitions.

def family(spec) -> tuple:
    """(c, M, k1, k2, a, b): +c on n = +-k1, -c on n = +-k2 mod M."""
    name, *args = spec
    if name == "chi":
        s, t, n, m = args
        return Fraction(1), 2 * s * t, n * t - m * s, n * t + m * s, 0, 4 * s * t
    if name == "trefoil":
        return family(["hikami", 1, 0])
    if name == "hikami":
        u, ell = args
        _, M, k1, k2, _, _ = family(["chi", 2, 2 * u + 1, 1, ell + 1])
        return Fraction(-1, 2), M, k1, k2, (2 * u - 2 * ell - 1) ** 2, 2 * (8 * u + 4)
    if name == "t3-2k":
        (k,) = args
        _, M, k1, k2, _, _ = family(["chi", 3, 2 ** k, 2, 1])
        return Fraction(-1, 2), M, k1, k2, (2 ** (k + 1) - 3) ** 2, 3 * 2 ** (k + 2)
    raise ValueError(f"unknown family {spec!r}")


def sign(n: int, M: int, k1: int, k2: int) -> int:
    r = n % M
    if r in (k1 % M, -k1 % M):
        return 1
    if r in (k2 % M, -k2 % M):
        return -1
    return 0


def _mp(q: Fraction) -> mpf:
    return mpf(q.numerator) / q.denominator


def tilde(ell: int, M: int, k1: int, k2: int) -> mpf:
    """f~(l) = (-1)^l sin((k2-k1) l pi/M) sin((M-k1-k2) l pi/M)."""
    s1 = mp.sinpi(_mp(Fraction((k2 - k1) * ell, M) % 2))
    s2 = mp.sinpi(_mp(Fraction((M - k1 - k2) * ell, M) % 2))
    return (-1) ** ell * s1 * s2


# ---------------------------------------------------------------------------
# Reference values (call inside workprec).

def radial_limit(spec, alpha: Fraction, a=None) -> mpc:
    """lim theta^(1)_{a,b,f} at alpha = L(-1, h) = -(P/2) sum h(m) B_2(m/P),
    h(n) = f(n) e^{2 pi i alpha (n^2 - a)/b}, P = lcm(M, den(alpha) b)."""
    c, M, k1, k2, a_fam, b = family(spec)
    a = a_fam if a is None else a
    P = math.lcm(M, alpha.denominator * b)
    acc = mpc(0)
    for m in range(1, P + 1):
        s = sign(m, M, k1, k2)
        if s:
            phase = (2 * alpha * (m * m - a) / b) % 2
            acc += s * mp.expjpi(_mp(phase)) * mp.bernpoly(2, mpf(m) / P)
    return -_mp(c) * P / 2 * acc


def kontsevich_zagier(n: int) -> mpc:
    """sum_{k=0}^{n-1} prod_{j=1}^{k} (1 - zeta^j), zeta = e^{2 pi i/n}."""
    acc, term = mpc(0), mpc(1)
    for k in range(n):
        acc += term
        term *= 1 - mp.expjpi(_mp(Fraction(2 * (k + 1), n) % 2))
    return acc


def series_coefficient(spec, n: int) -> mpf:
    """a_n = C_n / (n! b^n), C_n = (-1)^n L(-2n-1, f),
    L(-2n-1, f) = -(M^{2n+1}/(2n+2)) sum_m f(m) B_{2n+2}(m/M)."""
    c, M, k1, k2, _, b = family(spec)
    pattern = mp.fsum(sign(m, M, k1, k2) * mp.bernpoly(2 * n + 2, mpf(m) / M)
                      for m in range(1, M + 1))
    L = -_mp(c) * mpf(M) ** (2 * n + 1) / (2 * n + 2) * pattern
    return (-1) ** n * L / (mp.factorial(n) * mpf(b) ** n)


def optimal_truncation(spec, x) -> tuple:
    """(partial sum of sum a_n x^-n up to its smallest term, the first omitted
    term's size); by Watson's lemma the Borel sum lies within about that size."""
    acc, prev = mpc(0), None
    for n in range(400):
        term = series_coefficient(spec, n) * x ** (-n)
        if prev is not None and abs(term) > prev:
            return acc, abs(term)
        acc += term
        prev = abs(term)
    raise ValueError("asymptotic series did not reach its smallest term")


def stokes_jump(spec, x) -> mpc:
    """2i (2 b pi x)^{3/2} (sqrt2 c/M^2) theta^(1)_{0,4M^2,f~}(2 pi i b x),
    the theta series summed term by term from the sine product."""
    c, M, k1, k2, _, b = family(spec)
    tau = mp.pi ** 2 * b * x / M ** 2
    floor = mpf(2) ** (-mp.prec - 8)
    acc, ell = mpc(0), 1
    while True:
        size = ell * mp.exp(-tau.real * ell * ell)
        if size < floor and ell * ell * tau.real > 1:
            break
        acc += ell * tilde(ell, M, k1, k2) * mp.exp(-tau * ell * ell)
        ell += 1
    return 2j * (2 * b * mp.pi * x) ** mpf(1.5) * mp.sqrt(2) * _mp(c) / M ** 2 * acc


# ---------------------------------------------------------------------------
# Comparison of one check.

def parse(v):
    """Inverse of worker.encode: [re, im] decimal strings -> mpc."""
    return mpc(mpf(v[0]), mpf(v[1]))


def point(text: str):
    """x from its decimal text; the pools hold doubles, so this is exact."""
    z = complex(text)
    return mpf(z.real) if z.imag == 0 else mpc(z.real, z.imag)


def comparisons(kind: str, params: dict, values: dict, prec: int) -> list:
    """[(label, gap, allowance)] for one check; it passes if every gap is
    within its allowance.  Call inside workprec(prec + GUARD)."""
    v = {k: parse(x) if isinstance(x, list) else x for k, x in values.items()}

    def pin(ref):
        return mpf(2) ** (-(prec - PIN_SLACK)) * max(1, abs(ref))

    def real(name):
        return v[name].real

    if kind == "report":
        # an identity of a verification suite: lhs = rhs within its pinned
        # tolerance, and the report must say so too
        gap = abs(v["lhs"] - v["rhs"])
        out = [("lhs-rhs", gap, real("tol"))]
        if not v["report_pass"]:
            out.append(("report-pass-flag", mpf(1), mpf(0)))
        return out
    fam = params["family"]
    if kind == "main2":
        ref = radial_limit(fam, Fraction(params["alpha"]), a=0)
        return [("radial-limit", abs(v["rl"] - ref), real("rl_err") + pin(ref)),
                ("boundary-median", abs(v["bm"] - ref), real("bm_err") + pin(ref))]
    if kind == "median":
        # twice the smallest term: the series is not of Stieltjes type, and
        # the gap reaches 1.05 times that term (chi(2,3,1,1) at x = 12)
        ref, smallest = optimal_truncation(fam, point(params["x"]))
        return [("watson", abs(v["med"] - ref), real("med_err") + 2 * smallest + pin(ref))]
    if kind == "strange":
        alpha = Fraction(params["alpha"])
        theta = radial_limit(fam, alpha)
        habiro = kontsevich_zagier(alpha.denominator) if fam[0] == "trefoil" else theta
        return [("theta-side", abs(v["theta"] - theta), pin(theta)),
                ("habiro-side", abs(v["habiro"] - habiro), pin(habiro))]
    if kind == "eichler":
        ref = -radial_limit(fam, Fraction(params["alpha"])) / 2
        return [("minus-half-theta", abs(v["eich"] - ref), real("eich_err") + pin(ref))]
    if kind == "disc":
        ref = stokes_jump(fam, point(params["x"]))
        return [("theta-series", abs(v["disc"] - ref), real("disc_err") + pin(ref))]
    if kind == "jump":
        ref = stokes_jump(fam, point(params["x"]))
        return [("lateral-sums", abs(v["lateral"] - ref), real("lateral_err") + pin(ref)),
                ("closed-form", abs(v["closed"] - ref), real("closed_err") + pin(ref))]
    if kind == "borel0":
        ref = series_coefficient(fam, 1)
        return [("a1", abs(v["g0"] - ref), real("g0_err") + pin(ref))]
    raise ValueError(f"unknown check kind {kind!r}")


def verdict(check: dict, prec: int) -> tuple:
    """(passed, detail) for one check as the worker reported it."""
    if "error" in check:
        return False, check["error"]
    with workprec(prec + GUARD):
        rows = comparisons(check["kind"], check["params"], check["values"], prec)
        bad = [f"{label}: gap {mp.nstr(gap, 3)} > {mp.nstr(allow, 3)}"
               for label, gap, allow in rows if not gap <= allow]
    return not bad, "; ".join(bad)
