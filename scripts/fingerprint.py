#!/usr/bin/env python3
"""Print the exact bits of a fixed grid of library values, one line per value.

Each line names the call and holds the exact mpf tuples (sign, mantissa,
exponent, bit count) of the value's real and imaginary parts and of its
error, and the budget flag; exact values without an error bar (the Habiro
ring) print "-" for both.  Run it at two commits and diff the outputs to
list every value a change moved:

    PYTHONPATH=src python scripts/fingerprint.py > after.txt

The grid, at 64 and 128 bits:
- the resummation layer on trefoil-chi, hikami(2,0) and t3-2k(3), at tol
  1e-8 and 1e-15 and at the default ell_cap and ell_cap = 16: median_sum,
  both lateral sums, disc_closed_form, borel_eval, boundary_median,
  theta_upper_half and theta_radial_limit;
- eichler_integral for chi(2,3) (1,1) and (1,2) on its head branch at
  c = 0 and c != 0, its vertical branch, "conj" and base point 0;
- hikami_x (u <= 3), q_pochhammer and q_binomial at every primitive N-th
  root of unity, N <= 12;
- radial limits (nu = 0 and 1) of six configurations at alpha = +-1/n and
  3/n, n <= 12, and of f~ at the points boundary_median reads.
"""

import sys
from fractions import Fraction
from math import gcd

from mpmath import mpc, mpf

from thetaresum.borel import borel_eval
from thetaresum.config import config_chi, config_hikami, config_t3_2k, trefoil_chi
from thetaresum.habiro import RootOfUnity, hikami_x, q_binomial, q_pochhammer
from thetaresum.precision import PrecisionContext
from thetaresum.qseries import ThetaSpec, eichler_integral, theta_radial_limit, theta_upper_half
from thetaresum.resum import boundary_median, disc_closed_form, lateral_sum, median_sum

PRECS = (64, 128)
CONFIGS = (trefoil_chi(), config_hikami(2, 0), config_t3_2k(3))
LIMIT_CONFIGS = CONFIGS + (config_hikami(1, 0), config_hikami(2, 1), config_chi(3, 4, 1, 1))


def bits(x) -> str:
    return str(mpf(x)._mpf_)


def line(label: str, value) -> str:
    """The label, then re, im, error and flag of an Estimate or an mpc."""
    err = getattr(value, "error", None)
    flag = getattr(value, "budget_exhausted", None)
    v = mpc(getattr(value, "value", value))
    return (f"{label} re={bits(v.real)} im={bits(v.imag)} "
            f"err={'-' if err is None else bits(err)} flag={'-' if flag is None else flag}")


def resummation(prec: int):
    for tol in (1e-8, 1e-15):
        for cap in (None, 16):
            ctx = (PrecisionContext(prec=prec, tol=tol) if cap is None
                   else PrecisionContext(prec=prec, tol=tol, ell_cap=cap))
            tag = f"prec={prec} tol={tol} cap={cap}"
            for cfg in CONFIGS:
                series = cfg.series(8)
                name = f"{tag} {cfg.label()}"
                yield line(f"{name} median_sum(1)", median_sum(series, 1, ctx))
                yield line(f"{name} median_sum(0.5+0.25i)", median_sum(series, mpc(0.5, 0.25), ctx))
                for side in ("plus", "minus"):
                    yield line(f"{name} lateral_sum(1, {side})", lateral_sum(series, 1, side, ctx))
                yield line(f"{name} disc_closed_form(1)", disc_closed_form(series, 1, ctx))
                yield line(f"{name} borel_eval(0.1)", borel_eval(series, mpf("0.1"), ctx))
                for alpha in (Fraction(1), Fraction(-1, 2)):
                    yield line(f"{name} boundary_median({alpha})",
                               boundary_median(series, alpha, ctx))
                for nu in (0, 1):
                    spec = cfg.theta_spec(nu)
                    yield line(f"{name} theta_upper_half(nu={nu}, 0.3+0.1i)",
                               theta_upper_half(spec, mpc(0.3, 0.1), ctx))
                    yield line(f"{name} theta_radial_limit(nu={nu}, 1/3)",
                               theta_radial_limit(spec, Fraction(1, 3), ctx))


def eichler(prec: int):
    points = [(mpf("0.5"), Fraction(1, 2)), (mpf(1), Fraction(1)),
              (mpc("0.33333", "-1e-5"), Fraction(1, 3)),
              (mpc("0.5", "-0.5"), Fraction(1, 2)),
              (mpc("0.3", "-0.5"), "conj"), (mpc(0, -1), Fraction(0))]
    for cap in (None, 16):
        ctx = PrecisionContext(prec=prec) if cap is None else PrecisionContext(prec=prec, ell_cap=cap)
        for nm in ((1, 1), (1, 2)):
            for z, lower in points:
                yield line(f"prec={prec} cap={cap} eichler_integral(2, 3, {nm}, {z}, {lower})",
                           eichler_integral(2, 3, nm, z, lower, ctx))


def habiro(prec: int):
    ctx = PrecisionContext(prec=prec)
    for N in range(1, 13):
        for j in (j for j in range(N) if gcd(j, N) == 1):
            q = RootOfUnity(j, N)
            tag = f"prec={prec} q={j}/{N}"
            for u in range(1, 4):
                for ell in range(u):
                    yield line(f"{tag} hikami_x({u}, {ell})", hikami_x(u, ell, q, ctx))
            for n in range(N + 2):
                yield line(f"{tag} q_pochhammer({n})", q_pochhammer(n, q, ctx))
            for top in range(N + 1):
                for bottom in range(top + 1):
                    yield line(f"{tag} q_binomial({top}, {bottom})", q_binomial(top, bottom, q, ctx))


def radial_limits(prec: int):
    ctx = PrecisionContext(prec=prec)
    alphas = sorted({Fraction(s * p, n) for n in range(1, 13) for p in (1, 3) for s in (1, -1)})
    for cfg in LIMIT_CONFIGS:
        for nu in (0, 1):
            spec = cfg.theta_spec(nu)
            for alpha in alphas:
                yield line(f"prec={prec} {cfg.label()} theta_radial_limit(nu={nu}, {alpha})",
                           theta_radial_limit(spec, alpha, ctx))
    for cfg in CONFIGS:
        series = cfg.series(2)
        M, b = series.f.M, series.b
        spec = ThetaSpec(a=0, b=4 * M * M, nu=1, f=series.tilde)
        for alpha in (Fraction(1), Fraction(-1, 2), Fraction(1, 3), Fraction(3, 2)):
            yield line(f"prec={prec} {cfg.label()} tilde theta_radial_limit({-b / alpha})",
                       theta_radial_limit(spec, Fraction(-b) / alpha, ctx))


def main() -> int:
    for prec in PRECS:
        for part in (resummation, eichler, habiro, radial_limits):
            for text in part(prec):
                print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
