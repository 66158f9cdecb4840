#!/usr/bin/env python3
"""Profile the median sum along a horizontal approach to a boundary point.

Samples S_med(x0 + eps) for eps on a geometric grid and prints a CSV of the
approach against the closed boundary value, handy for convergence plots.

    PYTHONPATH=src python scripts/boundary_profile.py --s 2 --t 3 --n 1 --m 1 --alpha 1
"""

import argparse
import sys
from fractions import Fraction

from mpmath import mp, mpf

from thetaresum.config import config_chi
from thetaresum.precision import PrecisionContext
from thetaresum.resum import boundary_median, boundary_point, median_sum


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--s", type=int, default=2)
    ap.add_argument("--t", type=int, default=3)
    ap.add_argument("--n", type=int, default=1)
    ap.add_argument("--m", type=int, default=1)
    ap.add_argument("--alpha", type=str, default="1")
    ap.add_argument("--steps", type=int, default=12)
    ap.add_argument("--prec", type=int, default=96)
    args = ap.parse_args()

    cfg = config_chi(args.s, args.t, args.n, args.m)
    ctx = PrecisionContext(prec=args.prec, tol=1e-9)
    alpha = Fraction(args.alpha)
    series = cfg.series(8)

    with ctx.working():
        x0 = boundary_point(alpha)
        limit = boundary_median(series, alpha, ctx).value
        print("eps,re,im,abs_gap_to_boundary")
        for k in range(args.steps):
            eps = mpf("1e-2") * mpf(2) ** (-k)
            v = median_sum(series, x0 + eps, ctx).value
            print(f"{mp.nstr(eps, 6)},{mp.nstr(v.real, 20)},{mp.nstr(v.imag, 20)},"
                  f"{mp.nstr(abs(v - limit), 6)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
