#!/usr/bin/env python3
"""Run the full verification battery on the standard configurations.

Writes one JSON report per configuration into reports/ and prints the
per-check lines.  Exit status is nonzero if anything failed.

    PYTHONPATH=src python scripts/run_verification.py [--prec 128] [--outdir reports]
"""

import argparse
import pathlib
import sys
from fractions import Fraction

from thetaresum.config import config_chi, config_hikami, config_t3_2k
from thetaresum.precision import PrecisionContext
from thetaresum.suites import run_suite

CASES = [
    ("trefoil-strange", config_hikami(1, 0), "1/3"),
    ("trefoil-chi", config_chi(2, 3, 1, 1), "1"),
    ("chi-3-4", config_chi(3, 4, 1, 1), "1/2"),
    ("hikami-2-0", config_hikami(2, 0), "1/4"),
    ("t3-4", config_t3_2k(2), "1/2"),
]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--prec", type=int, default=128)
    ap.add_argument("--tol", type=float, default=1e-8)
    ap.add_argument("--outdir", type=str, default="reports")
    args = ap.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    ctx = PrecisionContext(prec=args.prec, tol=args.tol)

    ok = True
    for name, cfg, alpha in CASES:
        print(f"== {name}: {cfg.label()} (alpha = {alpha})")
        report = run_suite("all", cfg, ctx, alpha=Fraction(alpha))
        report.print_lines()
        report.write_json(outdir / f"{name}.json")
        ok = ok and report.all_passed
    print("ALL PASSED" if ok else "FAILURES PRESENT")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
