#!/usr/bin/env python3
"""Export the trefoil coefficient and singularity tables used in write-ups.

    PYTHONPATH=src python scripts/export_trefoil_tables.py [--count 16] [--outdir tables]
"""

import argparse
import pathlib
import sys

from thetaresum.cli import main as cli_main


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--count", type=int, default=16)
    ap.add_argument("--outdir", type=str, default="tables")
    args = ap.parse_args()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    jobs = [
        (["export", "--what", "coefficients"], "trefoil_coefficients.csv"),
        (["export", "--what", "borel-taylor"], "trefoil_borel_taylor.csv"),
        (["export", "--what", "singularities"], "trefoil_singularities.csv"),
    ]
    for head, fname in jobs:
        rc = cli_main(head + ["--count", str(args.count), "--family", "hikami",
                              "--u", "1", "--l", "0", "--format", "csv",
                              "--out", str(outdir / fname)])
        if rc != 0:
            return rc
        print(f"wrote {outdir / fname}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
