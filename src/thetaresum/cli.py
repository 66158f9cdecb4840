"""Command-line interface: verify / export / eval.

Examples:
    thetaresum verify --suite main2 --family chi --s 2 --t 3 --n 1 --m 1 --alpha 1
    thetaresum verify --suite strange --family hikami --u 1 --l 0 --alpha 1/2
    thetaresum export --what coefficients --family hikami --u 1 --l 0 --count 4 --out c.csv --format csv
    thetaresum eval --quantity smed --family hikami --u 1 --l 0 --x 2

Exit status: 0 all checks passed, 1 check failures, 2 usage errors.
The default precision (bits) can be set through THETARESUM_PREC.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from fractions import Fraction

from mpmath import mp, mpc, mpf, workprec

from . import borel as borel_mod
from . import resum as resum_mod
from .config import FAMILIES, Config
from .habiro import BudgetError
from .periodic import ConfigError
from .precision import PrecisionContext, default_prec, to_mpf
from .qseries import DomainError, theta_upper_half
from .report import _dps_for, number_json
from .suites import SUITES, run_suite

USAGE_ERROR = 2


class UsageError(Exception):
    pass


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"expected a rational like 3 or -1/2, got {text!r}: {exc}")


_DECIMAL = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
# a real part, ended by a sign if an imaginary part follows, and an imaginary
# part whose coefficient may be left out, as in "j" or "-j"
_COMPLEX = re.compile(rf"([+-]?{_DECIMAL}(?=[+-]|$))?(?:([+-]?(?:{_DECIMAL})?)[jJ])?")


def _complex(text: str, ctx: PrecisionContext) -> mpc:
    """A complex literal like 1+0.5j, each decimal part read at ctx.prec bits."""
    match = _COMPLEX.fullmatch(text.replace(" ", ""))
    if not match or match.groups() == (None, None):
        raise UsageError(f"expected a complex literal like 1+0.5j, got {text!r}")
    real, imag = match.groups()
    with workprec(ctx.prec):
        return mpc(mpf(real or 0), mpf(imag + "1" if imag in ("", "+", "-") else imag or 0))


# every family flag, in registry order; each family takes some of them
FAMILY_FLAGS = tuple(dict.fromkeys(k for _, required, optional in FAMILIES.values()
                                   for k in required + optional))


def build_config(args) -> Config:
    constructor, required, optional = FAMILIES[args.family]
    missing = [k for k in required if getattr(args, k) is None]
    if missing:
        raise UsageError(f"family {args.family} needs --{', --'.join(missing)}")
    foreign = [k for k in FAMILY_FLAGS
               if k not in required + optional and getattr(args, k) is not None]
    if foreign:
        raise UsageError(f"family {args.family} does not take --{', --'.join(foreign)}")

    def value(k):
        return _fraction(args.c) if k == "c" else getattr(args, k)

    try:
        return constructor(*map(value, required),
                           **{k: value(k) for k in optional if getattr(args, k) is not None})
    except ConfigError as exc:
        raise UsageError(str(exc))


def _add_family_flags(p):
    p.add_argument("--family", required=True, choices=list(FAMILIES))
    p.add_argument("--c", type=str, help="scale c as a rational, e.g. -1/2")
    for k in FAMILY_FLAGS:
        if k != "c":
            p.add_argument(f"--{k}", type=int)


def _add_numeric_flags(p):
    p.add_argument("--prec", type=int, default=None, help="precision in bits")
    p.add_argument("--tol", type=str, default=None, help="target tolerance")
    p.add_argument("--out", type=str, default=None, help="output path")
    p.add_argument("--format", choices=["json", "csv"], default="json")


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="thetaresum", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a named verification suite")
    v.add_argument("--suite", required=True, choices=list(SUITES))
    _add_family_flags(v)
    v.add_argument("--alpha", type=str, default=None, help="rational j/N")
    v.add_argument("--timings", action="store_true",
                   help="include wall times in the written report "
                        "(breaks byte determinism)")
    _add_numeric_flags(v)

    e = sub.add_parser("export", help="write series/singularity tables")
    e.add_argument("--what", required=True,
                   choices=["coefficients", "borel-taylor", "singularities"])
    e.add_argument("--count", type=int, required=True)
    _add_family_flags(e)
    _add_numeric_flags(e)

    q = sub.add_parser("eval", help="single-point evaluations")
    q.add_argument("--quantity", required=True,
                   choices=["theta", "borel", "lateral", "smed", "boundary"])
    _add_family_flags(q)
    q.add_argument("--x", type=str, default=None, help="complex point, e.g. 1+0.5j")
    q.add_argument("--p", type=str, default=None, help="Borel-plane point")
    q.add_argument("--side", choices=["plus", "minus"], default="plus")
    q.add_argument("--nu", type=int, default=1, choices=[0, 1])
    q.add_argument("--alpha", type=str, default=None)
    _add_numeric_flags(q)
    return ap


def _context(args) -> PrecisionContext:
    try:
        prec = args.prec if args.prec is not None else default_prec()
        tol = float(args.tol) if args.tol is not None else 1e-8
        return PrecisionContext(prec=prec, tol=tol)
    except ValueError as exc:
        raise UsageError(str(exc))


def _write(text: str, out) -> None:
    """text to the file out (newlines untranslated, as csv needs), or to stdout."""
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_verify(args) -> int:
    if args.format == "csv":
        raise UsageError("verification reports are JSON; CSV is reserved for "
                         "series exports")
    cfg = build_config(args)
    ctx = _context(args)
    alpha = _fraction(args.alpha) if args.alpha is not None else None
    try:
        report = run_suite(args.suite, cfg, ctx, alpha=alpha)
    except ConfigError as exc:
        raise UsageError(str(exc))
    report.print_lines()
    if args.out:
        report.write_json(args.out, with_timings=args.timings)
    return 0 if report.all_passed else 1


def cmd_export(args) -> int:
    cfg = build_config(args)
    ctx = _context(args)
    if args.count < 1:
        raise UsageError("--count must be >= 1")
    series = cfg.series(max(args.count + 2, 8))
    if args.what == "singularities":
        header = ["index", "ell", "position"]
        values = borel_mod.singularities(series, args.count, ctx)
    else:
        name = "C" if args.what == "coefficients" else "g"
        header = ["n", f"{name}_n", f"{name}_n_float"]
        exact = (series.C[:args.count] if name == "C"
                 else borel_mod.borel_coefficients(series, args.count))
        values = ((str(c), to_mpf(c)) for c in exact)
    with ctx.working():
        rows = [[i, v, mp.nstr(x, _dps_for(ctx.prec))] for i, (v, x) in enumerate(values)]

    if args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(header)
        w.writerows(rows)
        _write(buf.getvalue(), args.out)
    else:
        payload = {"schema": "thetaresum-export/1", "config": cfg.describe(),
                   "what": args.what,
                   "rows": [dict(zip(header, r)) for r in rows]}
        _write(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_eval(args) -> int:
    cfg = build_config(args)
    ctx = _context(args)
    series = cfg.series(12)
    if args.quantity == "theta":
        if args.x is None:
            raise UsageError("eval theta needs --x with Im x > 0")
        est = theta_upper_half(cfg.theta_spec(nu=args.nu), _complex(args.x, ctx), ctx)
    elif args.quantity == "borel":
        if args.p is None:
            raise UsageError("eval borel needs --p")
        est = borel_mod.borel_eval(series, _complex(args.p, ctx), ctx, side=args.side)
    elif args.quantity == "lateral":
        if args.x is None:
            raise UsageError("eval lateral needs --x")
        est = resum_mod.lateral_sum(series, _complex(args.x, ctx), args.side, ctx)
    elif args.quantity == "smed":
        if args.x is None:
            raise UsageError("eval smed needs --x with Re x > 0")
        est = resum_mod.median_sum(series, _complex(args.x, ctx), ctx)
    else:
        if args.alpha is None:
            raise UsageError("eval boundary needs --alpha")
        est = resum_mod.boundary_median(series, _fraction(args.alpha), ctx)
    with ctx.working():
        payload = {"schema": "thetaresum-eval/1", "config": cfg.describe(),
                   "quantity": args.quantity,
                   "value": number_json(est.value, ctx.prec, est.error)}
    _write(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


# flags whose value may be negative: "--alpha -1/3" reaches argparse as
# "--alpha=-1/3", since it reads a word like "-1/3" as an option
SIGNED_FLAGS = ("--alpha", "--c", "--x", "--p")


def _join_signed_values(argv) -> list:
    out = []
    for word in argv:
        if out and out[-1] in SIGNED_FLAGS and re.match(r"-[0-9.]", word):
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def main(argv=None) -> int:
    ap = make_parser()
    try:
        args = ap.parse_args(_join_signed_values(sys.argv[1:] if argv is None else argv))
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "export":
            return cmd_export(args)
        return cmd_eval(args)
    except (UsageError, ConfigError, DomainError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
