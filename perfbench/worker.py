"""One pass of a workload in a fresh process; prints one JSON line.

    python3 perfbench/worker.py --src SRC --workload W --seed N --mode MODE --outdir DIR

MODE is "setup" (import and set up only), "pass" (set up, then every check
once), or "traced" (a pass with span tracing on every layer).  A fresh
process per pass means every pass pays the imports and starts from cold
caches, as a command-line user does.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import sys
from time import perf_counter

T0 = perf_counter()


def encode(x, digits: int):
    """Program values as JSON: numbers become [re, im] decimal strings."""
    if x is None or isinstance(x, (bool, str)):
        return x
    from fractions import Fraction
    from mpmath import mp, mpc, mpf, workprec
    if isinstance(x, Fraction):
        with workprec(4 * digits):
            x = mpf(x.numerator) / x.denominator
    elif not isinstance(x, (mpf, mpc)):
        x = mpc(x)
    re, im = (x, mpf(0)) if isinstance(x, mpf) else (x.real, x.imag)
    return [mp.nstr(re, digits), mp.nstr(im, digits)]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass", "traced"), required=True)
    ap.add_argument("--outdir", required=True)
    args = ap.parse_args()
    sys.path.insert(0, args.src)

    import thetaresum  # noqa: F401  (the import is part of set-up)
    import workloads

    tracer = None
    if args.mode == "traced":
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    state = workloads.setup(args.workload, args.seed)
    setup_s = perf_counter() - T0
    out = {"setup_s": setup_s}
    if args.mode != "setup":
        outdir = pathlib.Path(args.outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        done = []
        t_pass = perf_counter()
        for chk in workloads.checks(args.workload, state, outdir):
            if chk.run is None:
                done.append((chk, chk.secs, chk.values))
                continue
            t = perf_counter()
            try:
                values = chk.run()
            except Exception as exc:  # a failing check is counted, not fatal
                values = {"error": f"{type(exc).__name__}: {exc}"}
            done.append((chk, perf_counter() - t, values))
        out["wall_s"] = perf_counter() - t_pass
        digits = int((workloads.PREC[args.workload] + 64) * 0.30103) + 3
        out["checks"] = []
        for chk, secs, values in done:
            row = {"name": chk.name, "kind": chk.kind, "params": chk.params, "secs": secs}
            if "error" in values:
                row["error"] = values["error"]
            else:
                row["values"] = {k: encode(v, digits) for k, v in values.items()}
            out["checks"].append(row)
    out["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        out["layers"] = tracer.summary()
        out["spans"] = tracer.span_count
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
