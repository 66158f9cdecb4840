"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py [--workloads W ...] [--seeds 1-10] [--trace 0|1] [--seconds S]

Runs perfbench/run.py once per (workload, seed), one after another, and
prints for every metric its median, quartiles and the quartile spread as a
share of the median (statistics.quantiles, n=4).  The raw results go to
.bench_out/sweep-trace<T>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(results: list) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0,
                     "unit": results[0]["metrics"][name]["unit"]}
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS))
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json",
                    default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    args = ap.parse_args()
    raw = {}
    for w in args.workloads:
        raw[w] = []
        for seed in args.seeds:
            t = perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, check=True)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            raw[w].append(res)
            print(f"{w} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} in {perf_counter() - t:.1f} s", flush=True)
        for name, s in summarise(raw[w]).items():
            print(f"  {w:13s} {name:42s} median {s['median']:.6g} {s['unit']}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {100 * s['spread']:.2f}%")
    out = HERE.parent / ".bench_out" / f"sweep-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"seeds": args.seeds, "results": raw,
                               "summary": {w: summarise(r) for w, r in raw.items()}}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
