"""The thetaresum benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace {0,1}

W is battery, boundary-256 or large-period (see README.md).  Run from the
root of a source checkout; the library is imported from ./src.  Each pass
runs in a fresh single-threaded worker process, one after another, until S
seconds have gone by (at least two passes, three for the battery).  Every
check of every pass is compared with an independent oracle.  The last line
of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics of a
traced pass (next to an untraced one, for the overhead) for --trace 1.
Reports and span summaries go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median, median_low
from time import perf_counter

import oracles
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 6        # set-up-only processes per run, besides each pass's own
# untraced passes per run at least, so that the times are medians; the
# battery, whose spread on a shared host is the widest, gets a third
MIN_PASSES = {"battery": 3, "boundary-256": 2, "large-period": 2}
MIN_ROUNDS = 2           # with --trace 1: rounds of one untraced and one traced pass
DEADLINE_S = 170.0       # a run must end within 180 s


class BenchError(RuntimeError):
    pass


class Runner:
    def __init__(self, workload: str, seed: int, outdir: Path):
        self.workload, self.seed, self.outdir = workload, seed, outdir
        self.t0 = perf_counter()

    def spawn(self, mode: str, tag: str) -> dict:
        cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(ROOT / "src"),
               "--workload", self.workload, "--seed", str(self.seed), "--mode", mode,
               "--outdir", str(self.outdir / tag)]
        left = DEADLINE_S - (perf_counter() - self.t0)
        if left <= 0:
            raise BenchError("out of time before the run finished")
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} worker exceeded the {DEADLINE_S:.0f} s deadline")
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker failed:\n{proc.stderr[-3000:]}")
        line = proc.stdout.strip().splitlines()[-1]
        self.outdir.mkdir(parents=True, exist_ok=True)
        (self.outdir / f"{tag}.json").write_text(line + "\n")
        return json.loads(line)


def verify(passes: list, prec: int) -> tuple:
    """(attempted, failed names) over every check of every pass."""
    attempted, failed = 0, []
    for p in passes:
        for chk in p["checks"]:
            attempted += 1
            ok, detail = oracles.verdict(chk, prec)
            if not ok:
                failed.append(chk["name"])
                print(f"FAIL {chk['name']}: {detail}", file=sys.stderr)
    return attempted, failed


def report_bytes(outdir: Path, tag: str) -> dict:
    return {p.name: p.read_bytes() for p in sorted((outdir / tag).glob("*.json"))}


def determinism(outdir: Path, tags: list) -> tuple:
    """Battery reports must be byte-identical between processes: every
    pass's against the first pass's."""
    first = report_bytes(outdir, tags[0])
    if sorted(first) != sorted(f"{c[0]}.json" for c in workloads.BATTERY):
        raise BenchError(f"battery wrote {sorted(first)}")
    pairs = [(name, report_bytes(outdir, tag).get(name)) for tag in tags[1:] for name in first]
    failed = [f"byte-identical {name}" for name, data in pairs if data != first[name]]
    for name in failed:
        print(f"FAIL {name}", file=sys.stderr)
    return len(pairs), failed


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    outdir = ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(outdir, ignore_errors=True)
    r = Runner(workload, seed, outdir)
    setups = [r.spawn("setup", f"setup-{i}")["setup_s"] for i in range(SETUP_SAMPLES)]
    passes, traced = [], []
    start = perf_counter()
    while True:
        passes.append(r.spawn("pass", f"pass-{len(passes)}"))
        if trace:
            traced.append(r.spawn("traced", f"traced-{len(traced)}"))
        if perf_counter() - start >= seconds and len(passes) >= (
                MIN_ROUNDS if trace else MIN_PASSES[workload]):
            break
    everything = passes + traced
    names = [c["name"] for c in passes[0]["checks"]]
    if any([c["name"] for c in p["checks"]] != names for p in everything):
        raise BenchError("passes did not run the same checks")
    attempted, failed = verify(everything, workloads.PREC[workload])
    if workload == "battery":
        tags = [f"pass-{i}" for i in range(len(passes))] + [f"traced-{i}" for i in range(len(traced))]
        n, bad = determinism(outdir, tags)
        attempted += n
        failed += bad
    result = {"correct": all(name in oracles.KNOWN_FAULTS for name in failed),
              "attempted": attempted, "failed": len(failed)}
    if not trace:
        metrics = {
            "setup_s": (median(setups + [p["setup_s"] for p in passes]), "s"),
            "wall_s": (median([p["wall_s"] for p in passes]), "s"),
            "slowest_check_s": (median([max(c["secs"] for c in p["checks"]) for p in passes]), "s"),
            "peak_rss_mib": (median([p["peak_rss_kib"] / 1024 for p in passes]), "MiB"),
        }
    else:
        metrics = {}
        for name in tracing.METRIC_NAMES:
            rows = [t["layers"][name] for t in traced]
            metrics[f"{name}.calls"] = (median_low([row["calls"] for row in rows]), "count")
            metrics[f"{name}.self_s"] = (median([row["self_s"] for row in rows]), "s")
        metrics["trace.overhead_s"] = (median([t["wall_s"] for t in traced])
                                       - median([p["wall_s"] for p in passes]), "s")
        metrics["trace.spans"] = (median_low([t["spans"] for t in traced]), "count")
        (outdir / "layers.json").write_text(json.dumps([t["layers"] for t in traced], indent=1))
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (outdir / "result.json").write_text(json.dumps(result, indent=1))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "thetaresum" / "__init__.py").is_file():
        print(f"no thetaresum sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
