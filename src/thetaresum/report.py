"""Machine-readable check reports.

Reports serialise to JSON with all numbers as decimal strings (keys "re",
"im", "err") so no double-rounding happens downstream.  File output is
byte-deterministic for fixed config and precision; wall-clock timings are
collected in memory and included only on request, since they would break
byte determinism.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from mpmath import mp, mpf, mpc, workprec

SCHEMA = "thetaresum-report/1"


def _dps_for(prec_bits: int) -> int:
    return int(prec_bits * 0.30103) + 2


def number_json(value, prec_bits: int, err=None) -> dict:
    dps = _dps_for(prec_bits)
    v = mpc(value)
    out = {"re": mp.nstr(v.real, dps), "im": mp.nstr(v.imag, dps)}
    if err is not None:
        out["err"] = mp.nstr(mpf(err), 3)
    return out


@dataclass
class CheckRecord:
    name: str
    inputs: dict
    lhs: mpc
    rhs: mpc
    abs_error: mpf
    tolerance: mpf
    wall_time: float = 0.0

    @property
    def passed(self) -> bool:
        return self.abs_error <= self.tolerance

    def to_json(self, prec_bits: int, with_timings: bool) -> dict:
        d = {
            "name": self.name,
            "inputs": {k: str(v) for k, v in sorted(self.inputs.items())},
            "lhs": number_json(self.lhs, prec_bits),
            "rhs": number_json(self.rhs, prec_bits),
            "abs_error": mp.nstr(mpf(self.abs_error), 3),
            "tolerance": mp.nstr(mpf(self.tolerance), 3),
            "pass": bool(self.passed),
        }
        if with_timings:
            d["wall_time_ms"] = round(self.wall_time * 1000.0, 3)
        return d


@dataclass
class Report:
    config: dict
    prec_bits: int
    tolerance: str
    checks: list = field(default_factory=list)

    def add(self, name: str, inputs: dict, lhs, rhs, tolerance, wall_time=0.0) -> CheckRecord:
        # at the report's precision, whatever the caller's: residuals below
        # a double's resolution must not round to 0
        with workprec(self.prec_bits):
            lhs, rhs = mpc(lhs), mpc(rhs)
            rec = CheckRecord(name=name, inputs=inputs, lhs=lhs, rhs=rhs,
                              abs_error=abs(lhs - rhs), tolerance=mpf(tolerance),
                              wall_time=wall_time)
        self.checks.append(rec)
        return rec

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> dict:
        passed = sum(1 for c in self.checks if c.passed)
        return {"total": len(self.checks), "passed": passed,
                "failed": len(self.checks) - passed}

    def to_json(self, with_timings: bool = False) -> dict:
        with workprec(self.prec_bits):
            checks = [c.to_json(self.prec_bits, with_timings) for c in self.checks]
        return {
            "schema": SCHEMA,
            "config": self.config,
            "precision_bits": self.prec_bits,
            "tolerance": self.tolerance,
            "checks": checks,
            "summary": self.summary(),
            "all_passed": self.all_passed,
        }

    def write_json(self, path, with_timings: bool = False):
        with open(path, "w") as fh:
            json.dump(self.to_json(with_timings), fh, indent=2, sort_keys=False)
            fh.write("\n")

    def print_lines(self, stream_print=print):
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            stream_print(f"[{status}] {c.name}: |lhs-rhs| = {mp.nstr(mpf(c.abs_error), 3)}"
                         f" (tol {mp.nstr(mpf(c.tolerance), 3)}, {c.wall_time:.2f}s)")
        s = self.summary()
        stream_print(f"{s['passed']}/{s['total']} checks passed")


class timed:
    """Context manager measuring wall time for a check."""

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False
