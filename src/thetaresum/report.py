"""Machine-readable check reports, and the one rule by which a check passes.

A check compares two sides, each an Estimate (value and claimed error), and
passes when |lhs - rhs| <= lhs.error + rhs.error + 2^(1-prec)(|lhs| + |rhs|),
prec the report's precision: the last term is what rounding both sides to
prec bits may cost.  Exact sides carry zero bars.  The rule is written once,
here (allowance, agrees); the suites, the strange identities and the
character decomposition all read it.

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

SCHEMA = "thetaresum-report/2"


def _dps_for(prec_bits: int) -> int:
    return int(prec_bits * 0.30103) + 2


def number_json(value, prec_bits: int, err=None) -> dict:
    dps = _dps_for(prec_bits)
    v = mpc(value)
    out = {"re": mp.nstr(v.real, dps), "im": mp.nstr(v.imag, dps)}
    if err is not None:
        out["err"] = mp.nstr(mpf(err), 3)
    return out


def gap(lhs, rhs, prec: int) -> mpf:
    """|lhs - rhs| of two plain numbers, rounded to prec bits first: residuals
    below a double's resolution must not round to 0."""
    with workprec(prec):
        return abs(mpc(lhs) - mpc(rhs))


def allowance(lhs, rhs, prec: int) -> mpf:
    """The bound the pass rule puts on |lhs - rhs| for two Estimates."""
    with workprec(prec):
        return lhs.error + rhs.error + mpf(2) ** (1 - prec) * (abs(lhs.value) + abs(rhs.value))


def agrees(lhs, rhs, prec: int) -> bool:
    """The pass rule: lhs and rhs agree within their bars and the rounding."""
    return gap(lhs.value, rhs.value, prec) <= allowance(lhs, rhs, prec)


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
        """Record plain-number sides against a given tolerance; the suites
        record through row, which sets the tolerance by the pass rule."""
        with workprec(self.prec_bits):
            rec = CheckRecord(name=name, inputs=inputs, lhs=mpc(lhs), rhs=mpc(rhs),
                              abs_error=gap(lhs, rhs, self.prec_bits),
                              tolerance=mpf(tolerance), wall_time=wall_time)
        self.checks.append(rec)
        return rec

    def row(self, name: str, inputs: dict, lhs, rhs, wall_time=0.0) -> CheckRecord:
        """Record lhs = rhs for two Estimates; the tolerance is their allowance."""
        return self.add(name, inputs, lhs.value, rhs.value,
                        allowance(lhs, rhs, self.prec_bits), wall_time)

    def worst_row(self, name: str, inputs: dict, key: str, sides, wall_time=0.0) -> CheckRecord:
        """Record an identity that holds at every index of sides, (index, lhs,
        rhs) triples of Estimates, by the index closest to failing, under
        inputs[key]: the largest gap/allowance (0/0 ranks as 0, a positive
        gap over a zero allowance as infinite; the first on a tie).  Every
        index agrees exactly when that one does."""
        prec = self.prec_bits

        def rank(side):
            g, a = gap(side[1].value, side[2].value, prec), allowance(side[1], side[2], prec)
            return g / a if a else (mpf("inf") if g else mpf(0))

        index, lhs, rhs = max(sides, key=rank)
        return self.row(name, {**inputs, key: index}, lhs, rhs, wall_time)

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
