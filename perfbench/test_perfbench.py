"""Tests of the benchmark itself: its checks, its determinism check and its
tracer.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp, mpf, workprec

import oracles
import run
import tracing
import worker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# the program's main outputs in each kind of check
MAIN_KEYS = {"main2": ("rl", "bm"), "median": ("med",), "strange": ("theta", "habiro"),
             "eichler": ("eich",), "disc": ("disc",), "borel0": ("g0",), "report": ("lhs",),
             "jump": ("lateral", "closed")}


def _row(name: str, kind: str, params: dict, values: dict, prec: int) -> tuple:
    """A check as the worker reports it, with its precision."""
    digits = int((prec + 64) * 0.30103) + 3
    return {"name": name, "kind": kind, "params": params,
            "values": {k: worker.encode(v, digits) for k, v in values.items()}}, prec


def _program_check(workload: str, name: str, prec: int = None) -> tuple:
    """Run one named check of a workload (seed 0) through the worker's encoding."""
    from thetaresum.precision import PrecisionContext
    state = workloads.setup(workload, 0)
    if prec is not None:
        state["ctx"] = PrecisionContext(prec=prec, tol=workloads.TOL)
    for chk in workloads.checks(workload, state, None):
        if chk.name == name:
            return _row(chk.name, chk.kind, chk.params, chk.run(), state["ctx"].prec)
    raise KeyError(name)


def _ctx(prec: int):
    from thetaresum.precision import PrecisionContext
    return PrecisionContext(prec=prec, tol=workloads.TOL)


def _cm_record():
    """The cm identity of trefoil-chi as the battery records it."""
    from thetaresum import config, suites
    with workloads._CaptureReports() as cap:
        suites.run_suite("cm", config.config_chi(2, 3, 1, 1), _ctx(128))
    (record,) = cap.records
    return _row("cm", "report", {"case": "trefoil-chi"}, workloads._record_values(*record), 128)


def _eichler_at_one():
    """eichler_integral at alpha = 1, within its claimed error at 96 bits."""
    from thetaresum import qseries
    est = qseries.eichler_integral(2, 3, (1, 1), mpf(1), Fraction(1), _ctx(96))
    return _row("eichler chi(2,3,1,1) alpha=1", "eichler",
                {"family": ["chi", 2, 3, 1, 1], "alpha": "1"}, workloads._est("eich", est), 96)


def _jump():
    """The battery's Stokes jump of trefoil-chi, lateral sums and closed form."""
    from thetaresum import config, resum
    x = workloads.BATTERY_JUMP_XS[-1]
    d = resum.discontinuity(config.config_chi(2, 3, 1, 1).series(12), oracles.point(x), _ctx(128))
    return _row(f"jump trefoil-chi x={x}", "jump",
                {"family": list(workloads.BATTERY_JUMP), "x": x},
                {**workloads._est("lateral", d.numeric),
                 **workloads._est("closed", d.closed_form)}, 128)


CASES = {
    "strange-exact": lambda: _program_check("boundary-256", "strange trefoil alpha=1/7"),
    "strange-float": lambda: _program_check("boundary-256", "strange hikami-3-0 alpha=1/11"),
    "median": lambda: _program_check("boundary-256", "median chi(2,3,1,1) x=10"),
    "main2": lambda: _program_check("boundary-256", "main2 chi(s=2,t=3,n=1,m=1,c=1) alpha=1/2",
                                    prec=128),
    "eichler": _eichler_at_one,
    "jump": _jump,
    "disc": lambda: _program_check("large-period", "disc t3-2k(k=3) x=1+0.25j"),
    "borel0": lambda: _program_check("large-period", "borel0 t3-2k(k=3)"),
    "report": _cm_record,
}


@pytest.fixture(scope="module", autouse=True)
def _library_on_path():
    sys.path.insert(0, str(SRC))
    yield
    sys.path.remove(str(SRC))


@pytest.mark.parametrize("case", sorted(CASES))
def test_check_accepts_program_and_rejects_ten_times_its_allowance(case):
    chk, prec = CASES[case]()
    ok, detail = oracles.verdict(chk, prec)
    assert ok, detail
    for key in MAIN_KEYS[chk["kind"]]:
        with workprec(prec + oracles.GUARD):
            rows = oracles.comparisons(chk["kind"], chk["params"], chk["values"], prec)
            allowance = max(allow for _, _, allow in rows)
            delta = max(10 * allowance, mpf(2) ** (-prec))
            re, im = chk["values"][key]
            bad = dict(chk, values={**chk["values"],
                                    key: [mp.nstr(mpf(re) + delta, 120), im]})
        ok, _ = oracles.verdict(bad, prec)
        assert not ok, f"{case}: {key} off by {delta} passed"


def test_known_fault_fails_its_check():
    chk, prec = _program_check("boundary-256", "eichler chi(2,3,1,1) alpha=1/2", prec=128)
    ok, detail = oracles.verdict(chk, prec)
    assert not ok and "minus-half-theta" in detail
    assert chk["name"] in oracles.KNOWN_FAULTS


def test_report_pass_flag_must_agree():
    chk, prec = _cm_record()
    chk["values"]["report_pass"] = False
    assert not oracles.verdict(chk, prec)[0]


def test_determinism_catches_one_changed_digit(tmp_path):
    from thetaresum import config, suites
    from thetaresum.precision import PrecisionContext
    rep = suites.run_suite("coeffs", config.config_chi(2, 3, 1, 1), PrecisionContext(prec=128))
    tags = ["pass-0", "pass-1", "traced-0"]
    for tag in tags:
        (tmp_path / tag).mkdir()
        for case, *_ in workloads.BATTERY:
            rep.write_json(tmp_path / tag / f"{case}.json")
    assert run.determinism(tmp_path, tags) == (10, [])
    target = tmp_path / "pass-1" / "chi-3-4.json"
    text = target.read_text()
    i = next(i for i, ch in enumerate(text) if ch.isdigit() and text[i - 1] == ".")
    target.write_text(text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:])
    assert run.determinism(tmp_path, tags) == (10, ["byte-identical chi-3-4.json"])


def test_tracer_self_time_and_nesting():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    rows = tracer.summary()
    assert rows["inner"]["calls"] == 3 and rows["outer"]["calls"] == 1
    total = tracer.end[0] - tracer.start[0]
    assert rows["outer"]["self_s"] + rows["inner"]["self_s"] == pytest.approx(total)
    assert 0 < rows["outer"]["self_s"] < total


_COUNT_SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import thetaresum, tracing, workloads
tracer = tracing.Tracer()
tracing.install(tracer)
state = workloads.setup("large-period", 0)
for chk in list(workloads.checks("large-period", state, None))[:4]:
    chk.run()
print(json.dumps({k: v["calls"] for k, v in tracer.summary().items()}))
"""


def test_two_traced_runs_give_identical_counts():
    counts = []
    for hashseed in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", _COUNT_SCRIPT, str(SRC), str(HERE)],
                              capture_output=True, text=True, check=True,
                              env={**os.environ, "PYTHONHASHSEED": hashseed})
        counts.append(json.loads(proc.stdout))
    assert counts[0] == counts[1]
    assert set(counts[0]) == set(tracing.METRIC_NAMES)
    assert counts[0]["periodic.TildeFunction.period"] > 0
    assert counts[0]["resum.disc_closed_form"] == 3


def test_seeds_pick_points_deterministically():
    assert workloads.draw_inputs("large-period", 7) == workloads.draw_inputs("large-period", 7)
    default = workloads.draw_inputs("boundary-256", 0)
    assert default["median_x"] == ["1", "2", "10"]
    assert default["main2"] == (("chi", 2, 3, 1, 1), "1/2")
    drawn = {tuple(workloads.draw_inputs("boundary-256", s)["median_x"]) for s in range(1, 40)}
    assert len(drawn) > 1
    # the program and the oracle must see the same x: every decimal is a double
    pools = workloads.MEDIAN_X_POOLS + workloads.DISC_X_POOLS + (
        workloads.LARGE_MEDIAN_X_POOL, workloads.BATTERY_JUMP_XS)
    for text in (x for pool in pools for x in pool):
        cut = max(text.rfind("+"), text.rfind("-"), 0) if text.endswith("j") else len(text)
        for part in filter(None, (text[:cut], text[cut:].rstrip("j"))):
            assert Fraction(part) == Fraction(float(part)), text


def test_benchmark_json_lists_every_traced_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["per_layer"]]
    assert names == [f"{n}.{s}" for n in tracing.METRIC_NAMES for s in ("calls", "self_s")] + [
        "trace.overhead_s", "trace.spans"]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "battery",
                           "--seed", "1", "--seconds", "10", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
