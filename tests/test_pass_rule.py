"""The one pass rule: a row passes when |lhs - rhs| <= lhs.error + rhs.error
+ 2^(1-prec)(|lhs| + |rhs|), and nowhere else is a threshold set.

The syntax-tree check keeps suites.py on that rule (no linter ships with the
test environment, so it walks the tree as tests/test_imports.py does); the
other tests show that the rule bites when a side claims less error than it
carries, where a tolerance literal would have let the row pass.
"""

import ast
import pathlib
from fractions import Fraction

from mpmath import mpf, workprec

from thetaresum import habiro, suites
from thetaresum.config import config_chi
from thetaresum.habiro import StrangeConfig, verify_strange
from thetaresum.precision import Estimate, PrecisionContext, exact
from thetaresum.report import Report

SUITES_PY = pathlib.Path(__file__).resolve().parents[1] / "src" / "thetaresum" / "suites.py"
CTX = PrecisionContext(prec=128, tol=1e-8)
ROW_METHODS = ("row", "worst_row")


def _is_number(node) -> bool:
    """A numeric literal, negated or not, or mpf/mpc/float of literals."""
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (int, float, complex)) and not isinstance(node.value, bool)
    return (isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("mpf", "mpc", "float")
            and bool(node.args) and all(isinstance(a, ast.Constant) for a in node.args))


def threshold_breaches(source: str) -> list:
    """(line, what) for every way a suite could set a pass threshold of its
    own: a call of .add (Report.add takes a tolerance), a call of
    .tolerance(), an Estimate built in place (its bar would be the suite's),
    or a number passed straight into a row."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in ("add", "tolerance"):
            out.append((node.lineno, func.attr))
        elif isinstance(func, ast.Name) and func.id == "Estimate":
            out.append((node.lineno, "Estimate"))
        elif isinstance(func, ast.Attribute) and func.attr in ROW_METHODS:
            out += [(node.lineno, "number") for arg in node.args + [k.value for k in node.keywords]
                    if _is_number(arg)]
    return sorted(out)


def test_detects_every_breach():
    source = ("report.add('a', {}, x, y, tol)\n"
              "report.row('b', {}, x, y, wall_time=ctx.tolerance())\n"
              "report.row('c', {}, Estimate(x, e), y)\n"
              "report.worst_row('d', {}, 'n', sides, 1e-12)\n"
              "report.row('e', {}, x, mpf('0.02'))\n"
              "report.row('f', {'count': 8}, x, exact(0), t.elapsed)\n")
    assert threshold_breaches(source) == [(1, "add"), (2, "tolerance"), (3, "Estimate"),
                                          (4, "number"), (5, "number")]


def test_suites_set_no_threshold():
    assert threshold_breaches(SUITES_PY.read_text()) == []


def test_row_tolerance_is_the_allowance():
    """The recorded tolerance is both bars plus 2^(1-prec)(|lhs| + |rhs|)."""
    rep = Report(config={}, prec_bits=64, tolerance="1e-8")
    with workprec(64):
        one, bar = mpf(1), mpf("1e-10")
        inside = rep.row("inside", {}, Estimate(one, bar), Estimate(one + mpf("1.5e-10"), bar))
        outside = rep.row("outside", {}, Estimate(one, bar), Estimate(one + mpf("3e-10"), bar))
        assert inside.tolerance == 2 * bar + mpf(2) ** -63 * (2 + mpf("1.5e-10"))
    assert inside.passed and not outside.passed


def test_worst_row_takes_the_largest_gap_over_allowance():
    """Index 0 has the larger gap, but within its bar; index 1 is decisive."""
    rep = Report(config={}, prec_bits=64, tolerance="1e-8")
    with workprec(64):
        sides = [(0, Estimate(mpf(1), mpf("1e-3")), Estimate(mpf(1) + mpf("5e-4"), mpf(0))),
                 (1, Estimate(mpf(1), mpf(0)), Estimate(mpf(1) + mpf("1e-6"), mpf(0)))]
    rec = rep.worst_row("w", {"config": "x"}, "n", sides)
    assert rec.inputs == {"config": "x", "n": 1}
    assert not rec.passed


def test_worst_row_shows_the_index_closest_to_failing_when_all_pass():
    """An exact 0 = 0 (gap and allowance both 0) ranks below a gap that
    uses a tenth of its allowance; largest gap less allowance took index 0."""
    rep = Report(config={}, prec_bits=128, tolerance="1e-8")
    with workprec(128):
        sides = [(0, exact(0), exact(0)),
                 (1, Estimate(mpf(1), mpf("1e-10")), exact(1 + mpf("1e-11")))]
    rec = rep.worst_row("w", {}, "n", sides)
    assert rec.inputs == {"n": 1}
    assert rec.passed


def test_worst_row_ranks_a_gap_over_no_allowance_first_and_ties_by_index():
    rep = Report(config={}, prec_bits=64, tolerance="1e-8")
    with workprec(64):
        zero, off = (exact(0), exact(0)), (exact(0), exact(mpf("1e-30")))
        wide = (Estimate(mpf(1), mpf(1)), exact(mpf(2)))
    assert rep.worst_row("w", {}, "n", [(0, *wide), (1, *off), (2, *wide)]).inputs == {"n": 1}
    assert rep.worst_row("w", {}, "n", [(0, *zero), (1, *zero)]).inputs == {"n": 0}
    assert rep.worst_row("w", {}, "n", [(0, *wide), (1, *zero), (2, *wide)]).inputs == {"n": 0}


def _off_and_sure(fn):
    """fn with its value moved by 1e-20 and its claimed error set to 0."""
    def wrong(*args, **kwargs):
        est = fn(*args, **kwargs)
        return Estimate(est.value + mpf("1e-20"), mpf(0))
    return wrong


def test_main2_fails_when_a_side_claims_too_little(monkeypatch):
    """A radial limit 1e-20 off that claims no error fails the main2 row;
    the 1e-6 tolerance it passed by before would have hidden it."""
    cfg = config_chi(2, 3, 1, 1)
    assert suites.run_suite("main2", cfg, CTX, alpha=Fraction(1, 2)).all_passed
    monkeypatch.setattr(suites, "theta_radial_limit", _off_and_sure(suites.theta_radial_limit))
    assert not suites.run_suite("main2", cfg, CTX, alpha=Fraction(1, 2)).all_passed


def test_strange_fails_when_a_side_claims_too_little(monkeypatch):
    """The same for the strange identity, whose 1e-8 tolerance hid it."""
    config = StrangeConfig("hikami", 2, 0)
    assert verify_strange(config, Fraction(1, 5), CTX).passed
    monkeypatch.setattr(habiro, "theta_radial_limit", _off_and_sure(habiro.theta_radial_limit))
    assert not verify_strange(config, Fraction(1, 5), CTX).passed
    report = suites.run_suite("strange", config_chi(2, 3, 1, 1), CTX, alpha=Fraction(1, 5))
    assert not report.all_passed
