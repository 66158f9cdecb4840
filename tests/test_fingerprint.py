"""scripts/fingerprint.py prints each value's bits as stored."""

import importlib.util
import pathlib
import re

from mpmath import mpc, mpf, workprec

from thetaresum.precision import Estimate

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _script():
    spec = importlib.util.spec_from_file_location("fingerprint", ROOT / "scripts" / "fingerprint.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FINGERPRINT = _script()


def test_a_128_bit_value_keeps_128_bits():
    with workprec(128):
        x = mpf(1) / 3
        est = Estimate(mpc(x, -x), x * 2 ** -100)
    assert x._mpf_[3] == 128
    # printed at 53 bits, the default to which the script once rounded them
    with workprec(53):
        for value, (re_part, im_part) in ((x, (x._mpf_, mpf(0)._mpf_)),
                                          (est, (x._mpf_, (1,) + x._mpf_[1:]))):
            text = FINGERPRINT.line("v", value)
            assert re.search(r"re=(\(.*?\)) im=(\(.*?\))", text).groups() == (
                str(re_part), str(im_part)), text
        assert f"err={est.error._mpf_}" in FINGERPRINT.line("v", est)


def test_compare_flags_only_the_value_outside_its_bars():
    """Two synthetic lines move: one by 1 against bars of 2 + 3, one by 8
    against bars of 1 + 1, whose budget flag also changes and whose error
    grows by 3/2."""
    before = ["a f(1) re=(0, 10, 0, 4) im=(0, 0, 0, 0) err=(0, 1, 1, 1) flag=False",
              "b g(2) re=(0, 3, 0, 2) im=(0, 0, 0, 0) err=(0, 1, 0, 1) flag=False",
              "c g(3) re=(0, 1, 0, 1) im=(0, 0, 0, 0) err=- flag=-"]
    after = ["a f(1) re=(0, 11, 0, 4) im=(0, 0, 0, 0) err=(0, 3, 0, 2) flag=False",
             "b g(2) re=(0, 3, 0, 2) im=(0, 1, 3, 1) err=(0, 1, 0, 1) flag=True",
             "c g(3) re=(0, 1, 0, 1) im=(0, 0, 0, 0) err=- flag=-"]
    report, outside = FINGERPRINT.compare(before, after)
    text = "\n".join(report)
    assert outside == 1, text
    assert report[:3] == ["2 of 3 lines moved", "  f: 1", "  g: 1"], text
    assert "1 values outside their bars (largest gap/(err0 + err1) 4)" in report, text
    assert "  b g(2): gap/(err0 + err1) = 4" in report, text
    assert report[report.index("1 budget flags changed") + 1] == "  b g(2): False -> True", text
    assert report[report.index("1 errors grew") + 1] == "  a f(1): 2 -> 3 (x1.5)", text
