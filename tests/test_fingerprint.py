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
