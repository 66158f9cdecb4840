"""The five standard verification reports, byte for byte.

tests/golden/ holds the 128-bit reports of scripts/run_verification.py (its
default precision and tolerance).  A change that moves any printed digit,
error or check outcome fails here; regenerate the files with

    PYTHONPATH=src python scripts/run_verification.py --outdir tests/golden

only when such a change is intended, and say which digits moved and why.
"""

import importlib.util
import pathlib
from fractions import Fraction

import pytest

from thetaresum.precision import PrecisionContext
from thetaresum.suites import run_suite

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


def _script_cases():
    spec = importlib.util.spec_from_file_location(
        "run_verification", ROOT / "scripts" / "run_verification.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CASES


CASES = _script_cases()


@pytest.mark.parametrize("name,cfg,alpha", CASES, ids=[name for name, _, _ in CASES])
def test_report_is_byte_identical(name, cfg, alpha, tmp_path):
    report = run_suite("all", cfg, PrecisionContext(prec=128, tol=1e-8), alpha=Fraction(alpha))
    out = tmp_path / f"{name}.json"
    report.write_json(out)
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()
