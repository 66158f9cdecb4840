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
from mpmath import mpf

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


@pytest.mark.parametrize("name,cfg,alpha", CASES, ids=[name for name, _, _ in CASES])
def test_cm_identity_holds_at_context_precision(name, cfg, alpha):
    """C_M against the closed-form Dirichlet sum of f~ (resum.tilde_dirichlet)
    at the context's precision: at 256 bits the residual falls below 2^-200
    (a fixed 1e-11 target left 1e-16)."""
    record = run_suite("cm", cfg, PrecisionContext(prec=256, tol=1e-8)).checks[0]
    assert record.name == "cm.constant-identity"
    assert record.abs_error < mpf(2) ** -200
