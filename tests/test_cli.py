"""CLI surface: suites, exports, eval, exit codes, deterministic reports."""

import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import thetaresum
from thetaresum.cli import main
from thetaresum.config import (FAMILIES, config_chi, config_general, config_hikami,
                               config_t3_2k)


def run_cli(args):
    return main(args)


def child_env(**extra):
    """The caller's environment for a child Python, plus ``extra``.

    The directory holding the ``thetaresum`` package this process imported
    goes first on ``PYTHONPATH``, so the child runs the code under test
    whether or not it is installed and whatever the working directory.
    """
    env = dict(os.environ)
    root = str(Path(thetaresum.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p)
    env.update(extra)
    return env


class TestVerify:
    def test_strange_suite_passes(self, capsys):
        rc = run_cli(["verify", "--suite", "strange", "--family", "hikami",
                      "--u", "1", "--l", "0", "--alpha", "1/2", "--prec", "96"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[pass] strange.identity" in out

    def test_noncoprime_is_usage_error(self, capsys):
        rc = run_cli(["verify", "--suite", "gentor", "--family", "chi",
                      "--s", "4", "--t", "6", "--n", "1", "--m", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "coprime" in err

    def test_over_budget_strange_check_is_usage_error(self, capsys):
        rc = run_cli(["verify", "--suite", "strange", "--family", "hikami",
                      "--u", "3", "--l", "0", "--alpha", "1/200"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "error: estimated cost (u-1)*N^3 + N^2 = 16040000 exceeds budget" in captured.err
        assert "Traceback" not in captured.err + captured.out

    def test_missing_family_params(self):
        rc = run_cli(["verify", "--suite", "coeffs", "--family", "chi"])
        assert rc == 2

    def test_main2_suite(self, capsys):
        rc = run_cli(["verify", "--suite", "main2", "--family", "chi",
                      "--s", "2", "--t", "3", "--n", "1", "--m", "1",
                      "--alpha", "1", "--prec", "96"])
        assert rc == 0

    def test_extrapolate_flag_is_gone(self, capsys):
        """The interior Richardson oracle lives with the tests, not the CLI."""
        with pytest.raises(SystemExit) as exc:
            run_cli(["verify", "--suite", "main2", "--family", "chi", "--s", "2",
                     "--t", "3", "--n", "1", "--m", "1", "--alpha", "1", "--extrapolate"])
        assert exc.value.code == 2
        assert "--extrapolate" in capsys.readouterr().err

    def test_eichler_suite_passes_at_default_precision(self, capsys, monkeypatch):
        """Both boundary values and the cocycle at 128 bits, each within its two
        sides' error bars."""
        monkeypatch.delenv("THETARESUM_PREC", raising=False)
        rc = run_cli(["verify", "--suite", "eichler", "--family", "chi",
                      "--s", "2", "--t", "3", "--n", "1", "--m", "1"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "3/3 checks passed" in out

    def test_report_bytes_deterministic(self, tmp_path):
        args = ["verify", "--suite", "cm", "--family", "hikami", "--u", "1",
                "--l", "0", "--prec", "96"]
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert run_cli(args + ["--out", str(p1)]) == 0
        assert run_cli(args + ["--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()
        payload = json.loads(p1.read_text())
        assert payload["schema"] == "thetaresum-report/2"
        assert payload["all_passed"] is True
        rec = payload["checks"][0]
        assert set(rec) >= {"name", "inputs", "lhs", "rhs", "abs_error",
                            "tolerance", "pass"}
        assert "wall_time_ms" not in rec  # timings only with --timings

    def test_timings_flag_adds_wall_time(self, tmp_path):
        p = tmp_path / "r.json"
        rc = run_cli(["verify", "--suite", "cm", "--family", "hikami", "--u", "1",
                      "--l", "0", "--prec", "96", "--timings", "--out", str(p)])
        assert rc == 0
        payload = json.loads(p.read_text())
        assert "wall_time_ms" in payload["checks"][0]


class TestExport:
    def test_trefoil_coefficients_csv(self, tmp_path):
        p = tmp_path / "c.csv"
        rc = run_cli(["export", "--what", "coefficients", "--count", "4",
                      "--family", "hikami", "--u", "1", "--l", "0",
                      "--format", "csv", "--out", str(p)])
        assert rc == 0
        rows = p.read_text().strip().splitlines()
        assert rows[0].startswith("n,")
        got = [r.split(",")[1] for r in rows[1:]]
        assert got == ["1", "23", "1681", "257543"]

    def test_singularities_json(self, tmp_path):
        p = tmp_path / "s.json"
        rc = run_cli(["export", "--what", "singularities", "--count", "3",
                      "--family", "hikami", "--u", "1", "--l", "0",
                      "--out", str(p)])
        assert rc == 0
        payload = json.loads(p.read_text())
        ells = [row["ell"] for row in payload["rows"]]
        assert ells == [1, 5, 7]
        first = float(payload["rows"][0]["position"])
        assert abs(first - 1.6449340668) < 1e-6  # pi^2/6

    def test_zero_count_usage_error(self):
        rc = run_cli(["export", "--what", "coefficients", "--count", "0",
                      "--family", "hikami", "--u", "1", "--l", "0"])
        assert rc == 2

    def test_float_columns_have_report_digits(self, capsys):
        """At 196 bits an export prints as many digits as verify and eval do
        (report.number_json), not one fewer."""
        from thetaresum.borel import borel_coefficients, singularities
        from thetaresum.precision import PrecisionContext, to_mpf
        from thetaresum.report import number_json
        ctx = PrecisionContext(prec=196)
        series = config_hikami(1, 0).series(8)
        printed = {}
        for what, column in (("borel-taylor", "g_n_float"), ("singularities", "position")):
            rc = run_cli(["export", "--what", what, "--count", "3", "--family", "hikami",
                          "--u", "1", "--l", "0", "--prec", "196"])
            assert rc == 0
            printed[what] = [row[column]
                             for row in json.loads(capsys.readouterr().out)["rows"]]
        positions = [x for _, x in singularities(series, 3, ctx)]
        with ctx.working():
            want = {"borel-taylor": [number_json(to_mpf(g), 196)["re"]
                                     for g in borel_coefficients(series, 3)],
                    "singularities": [number_json(x, 196)["re"] for x in positions]}
        assert printed == want
        assert all(len(v.replace(".", "")) == 61 for v in want["singularities"])


# argv of each family, and the configuration it must build
FAMILY_CASES = [
    ("general", ["--c", "-1/2", "--M", "12", "--k1", "1", "--k2", "5", "--a", "1",
                 "--b", "24"], lambda: config_general(Fraction(-1, 2), 12, 1, 5, 1, 24)),
    ("chi", ["--s", "2", "--t", "3", "--n", "1", "--m", "1"],
     lambda: config_chi(2, 3, 1, 1)),
    ("chi", ["--s", "2", "--t", "3", "--n", "1", "--m", "1", "--c", "-1/2", "--a", "1",
             "--b", "48"], lambda: config_chi(2, 3, 1, 1, c=Fraction(-1, 2), a=1, b=48)),
    ("hikami", ["--u", "2", "--l", "1"], lambda: config_hikami(2, 1)),
    ("t3-2k", ["--k", "2"], lambda: config_t3_2k(2)),
]


def _without(argv, flag):
    i = argv.index(f"--{flag}")
    return argv[:i] + argv[i + 2:]


class TestFamilies:
    """Every family of config.FAMILIES is built through the CLI."""

    def test_cases_cover_every_family_and_optional_flag(self):
        assert {fam for fam, _, _ in FAMILY_CASES} == set(FAMILIES)
        for fam, (_, _, optional) in FAMILIES.items():
            given = {w[2:] for f, argv, _ in FAMILY_CASES if f == fam for w in argv[::2]}
            assert set(optional) <= given, fam

    @pytest.mark.parametrize("fam,argv,build", FAMILY_CASES,
                             ids=["general", "chi", "chi-optional", "hikami", "t3-2k"])
    def test_export_builds_the_family(self, fam, argv, build, capsys):
        rc = run_cli(["export", "--what", "coefficients", "--count", "2",
                      "--family", fam] + argv)
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"] == build().describe()

    @pytest.mark.parametrize("fam,flag", [(fam, flag) for fam, (_, required, _)
                                          in FAMILIES.items() for flag in required])
    def test_missing_flag_is_named(self, fam, flag, capsys):
        argv = next(argv for f, argv, _ in FAMILY_CASES if f == fam)
        rc = run_cli(["export", "--what", "coefficients", "--count", "2",
                      "--family", fam] + _without(argv, flag))
        assert rc == 2
        assert capsys.readouterr().err == f"error: family {fam} needs --{flag}\n"

    @pytest.mark.parametrize("fam,extra", [
        ("general", ["--s", "9"]),
        ("chi", ["--u", "1", "--k", "7"]),
        ("hikami", ["--k", "7", "--s", "9"]),
        ("t3-2k", ["--c", "2", "--l", "0"]),
    ])
    def test_flag_of_another_family_is_a_usage_error(self, fam, extra, capsys):
        """A flag that only other families take is refused, and named."""
        argv = next(argv for f, argv, _ in FAMILY_CASES if f == fam)
        rc = run_cli(["export", "--what", "coefficients", "--count", "2",
                      "--family", fam] + argv + extra)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: family {fam} does not take --"), err
        assert set(re.findall(r"--(\w+)", err)) == {w[2:] for w in extra[::2]}

    def test_readme_table_matches_registry(self):
        """The README's family table lists each family's required flags, and
        its optional flags in brackets, as config.FAMILIES has them."""
        readme = Path(__file__).resolve().parents[1] / "README.md"
        rows = re.findall(r"^\| `([^`]+)` +\| `([^`]+)` +\|", readme.read_text(), re.M)
        table = {}
        for fam, flags in rows:
            required, _, optional = flags.partition("[")
            table[fam] = (tuple(f[2:] for f in required.split()),
                          tuple(f[2:] for f in optional.rstrip("]").split()))
        assert table == {fam: (required, optional)
                         for fam, (_, required, optional) in FAMILIES.items()}


class TestEval:
    def test_boundary_value(self, tmp_path):
        p = tmp_path / "b.json"
        rc = run_cli(["eval", "--quantity", "boundary", "--family", "chi",
                      "--s", "2", "--t", "3", "--n", "1", "--m", "1",
                      "--alpha", "1", "--prec", "96", "--out", str(p)])
        assert rc == 0
        payload = json.loads(p.read_text())
        # -2 e^{i pi/12} = -1.93185... - 0.51764...i
        assert abs(float(payload["value"]["re"]) + 1.9318516525781366) < 1e-9
        assert abs(float(payload["value"]["im"]) + 0.5176380902050415) < 1e-9
        assert "err" in payload["value"]

    def test_smed_real_point(self, capsys):
        rc = run_cli(["eval", "--quantity", "smed", "--family", "hikami",
                      "--u", "1", "--l", "0", "--x", "2", "--prec", "96"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(float(payload["value"]["re"]) - 1.6475734860322) < 1e-9
        assert float(payload["value"]["im"]) == 0

    def test_point_is_read_at_context_precision(self, capsys):
        """--p 0.1 is the 256-bit 0.1, not the double 0.1 + 5.55e-18."""
        from mpmath import mpf, workprec
        from thetaresum.borel import borel_eval
        from thetaresum.config import config_hikami
        from thetaresum.precision import PrecisionContext
        from thetaresum.report import number_json
        rc = run_cli(["eval", "--quantity", "borel", "--family", "hikami", "--u", "1",
                      "--l", "0", "--p", "0.1", "--prec", "256"])
        assert rc == 0
        ctx = PrecisionContext(prec=256)
        with workprec(256):
            p = mpf("0.1")
        est = borel_eval(config_hikami(1, 0).series(12), p, ctx)
        with ctx.working():
            want = number_json(est.value, 256, est.error)
        assert json.loads(capsys.readouterr().out)["value"] == want

    @pytest.mark.parametrize("text", ["1+", "(1+2j)", "nan", "1j2", "0x1"])
    def test_malformed_point_is_usage_error(self, text, capsys):
        rc = run_cli(["eval", "--quantity", "smed", "--family", "hikami", "--u", "1",
                      "--l", "0", "--x", text])
        assert rc == 2
        assert "complex literal" in capsys.readouterr().err

    def test_missing_point_is_usage_error(self):
        rc = run_cli(["eval", "--quantity", "smed", "--family", "hikami",
                      "--u", "1", "--l", "0"])
        assert rc == 2

    @pytest.mark.parametrize("flags,message", [
        (["--tol", "abc"], "abc"),
        (["--tol=-1e-8"], "finite and positive"),
        (["--tol", "nan"], "finite and positive"),
        (["--prec", "10"], "24 bits"),
    ])
    def test_bad_precision_or_tolerance_is_usage_error(self, flags, message, capsys):
        rc = run_cli(["eval", "--quantity", "smed", "--family", "hikami",
                      "--u", "1", "--l", "0", "--x", "2"] + flags)
        assert rc == 2
        assert message in capsys.readouterr().err

    def test_bad_precision_variable_is_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "thetaresum", "eval", "--quantity", "smed",
             "--family", "hikami", "--u", "1", "--l", "0", "--x", "2"],
            capture_output=True, text=True, timeout=300,
            env=child_env(THETARESUM_PREC="abc"))
        assert proc.returncode == 2, proc.stderr
        assert "THETARESUM_PREC" in proc.stderr and "Traceback" not in proc.stderr

    def test_bad_precision_variable_warns_library_users(self):
        """Imported as a library, a bad THETARESUM_PREC is named in a warning
        and the default context falls back to 128 bits."""
        proc = subprocess.run(
            [sys.executable, "-c",
             "from thetaresum.precision import DEFAULT_CTX; print(DEFAULT_CTX.prec)"],
            capture_output=True, text=True, timeout=300,
            env=child_env(THETARESUM_PREC="abc"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "128"
        assert "UserWarning" in proc.stderr and "THETARESUM_PREC" in proc.stderr
        assert "'abc'" in proc.stderr


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "thetaresum", "verify", "--suite", "coeffs",
             "--family", "hikami", "--u", "1", "--l", "0", "--prec", "96"],
            capture_output=True, text=True, timeout=300, env=child_env())
        assert proc.returncode == 0
        assert "checks passed" in proc.stdout


class TestScripts:
    """The scripts under scripts/ still run against the library."""

    SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

    def _run(self, name, *args):
        proc = subprocess.run([sys.executable, str(self.SCRIPTS / name), *args],
                              capture_output=True, text=True, timeout=300, env=child_env())
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_boundary_profile(self):
        lines = self._run("boundary_profile.py", "--steps", "3", "--prec", "64").splitlines()
        assert lines[0] == "eps,re,im,abs_gap_to_boundary"
        assert len(lines) == 4 and all(len(row.split(",")) == 4 for row in lines[1:])

    def test_export_trefoil_tables(self, tmp_path):
        self._run("export_trefoil_tables.py", "--count", "4", "--outdir", str(tmp_path))
        written = sorted(tmp_path.iterdir())
        assert [p.name for p in written] == ["trefoil_borel_taylor.csv",
                                             "trefoil_coefficients.csv",
                                             "trefoil_singularities.csv"]
        for p in written:
            assert len(p.read_text().splitlines()) == 5, p.name  # header and 4 rows


class TestBenchmarkTracer:
    def test_every_target_resolves(self):
        """Each (module, attribute path) the benchmark's span tracer wraps
        exists where its install() looks: a class attribute in the class's
        own namespace, anything else by getattr."""
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        assert tracing.TARGETS
        for _, modname, attrs in tracing.TARGETS:
            owner = importlib.import_module(modname)
            *parents, attr = attrs.split(".")
            for name in parents:
                owner = getattr(owner, name)
            found = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr)
            assert callable(getattr(found, "fget", found)), (modname, attrs)


class TestReportSemantics:
    def test_failing_check_drives_nonzero_exit_logic(self):
        from mpmath import mpf
        from thetaresum.report import Report
        rep = Report(config={}, prec_bits=64, tolerance="1e-10")
        rep.add("synthetic", {}, 1, 2, mpf("1e-10"))
        assert not rep.all_passed
        assert rep.summary() == {"total": 1, "passed": 0, "failed": 1}

    def test_residual_below_double_resolution_fails(self):
        """lhs, rhs and |lhs - rhs| are kept at the report's precision."""
        from mpmath import mpf, workprec
        from thetaresum.report import Report
        with workprec(160):
            lhs, rhs = mpf(1), mpf(1) + mpf("8e-31")
        # added at the caller's (ambient) precision
        rep = Report(config={}, prec_bits=160, tolerance="1e-40")
        rec = rep.add("gap", {}, lhs, rhs, mpf("1e-40"))
        assert not rep.all_passed
        with workprec(160):
            assert abs(rec.abs_error - mpf("8e-31")) < mpf("1e-45")
        assert rep.to_json()["checks"][0]["abs_error"] == "8.0e-31"

    def test_report_json_byte_identical_across_runs(self, tmp_path):
        from thetaresum.config import config_hikami
        from thetaresum.precision import PrecisionContext
        from thetaresum.suites import run_suite
        ctx = PrecisionContext(prec=128, tol=1e-8)
        paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
        for p in paths:
            run_suite("cm", config_hikami(1, 0), ctx).write_json(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_suites_compute_at_context_precision(self, monkeypatch):
        from mpmath import mp
        from thetaresum import resum
        from thetaresum.config import config_hikami
        from thetaresum.precision import PrecisionContext
        from thetaresum.suites import run_suite
        seen = []
        for name in ("tilde_dirichlet", "tilde_dirichlet_blocks"):
            fn = getattr(resum, name)

            def recording(*args, _fn=fn, **kwargs):
                seen.append(mp.prec)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(resum, name, recording)
        ctx = PrecisionContext(prec=128, tol=1e-8)
        for suite in ("cm", "borel"):
            assert run_suite(suite, config_hikami(1, 0), ctx).all_passed
        assert seen and min(seen) >= ctx.prec

    def test_env_var_sets_default_precision(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "from thetaresum.precision import default_prec; print(default_prec())"],
            capture_output=True, text=True,
            env=child_env(THETARESUM_PREC="160"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "160"


class TestEvalTheta:
    def test_theta_upper_half_point(self, capsys):
        rc = run_cli(["eval", "--quantity", "theta", "--family", "chi",
                      "--s", "2", "--t", "3", "--n", "1", "--m", "1",
                      "--nu", "0", "--x", "1j", "--prec", "96"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(float(payload["value"]["im"])) < 1e-12  # real on the imaginary axis

    def test_unknown_suite_rejected(self):
        import pytest
        with pytest.raises(SystemExit):
            run_cli(["verify", "--suite", "bogus", "--family", "chi",
                     "--s", "2", "--t", "3", "--n", "1", "--m", "1"])


class TestSignedValues:
    """A negative value may follow its flag as a separate word."""

    @pytest.mark.parametrize("flag,value,rest", [
        ("--alpha", "-1/3", ["--quantity", "boundary", "--family", "chi", "--s", "2",
                             "--t", "3", "--n", "1", "--m", "1"]),
        ("--c", "-1/2", ["--quantity", "theta", "--family", "general", "--M", "12",
                         "--k1", "1", "--k2", "5", "--a", "1", "--b", "24", "--x", "1j"]),
        ("--x", "-0.5+1j", ["--quantity", "theta", "--family", "hikami", "--u", "1",
                            "--l", "0"]),
        ("--p", "-1+0.5j", ["--quantity", "borel", "--family", "hikami", "--u", "1",
                            "--l", "0"]),
    ])
    def test_separate_word_matches_equals_form(self, flag, value, rest, capsys):
        outs = []
        for words in ([flag, value], [f"{flag}={value}"]):
            assert run_cli(["eval"] + rest + words + ["--prec", "64"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_strange_at_negative_alpha(self, capsys):
        rc = run_cli(["verify", "--suite", "strange", "--family", "hikami",
                      "--u", "1", "--l", "0", "--alpha", "-1/3"])
        assert rc == 0
        assert "[pass] strange.identity" in capsys.readouterr().out


class TestReportFormatPolicy:
    def test_verify_rejects_csv_reports(self, capsys):
        rc = run_cli(["verify", "--suite", "coeffs", "--family", "hikami",
                      "--u", "1", "--l", "0", "--format", "csv"])
        assert rc == 2
        assert "series exports" in capsys.readouterr().err
