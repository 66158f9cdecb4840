"""Named verification suites shared by the CLI and the test suite.

Each suite runs a family of identity checks for one configuration and
appends CheckRecord rows to a Report.  Exit semantics: a suite "passes" when
every residual is at or below its tolerance.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp, mpf, mpc

from . import borel as borel_mod
from . import resum as resum_mod
from .config import Config
from .exact import gevrey_estimate
from .habiro import StrangeConfig, verify_strange
from .periodic import (ChiParams, ConfigError, chi_function, pair_set, s_matrix_entry,
                       verify_decomposition)
from .precision import (FIVE_HALVES, THREE_HALVES, PrecisionContext, as_fraction, frac_to_mp,
                        to_mpf)
from .qseries import ThetaSpec, eichler_integral, theta_radial_limit
from .report import Report, timed

SUITES = ("coeffs", "borel", "disc", "cm", "gentor", "strange", "main2",
          "eichler", "all")


def suite_coeffs(cfg: Config, ctx: PrecisionContext, report: Report, **_):
    series = cfg.series(40)
    with timed() as t:
        gfp = borel_mod.gfp_coefficients(series, 8)
        direct = borel_mod.borel_coefficients(series, 8)
        worst = max(abs(to_mpf(u) - to_mpf(v)) for u, v in zip(gfp, direct))
    report.add("coeffs.gfp-defn-agreement", {"config": cfg.label(), "count": 8},
               worst, mpf(0), mpf(0), t.elapsed)
    with timed() as t:
        fit = gevrey_estimate(series, 40, ctx)
        rel = abs(fit.radius - fit.radius_expected) / fit.radius_expected
    report.add("coeffs.gevrey-radius", {"config": cfg.label()},
               rel, mpf(0), mpf("0.02"), t.elapsed)
    return report


def suite_borel(cfg: Config, ctx: PrecisionContext, report: Report, **_):
    series = cfg.series(40)
    tilde = series.tilde.table()
    with timed() as t:
        had = borel_mod.hadamard_oracle(series, 30)
        direct = borel_mod.borel_coefficients(series, 30)
        worst = max(abs(to_mpf(u) - to_mpf(v)) for u, v in zip(had, direct))
    report.add("borel.hadamard-product", {"config": cfg.label(), "count": 30},
               worst, mpf(0), mpf(0), t.elapsed)
    with timed() as t:
        worst = mpf(0)
        coeffs = borel_mod.borel_coefficients(series, 20)
        M, b = series.f.M, series.b
        A = mp.pi ** 2 / M ** 2
        c = to_mpf(series.f.c)
        pref = 3 * mp.pi * c / (M ** 2 * b)
        binom = mpf(1)
        for n in range(20):
            wsum = resum_mod.tilde_dirichlet(tilde, 4 + 2 * n)
            closed = pref * binom * mpf(b) ** (-n) * A ** (-FIVE_HALVES - n) * wsum
            exact = to_mpf(coeffs[n])
            worst = max(worst, abs(closed - exact) / abs(exact))
            binom = binom * (FIVE_HALVES + n) / (n + 1)
    report.add("borel.taylor-vs-closed-form", {"config": cfg.label(), "count": 20},
               worst, mpf(0), mpf("1e-12"), t.elapsed)
    with timed() as t:
        g0 = borel_mod.borel_eval(series, mpc(0), ctx).value
        a1 = to_mpf(borel_mod.borel_coefficients(series, 1)[0])
    report.add("borel.eval-at-0", {"config": cfg.label()}, g0, a1,
               max(ctx.tolerance(), mpf("1e-20")), t.elapsed)
    return report


def suite_disc(cfg: Config, ctx: PrecisionContext, report: Report, **_):
    series = cfg.series(12)
    for x in (mpf("0.5"), mpf(1), mpc(1, "0.25")):
        with timed() as t:
            d = resum_mod.discontinuity(series, x, ctx)
        report.add("disc.jump-identity", {"config": cfg.label(), "x": x},
                   d.numeric.value, d.closed_form.value, ctx.tolerance(), t.elapsed)
    return report


def suite_cm(cfg: Config, ctx: PrecisionContext, report: Report, **_):
    series = cfg.series(4)
    with timed() as t:
        dirichlet = resum_mod.tilde_dirichlet(series.tilde.table(), 2)
        c = to_mpf(series.f.c)
        rhs = 2 * series.f.M * c / mp.pi ** 2 * dirichlet
        lhs = to_mpf(series.c_m)
    report.add("cm.constant-identity", {"config": cfg.label()}, lhs, rhs,
               mpf("1e-10"), t.elapsed)
    return report


def _require_chi(cfg: Config):
    st = cfg.chi_idx
    if st is None:
        raise ConfigError(f"suite needs a character family config, got {cfg.label()}")
    return st


def suite_gentor(cfg: Config, ctx: PrecisionContext, report: Report, **_):
    s, t_, _, _ = _require_chi(cfg)
    for nm in pair_set(s, t_):
        with timed() as t:
            rep = verify_decomposition(s, t_, nm, ctx)
        report.add("gentor.keyform", {"s": s, "t": t_, "nm": nm},
                   rep.max_residual, mpf(0), rep.tolerance, t.elapsed)
        report.add("gentor.support-vanishing", {"s": s, "t": t_, "nm": nm},
                   mpf(0) if rep.support_ok else mpf(1), mpf(0), mpf(0), t.elapsed)
    return report


def suite_strange(cfg: Config, ctx: PrecisionContext, report: Report,
                  alpha=None, **_):
    if alpha is None:
        raise ConfigError("strange suite needs --alpha")
    alpha = as_fraction(alpha)
    if cfg.habiro is None:
        raise ConfigError(f"no Habiro element attached to {cfg.label()}")
    with timed() as t:
        rep = verify_strange(StrangeConfig(*cfg.habiro), alpha, ctx)
    report.add("strange.identity",
               {"family": rep.family, "u": rep.u, "l": rep.ell, "alpha": alpha},
               rep.habiro_side, rep.theta_side, rep.tolerance, t.elapsed)
    return report


def suite_main2(cfg: Config, ctx: PrecisionContext, report: Report,
                alpha=None, **_):
    st = _require_chi(cfg)
    s, t_ = st[0], st[1]
    if cfg.b != 4 * s * t_:
        raise ConfigError("boundary-value identity needs b = 4st")
    if alpha is None:
        raise ConfigError("main2 suite needs --alpha")
    alpha = as_fraction(alpha)
    series = cfg.series(8)
    with timed() as t:
        bm = resum_mod.boundary_median(series, alpha, ctx)
        rl = theta_radial_limit(ThetaSpec(a=0, b=cfg.b, nu=1, f=cfg.f), alpha, ctx)
    report.add("main2.boundary-median", {"config": cfg.label(), "alpha": alpha},
               bm.value, rl.value, max(ctx.tolerance(), mpf("1e-6")), t.elapsed)
    return report


def suite_eichler(cfg: Config, ctx: PrecisionContext, report: Report,
                  alpha=None, **_):
    s, t_, n, m = _require_chi(cfg)
    nm = (n, m)
    chi = chi_function(ChiParams(s, t_, n, m))
    alphas = [Fraction(1), Fraction(1, 2)] if alpha is None else [as_fraction(alpha)]
    for al in alphas:
        with timed() as t:
            lhs = eichler_integral(s, t_, nm, frac_to_mp(al), al, ctx)
            rl = theta_radial_limit(ThetaSpec(a=0, b=4 * s * t_, nu=1, f=chi), al, ctx)
        report.add("eichler.boundary-value", {"s": s, "t": t_, "nm": nm, "alpha": al},
                   lhs.value, -rl.value / 2, ctx.tolerance(), t.elapsed)
    with timed() as t:
        z = mpc(0, -1)
        lhs = eichler_integral(s, t_, nm, z, "conj", ctx).value
        acc = mpc(0)
        for other in pair_set(s, t_):
            S = s_matrix_entry(s, t_, nm, other, ctx)
            acc += S * eichler_integral(s, t_, other, -1 / z, "conj", ctx).value
        lhs_total = lhs + (1 / (1j * z)) ** THREE_HALVES * acc
        rhs = eichler_integral(s, t_, nm, z, Fraction(0), ctx).value
    report.add("eichler.cocycle", {"s": s, "t": t_, "nm": nm, "z": z},
               lhs_total, rhs, ctx.tolerance(), t.elapsed)
    return report


_SUITE_FN = {
    "coeffs": suite_coeffs,
    "borel": suite_borel,
    "disc": suite_disc,
    "cm": suite_cm,
    "gentor": suite_gentor,
    "strange": suite_strange,
    "main2": suite_main2,
    "eichler": suite_eichler,
}


def run_suite(name: str, cfg: Config, ctx: PrecisionContext, alpha=None) -> Report:
    if name not in SUITES:
        raise ConfigError(f"unknown suite {name!r}; choose from {SUITES}")
    report = Report(config=cfg.describe(), prec_bits=ctx.prec, tolerance=str(ctx.tol))
    # the suite bodies compute outside the library calls too (cm's Dirichlet
    # sum, borel's Taylor comparison): give them the context precision
    with ctx.working():
        if name != "all":
            return _SUITE_FN[name](cfg, ctx, report, alpha=alpha)
        for key in ("coeffs", "borel", "disc", "cm"):
            _SUITE_FN[key](cfg, ctx, report)
        if cfg.chi_idx is not None:
            suite_gentor(cfg, ctx, report)
            if alpha is not None and cfg.b == 4 * cfg.chi_idx[0] * cfg.chi_idx[1]:
                suite_main2(cfg, ctx, report, alpha=alpha)
        if alpha is not None:
            try:
                suite_strange(cfg, ctx, report, alpha=alpha)
            except ConfigError:
                pass  # no Habiro element attached to this family
    return report
