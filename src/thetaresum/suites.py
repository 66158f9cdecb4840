"""Named verification suites shared by the CLI and the test suite.

Each suite checks a family of identities for one configuration and records
one row per identity through Report.row: a name, its inputs and two sides,
each an Estimate whose bar the library derived (exact values carry zero
bars).  Every row passes by the one rule of report.py, |lhs - rhs| <=
lhs.error + rhs.error + 2^(1-prec)(|lhs| + |rhs|); a suite passes when every
row does.  An identity that holds at every index of a range is recorded at
its worst index (Report.worst_row).  The suites run GUARD_BITS above the
report's precision, and a side that takes their own prefactor arithmetic
ends in .rounded(ctx.prec), which charges it.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp, mpf, mpc

from . import borel as borel_mod
from . import resum as resum_mod
from .config import Config
from .habiro import StrangeConfig, verify_strange
from .periodic import (ChiParams, ConfigError, chi_function, pair_set, s_matrix_entry,
                       verify_decomposition)
from .precision import (FIVE_HALVES, MINUS_HALF, THREE_HALVES, PrecisionContext, as_fraction,
                        exact, frac_to_mp, to_mpf)
from .qseries import ThetaSpec, eichler_integral, theta_radial_limit
from .report import Report, timed


def suite_coeffs(cfg: Config, ctx: PrecisionContext, report: Report, **_):
    series = cfg.series(9)
    with timed() as t:
        pairs = zip(borel_mod.gfp_coefficients(series, 8), borel_mod.borel_coefficients(series, 8))
        sides = [(n, exact(u), exact(v)) for n, (u, v) in enumerate(pairs)]
    report.worst_row("coeffs.gfp-defn-agreement", {"config": cfg.label(), "count": 8}, "n",
                     sides, t.elapsed)
    return report


def suite_borel(cfg: Config, ctx: PrecisionContext, report: Report, **_):
    series = cfg.series(40)
    tilde = series.tilde.table()
    with timed() as t:
        pairs = zip(borel_mod.hadamard_oracle(series, 30), borel_mod.borel_coefficients(series, 30))
        sides = [(n, exact(u), exact(v)) for n, (u, v) in enumerate(pairs)]
    report.worst_row("borel.hadamard-product", {"config": cfg.label(), "count": 30}, "n",
                     sides, t.elapsed)
    with timed() as t:
        coeffs = borel_mod.borel_coefficients(series, 20)
        M, b = series.f.M, series.b
        A = mp.pi ** 2 / M ** 2
        pref = 3 * mp.pi * to_mpf(series.f.c) / (M ** 2 * b)
        binom = resum_mod.five_halves_binomials()
        sides = []
        for n in range(20):
            closed = resum_mod.tilde_dirichlet(tilde, [(4 + 2 * n, 1)]) \
                * (pref * binom[n] * mpf(b) ** (-n) * A ** (-FIVE_HALVES - n))
            sides.append((n, closed.rounded(ctx.prec), exact(coeffs[n])))
    report.worst_row("borel.taylor-vs-closed-form", {"config": cfg.label(), "count": 20}, "n",
                     sides, t.elapsed)
    with timed() as t:
        g0 = borel_mod.borel_eval(series, mpc(0), ctx)
        a1 = exact(borel_mod.borel_coefficients(series, 1)[0])
    report.row("borel.eval-at-0", {"config": cfg.label()}, g0, a1, t.elapsed)
    return report


def suite_disc(cfg: Config, ctx: PrecisionContext, report: Report, **_):
    series = cfg.series(12)
    for x in (mpf("0.5"), mpf(1), mpc(1, "0.25")):
        with timed() as t:
            d = resum_mod.discontinuity(series, x, ctx)
        report.row("disc.jump-identity", {"config": cfg.label(), "x": x},
                   d.numeric, d.closed_form, t.elapsed)
    return report


def suite_cm(cfg: Config, ctx: PrecisionContext, report: Report, **_):
    series = cfg.series(4)
    with timed() as t:
        dirichlet = resum_mod.tilde_dirichlet(series.tilde.table(), [(2, 1)])
        rhs = dirichlet * (2 * series.f.M * to_mpf(series.f.c) / mp.pi ** 2)
    report.row("cm.constant-identity", {"config": cfg.label()}, exact(series.c_m),
               rhs.rounded(ctx.prec), t.elapsed)
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
        inputs = {"s": s, "t": t_, "nm": nm}
        report.worst_row("gentor.keyform", inputs, "k", rep.sides, t.elapsed)
        report.row("gentor.support-vanishing", inputs, rep.vanishing, exact(0), t.elapsed)
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
    report.row("strange.identity",
               {"family": rep.family, "u": rep.u, "l": rep.ell, "alpha": alpha},
               rep.habiro, rep.theta, t.elapsed)
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
    report.row("main2.boundary-median", {"config": cfg.label(), "alpha": alpha}, bm, rl,
               t.elapsed)
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
        report.row("eichler.boundary-value", {"s": s, "t": t_, "nm": nm, "alpha": al},
                   lhs, rl * MINUS_HALF, t.elapsed)
    with timed() as t:
        z = mpc(0, -1)
        pref = (1 / (1j * z)) ** THREE_HALVES
        lhs = eichler_integral(s, t_, nm, z, "conj", ctx)
        for other in pair_set(s, t_):
            lhs = lhs + eichler_integral(s, t_, other, -1 / z, "conj", ctx) \
                * (pref * s_matrix_entry(s, t_, nm, other, ctx))
        rhs = eichler_integral(s, t_, nm, z, Fraction(0), ctx)
    report.row("eichler.cocycle", {"s": s, "t": t_, "nm": nm, "z": z},
               lhs.rounded(ctx.prec), rhs, t.elapsed)
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
SUITES = (*_SUITE_FN, "all")


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
