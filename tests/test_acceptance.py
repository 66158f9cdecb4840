"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

from fractions import Fraction

from mpmath import mp, mpf, mpc, workprec

from reference import (boundary_median_extrapolated, colored_jones_trefoil, even_bernoulli_sum,
                       poly_fit_origin, support_set, trefoil_explicit_borel,
                       verify_modular_transform)
from thetaresum.borel import borel_coefficients, borel_eval, hadamard_oracle
from thetaresum.config import config_chi, trefoil_chi, trefoil_strange
from thetaresum.exact import series_coefficients
from thetaresum.habiro import (RootOfUnity, StrangeConfig, kontsevich_zagier_eval,
                               verify_strange)
from thetaresum.periodic import ChiParams, chi_function, pair_set, verify_decomposition
from thetaresum.precision import PrecisionContext, frac_to_mp
from thetaresum.qseries import ThetaSpec, eichler_integral, theta_radial_limit
from thetaresum.resum import (boundary_median, discontinuity, lateral_sum, median_sum,
                              tilde_dirichlet_blocks)

ST_LIST = [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5), (3, 8)]


def report(num, name, worst, tol, extra=""):
    ok = worst <= tol
    line = (f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} "
            f"(worst={mp.nstr(mpf(worst), 3)}, tol={mp.nstr(mpf(tol), 3)})")
    if extra:
        line += f" {extra}"
    print(line)
    assert ok, line
    return ok


def test_criterion_01_coefficient_exactness():
    ser = trefoil_strange().series(4)
    assert ser.C == (1, 23, 1681, 257543)

    # independent oracle: truncated Habiro-side sums along t -> 0+, fitted by
    # exact polynomial extrapolation in tau = t/24
    with workprec(220):
        def oracle(t):
            q = mp.exp(-t)
            nstar = int(8 / t) + 2
            acc = term = mpf(1)
            for n in range(1, nstar + 1):
                term *= 1 - q ** n
                acc += term
            return mp.exp(-t / 24) * acc

        ts = [mpf("0.05") * mpf("0.75") ** j for j in range(10)]
        coeffs = poly_fit_origin([t / 24 for t in ts], [oracle(t) for t in ts], 2)
        err0 = abs(coeffs[0] - 1)
        err1 = abs(coeffs[1] - 23) / 23
    report(1, "coefficient-exactness", max(err0, err1), mpf("1e-6"),
           extra="(C0..C3 exact; Richardson C0/C1 to >= 6 digits)")


def test_criterion_02_borel_taylor_vs_closed_form():
    ctx = PrecisionContext(prec=128, tol=1e-13)
    from thetaresum.resum import tilde_dirichlet
    worst = mpf(0)
    with ctx.working():
        for cfg in (trefoil_strange(), config_chi(3, 4, 1, 1)):
            ser = cfg.series(24)
            tilde = ser.tilde.table()
            coeffs = borel_coefficients(ser, 20)
            M, b = ser.f.M, ser.b
            A = mp.pi ** 2 / M ** 2
            c = frac_to_mp(ser.f.c)
            pref = 3 * mp.pi * c / (M ** 2 * b)
            binom = mpf(1)
            for n in range(20):
                closed = pref * binom * mpf(b) ** (-n) * A ** (-mpf("2.5") - n) \
                    * tilde_dirichlet(tilde, [(4 + 2 * n, 1)]).value
                exact = frac_to_mp(coeffs[n])
                worst = max(worst, abs(closed - exact) / abs(exact))
                binom = binom * (mpf("2.5") + n) / (n + 1)
    report(2, "borel-closed-form-vs-taylor", worst, mpf("1e-12"))


def test_criterion_03_explicit_trefoil_transform():
    ctx = PrecisionContext(prec=128, tol=1e-14)
    ser = trefoil_strange().series(24)
    worst = mpf(0)
    with ctx.working():
        for p in (mpc(0), mpc(-1), mpc(1, 1), mp.pi ** 2 / 12):
            gen = borel_eval(ser, p, ctx).value
            explicit = trefoil_explicit_borel(p, ctx).value
            worst = max(worst, abs(gen - explicit))
        at0 = abs(borel_eval(ser, mpc(0), ctx).value - mpf(23) / 24)
        worst = max(worst, at0)
    report(3, "explicit-trefoil-transform", worst, mpf("1e-12"))


def test_criterion_04_hadamard_factorisation():
    worst = 0
    for cfg in (trefoil_strange(), config_chi(3, 4, 1, 1)):
        ser = cfg.series(40)
        had = hadamard_oracle(ser, 31)
        ref = borel_coefficients(ser, 31)
        worst = max(worst, max(abs(u - v) for u, v in zip(had, ref)))
    report(4, "hadamard-factorisation", mpf(worst), mpf(0),
           extra="(exact rational equality, n <= 30)")


def test_criterion_05_discontinuity_identity():
    ctx = PrecisionContext(prec=96, tol=1e-9)
    worst = mpf(0)
    with ctx.working():
        for cfg in (trefoil_strange(), config_chi(3, 4, 1, 1)):
            ser = cfg.series(12)
            for x in (mpf("0.5"), mpf(1), mpc(1, "0.25")):
                d = discontinuity(ser, x, ctx)
                worst = max(worst, abs(d.numeric.value - d.closed_form.value))
    report(5, "discontinuity-identity", worst, mpf("1e-8"))


def test_criterion_06_constant_identity():
    worst = mpf(0)
    with workprec(140):
        for cfg in (trefoil_strange(), config_chi(3, 4, 1, 1)):
            ser = cfg.series(4)
            blocks = tilde_dirichlet_blocks(ser.tilde.table(), 2, mpf("1e-11"))
            c = frac_to_mp(ser.f.c)
            rhs = 2 * ser.f.M * c / mp.pi ** 2 * blocks.value
            worst = max(worst, abs(frac_to_mp(ser.c_m) - rhs))
    report(6, "constant-identity", worst, mpf("1e-10"))


def test_criterion_07_median_consistency():
    ctx = PrecisionContext(prec=96, tol=1e-11)
    ser = trefoil_strange().series(12)
    worst = mpf(0)
    with ctx.working():
        for x in (mpf(1), mpf(2), mpf(10)):
            sp = lateral_sum(ser, x, "plus", ctx)
            sm = lateral_sum(ser, x, "minus", ctx)
            md = median_sum(ser, x, ctx)
            worst = max(worst, abs(md.value - (sp.value + sm.value) / 2))
    report(7, "median-consistency", worst, mpf("1e-9"))


def test_criterion_08_decomposition_residuals():
    ctx = PrecisionContext(prec=96, tol=1e-12)
    worst = mpf(0)
    for (s, t) in ST_LIST:
        for nm in pair_set(s, t):
            rep = verify_decomposition(s, t, nm, ctx)
            worst = max(worst, max(abs(lhs.value - rhs.value) for _, lhs, rhs in rep.sides))
            assert rep.passed and rep.vanishing.value == 0
    report(8, "keyform-decomposition", worst, mpf("1e-12"))


def test_criterion_09_support_cardinality():
    for (s, t) in ST_LIST:
        vals = support_set(s, t)
        assert len(vals) == len(set(vals)) == 2 * (s - 1) * (t - 1)
    report(9, "support-set-cardinality", mpf(0), mpf(0),
           extra=f"(exact, {len(ST_LIST)} pairs)")


def test_criterion_10_modular_transform():
    ctx = PrecisionContext(prec=128, tol=1e-11)
    worst = mpf(0)
    with ctx.working():
        for (s, t) in ((2, 3), (3, 4)):
            for nm in pair_set(s, t):
                for z in (mpc(0, 1), mpc(0, 2), mpc(0, mpf(1) / 3)):
                    rep = verify_modular_transform(s, t, nm, z, ctx)
                    worst = max(worst, rep.residual)
    report(10, "modular-transform", worst, mpf("1e-10"))


def test_criterion_11_eichler_identities():
    ctx = PrecisionContext(prec=96, tol=1e-9)
    worst = mpf(0)
    with ctx.working():
        chi = chi_function(ChiParams(2, 3, 1, 1))
        for alpha in (Fraction(1), Fraction(1, 2)):
            lhs = eichler_integral(2, 3, (1, 1), frac_to_mp(alpha), alpha, ctx).value
            rhs = -theta_radial_limit(ThetaSpec(a=0, b=24, nu=1, f=chi),
                                      alpha, ctx).value / 2
            worst = max(worst, abs(lhs - rhs))
        z = mpc(0, -1)
        ph = eichler_integral(2, 3, (1, 1), z, "conj", ctx).value
        r0 = eichler_integral(2, 3, (1, 1), z, Fraction(0), ctx).value
        worst = max(worst, abs(ph + (1 / (1j * z)) ** mpf("1.5") * ph - r0))
    report(11, "eichler-identities", worst, mpf("1e-6"))


def test_criterion_12_boundary_median_end_to_end():
    ctx = PrecisionContext(prec=96, tol=1e-9)
    ctx_ex = PrecisionContext(prec=96, tol=1e-7)
    cases = [(config_chi(2, 3, 1, 1),
              [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(-1, 2)]),
             (config_chi(3, 4, 1, 1), [Fraction(1), Fraction(1, 2)])]
    worst_id = mpf(0)
    worst_ex = mpf(0)
    with ctx.working():
        eps = [mpf("1e-3") * mpf(2) ** (-k) for k in range(5)]
        for cfg, alphas in cases:
            ser = cfg.series(8)
            for alpha in alphas:
                bm = boundary_median(ser, alpha, ctx)
                rl = theta_radial_limit(ThetaSpec(a=0, b=cfg.b, nu=1, f=cfg.f),
                                        alpha, ctx)
                worst_id = max(worst_id, abs(bm.value - rl.value))
                ex = boundary_median_extrapolated(ser, alpha, ctx_ex, eps_values=eps)
                worst_ex = max(worst_ex, abs(bm.value - ex.value))
    report(12, "boundary-median-vs-radial-limit", worst_id, mpf("1e-6"),
           extra=f"(interior extrapolation worst={mp.nstr(worst_ex, 3)}, tol 1e-4)")
    assert worst_ex <= mpf("1e-4")


def test_criterion_13_strange_identities():
    ctx = PrecisionContext(prec=128, tol=1e-12)
    worst_tref = mpf(0)
    for N in range(1, 13):
        rep = verify_strange(StrangeConfig("trefoil"), Fraction(1, N), ctx)
        worst_tref = max(worst_tref, abs(rep.habiro_side - rep.theta_side))
    worst_hik = mpf(0)
    for u in (1, 2, 3):
        for ell in range(u):
            for N in range(1, 9):
                rep = verify_strange(StrangeConfig("hikami", u, ell),
                                     Fraction(1, N), ctx)
                worst_hik = max(worst_hik, abs(rep.habiro_side - rep.theta_side))
    report(13, "strange-identities", worst_tref, mpf("1e-10"),
           extra=f"(hikami worst={mp.nstr(worst_hik, 3)}, tol 1e-8)")
    assert worst_hik <= mpf("1e-8")


def test_criterion_14_colored_jones_prefactor():
    ctx = PrecisionContext(prec=128, tol=1e-22)
    worst = mpf(0)
    with ctx.working():
        for N in range(2, 21):
            J = colored_jones_trefoil(N, ctx)
            phi = kontsevich_zagier_eval(RootOfUnity(1, N), ctx)
            worst = max(worst, abs(RootOfUnity(1, N).zeta() * phi - J))
    report(14, "colored-jones-prefactor", worst, mpf("1e-20"))


def test_criterion_15_generating_identity():
    f = trefoil_strange().f
    M = f.M
    with workprec(300):
        rng = 20240817
        worst = mpf(0)
        for _ in range(20):
            rng = (rng * 6364136223846793005 + 1442695040888963407) % 2 ** 63
            mag = (mpf(rng % 10 ** 6) / 10 ** 6) * mpf("0.7") + mpf("0.05")
            rng = (rng * 6364136223846793005 + 1442695040888963407) % 2 ** 63
            ang = mpf(rng % 10 ** 6) / 10 ** 6 * 2
            y = mag * (2 * mp.pi / M) * mp.expjpi(ang)
            lhs = mpc(0)
            n = 0
            ratio = abs(y) * M / (2 * mp.pi)
            while True:
                lhs += even_bernoulli_sum(f, n) * (1j * M * y) ** (2 * n + 2) \
                    / mp.factorial(2 * n + 2)
                n += 1
                if 4 * mp.zeta(2 * n + 2) * ratio ** (2 * n + 2) < mpf(2) ** -280:
                    break
            lhs = lhs / (M * y)
            rhs = -2 * frac_to_mp(f.c) * mp.sin((f.k2 - f.k1) * y / 2) \
                * mp.sin((M - f.k1 - f.k2) * y / 2) / mp.sin(M * y / 2)
            worst = max(worst, abs(lhs - rhs))
    report(15, "generating-identity", worst, mpf("1e-20"))
