"""Lateral/median resummation, the E-function, jump formula, boundary values."""

import functools
from fractions import Fraction

import pytest
from mpmath import mp, mpf, mpc, workprec

from reference import (E_KAPPA, boundary_median_extrapolated, boundary_median_quadrature,
                       e_limit, lateral_sum_quadrature, median_sum_e_series,
                       optimal_truncation, tilde_dirichlet_blocks_reference,
                       tilde_dirichlet_hurwitz)
from thetaresum import resum
from thetaresum.borel import borel_eval
from thetaresum.config import (config_chi, config_hikami, config_t3_2k, trefoil_chi,
                               trefoil_strange)
from thetaresum.exact import bernoulli_polynomial
from thetaresum.periodic import ChiParams, TildeFunction, chi_function, pair_set
from thetaresum.precision import MINUS_HALF, Estimate, PrecisionContext, frac_to_mp
from thetaresum.qseries import (DomainError, ThetaSpec, eichler_integral, theta_radial_limit,
                                theta_upper_half, twisted_table)
from thetaresum.resum import (_ray_laplace, boundary_median, boundary_point,
                              disc_closed_form, discontinuity, ell_sum,
                              laplace_kernel, lateral_sum, median_sum, special_e,
                              tilde_dirichlet, tilde_dirichlet_blocks)

CTX = PrecisionContext(prec=96, tol=1e-10)
SER = trefoil_strange().series(36)
# the (s, t) pairs of the acceptance suite
ST_LIST = [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5), (3, 8)]


class TestSpecialE:
    @pytest.mark.parametrize("prec", [64, 128, 256])
    def test_matches_erfi_oracle(self, prec):
        """E(y) = y^3 e^{-y^2} erfi(y) - y^2/sqrt(pi), an independent route.

        Evaluated this way, E loses up to |y|^2 log2(e) bits to the product
        e^{-y^2} erfi(y) and about 2 log2|y| more to the subtraction of
        y^2/sqrt(pi); the oracle carries those bits on top.  On the real
        axis E is real, and must come back exactly real.
        """
        ctx = PrecisionContext(prec=prec)
        for r in ("1e-3", "0.3", "1", "3", "7", "20"):
            for ang in (0, Fraction(1, 8), Fraction(-1, 8), Fraction(1, 4), Fraction(-1, 4),
                        Fraction(3, 8)):
                with ctx.working():
                    y = mpf(r) * mp.expjpi(mpf(ang.numerator) / ang.denominator)
                    got = special_e(y, ctx)
                    assert ang or got.imag == 0
                with workprec(prec + int(1.45 * abs(y) ** 2 + 2 * mp.log(abs(y) + 1, 2)) + 40):
                    ref = y ** 3 * mp.exp(-y * y) * mp.erfi(y) - y * y / mp.sqrt(mp.pi)
                    assert abs(got - ref) <= mpf(2) ** (-prec + 4) * abs(ref), (r, ang)

    def test_zero(self):
        assert special_e(0, CTX) == 0

    def test_limit_at_infinity(self):
        with CTX.working():
            lim = e_limit()
            assert abs(lim - mpf(1) / (2 * mp.sqrt(mp.pi))) < mpf(2) ** -90
            for y in (mpf(20), mpf(50)):
                assert abs(special_e(y, CTX) - lim) < 1 / y ** 2

    @pytest.mark.parametrize("prec", [64, 128])
    def test_second_order_bound_constant(self, prec):
        """|E - E_inf - 3/(4 sqrt(pi) y^2)| <= |y|^3 e^{-Re y^2}
        + kappa 15/(8 sqrt(pi) |y|^4) on |y| >= 2, |arg y| < pi/4, the bound
        the E-series oracle's tail rests on.  The smallest kappa that holds
        is about 1.62, at |y| near 3.03 on the real axis."""
        ctx = PrecisionContext(prec=prec)
        worst = mpf(0)
        with ctx.working():
            radii = [2 * mpf(500) ** (mpf(i) / 30) for i in range(31)]
            radii += [mpf(r) for r in ("2.5", "2.8", "3", "3.03", "3.1", "3.3", "3.6")]
            for r in radii:
                for k in range(-20, 21):
                    y = r * mp.expjpi(mpf(k) / 84)
                    d = abs(special_e(y, ctx) - e_limit() - 3 / (4 * mp.sqrt(mp.pi) * y ** 2))
                    excess = d - abs(y) ** 3 * mp.exp(-(y * y).real)
                    worst = max(worst, excess * 8 * mp.sqrt(mp.pi) * r ** 4 / 15)
        assert mpf("1.6") < worst <= E_KAPPA

    def test_ray_pair_kernel_identity(self):
        """int_gamma e^{-px}(1-p)^{-5/2} dp = -4/3 + (8/3) sqrt(pi) E(sqrt x)."""
        with workprec(140):
            x = mpf(1)
            theta = mp.pi / 4

            def ray(sgn):
                d = mp.expjpi(sgn * mpf(1) / 4)
                return mp.quad(lambda u: d * mp.exp(-d * u * x) * (1 - d * u) ** mpf("-2.5"),
                               [0, 1, 10, 80], maxdegree=10)

            lhs = ray(1) + ray(-1)
            rhs = -mpf(4) / 3 + mpf(8) / 3 * mp.sqrt(mp.pi) * special_e(mp.sqrt(x), CTX)
            assert abs(lhs - rhs) < mpf("1e-10")


class TestLateral:
    def test_large_x_tends_to_cm(self):
        with CTX.working():
            for side in ("plus", "minus"):
                far = lateral_sum(SER, mpf(200), side, CTX)
                assert abs(far.value - 1) < mpf("0.01")

    def test_schwarz_reflection_at_real_x(self):
        with CTX.working():
            sp = lateral_sum(SER, mpf(1), "plus", CTX)
            sm = lateral_sum(SER, mpf(1), "minus", CTX)
            budget = sp.error + sm.error + mpf("1e-10")
            assert abs(sp.value.real - sm.value.real) < budget
            assert abs(sp.value.imag + sm.value.imag) < budget
            assert abs(sp.value.imag) > mpf("1e-6")  # laterals are genuinely complex

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            lateral_sum(SER, mpc(0, 1), "plus", CTX)
        with pytest.raises(DomainError):
            lateral_sum(SER, mpc("0.1", -5), "minus", CTX)  # ray-direction violation
        with pytest.raises(ValueError):
            lateral_sum(SER, mpf(1), "sideways", CTX)
        with pytest.raises(ValueError):
            lateral_sum(SER, mpf(1), "+", CTX)


class TestLateralTruncation:
    """lateral_sum's K moments: the remainder bound behind its (L, K) choice,
    and what that choice costs at high precision."""

    def test_remainder_bound_on_the_rays(self, monkeypatch):
        """|R_K(w)| <= beta_K 2^{(K+5/2)/2} |w|^K on arg w = +-pi/4, with the
        constant read back from the bounds lateral_sum hands its chooser."""
        seen = []
        choose = resum._truncation

        def spy(tilde, bounds, *args):
            seen.append(bounds)
            return choose(tilde, bounds, *args)

        monkeypatch.setattr(resum, "_truncation", spy)
        ser, x, ctx = trefoil_chi().series(12), mpf(1), PrecisionContext(prec=96)
        lateral_sum(ser, x, "plus", ctx)
        with ctx.working(64):
            M, b = ser.f.M, ser.b
            sig = x * mp.cos(mp.pi / 4)
            for K in range(1, 13):
                c, e = seen[0][K - 1]
                assert e == 2 * K + 3
                # c_K = fmax C_K K!/(sig^{K+1} b^K) (M^2/pi^2)^{K+5/2}/(2K+3)
                const = c * sig ** (K + 1) * mpf(b) ** K * (2 * K + 3) / (
                    ser.tilde.table().max_abs() * mp.factorial(K)
                    * (M * M / mp.pi ** 2) ** (K + 2.5))
                beta = mp.rf(2.5, K) / mp.factorial(K)
                assert mp.almosteq(const, beta * mpf(2) ** ((K + 2.5) / 2), 1e-25)
                for sgn in (1, -1):
                    for r in [mpf(1) / 2 ** k for k in range(1, 8)] + list(range(1, 51)):
                        w = r * mp.expjpi(sgn * mpf(0.25))
                        rest = (1 - w) ** -2.5 - sum(mp.rf(2.5, j) / mp.factorial(j) * w ** j
                                                     for j in range(K))
                        assert abs(rest) <= const * r ** K, (K, sgn, r)

    @pytest.mark.parametrize("x,side", [("1", "plus"), ("0.1", "plus"), ("1", "minus")])
    def test_tol_1e40_at_256_bits_in_few_kernel_calls(self, x, side, monkeypatch):
        ser = trefoil_chi().series(12)
        calls = []
        kernel = resum.laplace_kernel

        def counting(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(resum, "laplace_kernel", counting)
        v = lateral_sum(ser, mpf(x), side, PrecisionContext(prec=256, tol=1e-40))
        assert len(calls) <= 100
        assert v.error <= mpf("1e-40") and not v.budget_exhausted
        ref = lateral_sum(ser, mpf(x), side, PrecisionContext(prec=320, tol=1e-52))
        with workprec(340):
            assert abs(v.value - ref.value) <= v.error + ref.error


class TestLateralClosedForm:
    """The closed-form ray integrals against independent quadrature."""

    SERIES = {"trefoil-chi": trefoil_chi().series(12),
              "chi-3-4": config_chi(3, 4, 1, 1).series(12)}

    @pytest.mark.parametrize("x", ["0.5", "1", "2", "1+0.25j", "1+0.5j", "2-1j"])
    @pytest.mark.parametrize("family", ["trefoil-chi", "chi-3-4"])
    def test_agrees_with_quadrature_oracle(self, family, x):
        ser = self.SERIES[family]
        x = mpc(complex(x))
        for side in ("plus", "minus"):
            # both are estimates of the same S^side(x), so one oracle run
            # serves every precision of the closed form
            quad = lateral_sum_quadrature(ser, x, side, PrecisionContext(prec=96, tol=1e-6))
            for prec in (96, 128):
                cf = lateral_sum(ser, x, side, PrecisionContext(prec=prec, tol=1e-6))
                with workprec(prec + 64):
                    gap = abs(cf.value - quad.value)
                    assert gap <= cf.error + quad.error, (prec, side, gap)

    @pytest.mark.parametrize("x", ["1", "1+0.5j", "0.1+3j", "1-0.5j", "-1-2j"])
    def test_ray_integral_sheet_rule(self, x):
        """arg x = 0, > 0 and < 0 on both sides where the ray converges,
        against mp.quad along the ray at 200 bits."""
        x = mpc(complex(x))
        sides = 0
        for sgn in (1, -1):
            with workprec(200):
                ray = mp.expjpi(mpf(sgn) / 4)
                sig = (ray * x).real
                if sig <= 0:
                    continue
                sides += 1
                Ab = mpf("7.3")
                ref = mp.quad(lambda u: ray * mp.exp(-ray * u * x)
                              * (1 - ray * u / Ab) ** mpf("-2.5"),
                              [0, 1 / sig, 8 / sig, 40 / sig, 200 / sig])
            with workprec(160):
                got = _ray_laplace(Ab, x, sgn)
            with workprec(200):
                assert abs(got - ref) <= mpf("1e-45") * abs(ref), (x, sgn)
        assert sides

    def test_discontinuity_uses_no_quadrature(self, monkeypatch):
        calls = []
        quad = mp.quad

        def counting_quad(*args, **kwargs):
            calls.append(args)
            return quad(*args, **kwargs)

        monkeypatch.setattr(mp, "quad", counting_quad)
        ctx = PrecisionContext(prec=128, tol=1e-8)
        d = discontinuity(trefoil_chi().series(12), mpf(1), ctx)
        assert not calls
        # at real x both sides truncate at the same l, and their difference
        # is the theta series term by term
        with ctx.working():
            gap = abs(d.numeric.value - d.closed_form.value)
            assert gap <= mpf(2) ** -120 * abs(d.closed_form.value)


class TestMedian:
    def test_median_equals_average_of_laterals(self):
        with CTX.working():
            for x in (mpf("0.5"), mpf(1), mpf(2), mpc(1, "0.5")):
                sp = lateral_sum(SER, x, "plus", CTX)
                sm = lateral_sum(SER, x, "minus", CTX)
                md = median_sum(SER, x, CTX)
                gap = abs(md.value - (sp.value + sm.value) / 2)
                assert gap <= sp.error + sm.error + md.error, (x, gap)

    def test_median_chi34_config(self):
        ser = config_chi(3, 4, 1, 1).series(12)
        with CTX.working():
            for x in (mpf(1), mpc(1, "0.5")):
                sp = lateral_sum(ser, x, "plus", CTX)
                sm = lateral_sum(ser, x, "minus", CTX)
                md = median_sum(ser, x, CTX)
                assert abs(md.value - (sp.value + sm.value) / 2) <= \
                    sp.error + sm.error + md.error

    def test_real_on_real_axis(self):
        md = median_sum(SER, mpf(3), CTX)
        assert md.value.imag == 0

    def test_requires_right_half_plane(self):
        with pytest.raises(DomainError):
            median_sum(SER, mpc(-1, 1), CTX)

    def test_one_lateral_sum_and_half_the_jump(self, monkeypatch):
        """One lateral sum, one closed-form jump and no E value; below
        arg x = -pi/4 only the plus ray converges, and that side is used."""
        calls = {"lateral_sum": [], "disc_closed_form": [], "special_e": []}
        for name, seen in calls.items():
            def counting(*args, _inner=getattr(resum, name), _seen=seen, **kwargs):
                _seen.append(args)
                return _inner(*args, **kwargs)
            monkeypatch.setattr(resum, name, counting)
        ctx = PrecisionContext(prec=128, tol=1e-11)
        ser = trefoil_strange().series(12)
        md = median_sum(ser, mpf(1), ctx)
        assert [len(seen) for seen in calls.values()] == [1, 1, 0]
        assert md.error < mpf("1e-11") and not md.budget_exhausted
        median_sum(ser, mpc("0.2", "-1.5"), ctx)
        assert calls["lateral_sum"][1][2] == "plus"

    @pytest.mark.parametrize("prec, tol", [(64, 1e-10), (128, 1e-12)])
    def test_agrees_with_e_series_oracle(self, prec, tol):
        """Against the E-function series, which shares no lateral sum and no
        theta series with it, within the sum of both claimed errors."""
        ctx = PrecisionContext(prec=prec, tol=tol)
        cfgs = [trefoil_strange(), trefoil_chi(), config_chi(3, 4, 1, 1), config_hikami(2, 0),
                config_t3_2k(3)]
        xs = [mpf(1), mpc(1, "0.5"), mpc("0.3", "0.9"), mpc("0.5", "-0.2"), mpf("0.25")]
        for cfg in cfgs:
            ser = cfg.series(12)
            for x in xs:
                md = median_sum(ser, x, ctx)
                ref = median_sum_e_series(ser, x, ctx)
                with workprec(prec + 64):
                    gap = abs(md.value - ref.value)
                    assert gap <= md.error + ref.error, (cfg.label(), x, prec, gap)

    def test_watson_optimal_truncation(self):
        deep = trefoil_strange().series(150)  # x = 80 truncates near n = 132
        with CTX.working():
            for k in range(4):
                x = mpf(10) * 2 ** k
                md = median_sum(deep, x, CTX)
                part, first_omitted, _ = optimal_truncation(deep, x)
                assert abs(md.value - part) <= first_omitted + md.error


class TestDiscontinuity:
    def test_jump_identity_trefoil(self):
        with CTX.working():
            d = discontinuity(SER, mpf(1), CTX)
            gap = abs(d.numeric.value - d.closed_form.value)
            assert gap < mpf("1e-8")
            assert gap <= d.numeric.error + d.closed_form.error

    def test_exponential_decay_rate(self):
        # disc / x^{3/2} ~ e^{-min(N) x}; min(N) = pi^2/6 for the trefoil
        with CTX.working():
            d4 = disc_closed_form(SER, mpf(4), CTX).value / mpf(4) ** mpf("1.5")
            d8 = disc_closed_form(SER, mpf(8), CTX).value / mpf(8) ** mpf("1.5")
            rate = -mp.log(abs(d8) / abs(d4)) / 4
            assert abs(rate - mp.pi ** 2 / 6) < mpf("1e-6")

    def test_linearity_in_scale(self):
        from thetaresum.exact import series_coefficients
        doubled = series_coefficients(
            ThetaSpec(a=1, b=24, nu=1, f=SER.f.scale(2)), 12)
        with CTX.working():
            a = disc_closed_form(SER, mpf(1), CTX).value
            b = disc_closed_form(doubled, mpf(1), CTX).value
            assert abs(b - 2 * a) < mpf("1e-25")


class TestConstantIdentity:
    def test_cm_equals_weighted_tilde_sum(self):
        """C_M = (2 M c / pi^2) sum f~(l)/l^2 for both standard configs."""
        for cfg in (trefoil_strange(), config_chi(3, 4, 1, 1)):
            ser = cfg.series(4)
            with CTX.working():
                blocks = tilde_dirichlet_blocks(ser.tilde.table(), 2, mpf("1e-11"))
                c = mpf(ser.f.c.numerator) / ser.f.c.denominator
                rhs = 2 * ser.f.M * c / mp.pi ** 2 * blocks.value
                lhs = mpf(ser.c_m.numerator) / ser.c_m.denominator
                assert abs(lhs - rhs) < mpf("1e-10")
                # and the Hurwitz-zeta route agrees with the block route
                hz = 2 * ser.f.M * c / mp.pi ** 2 \
                    * tilde_dirichlet(ser.tilde.table(), [(2, 1)]).value
                assert abs(lhs - hz) < mpf("1e-20")


class TestShiftedDirichlet:
    """tilde_dirichlet(f~, [(s_k, c_k)], start) = sum_k c_k sum_{l > start} f~(l) l^{-s_k}."""

    FAMILIES = {"trefoil-chi": trefoil_chi().f, "t3-2k-3": config_t3_2k(3).f}

    @pytest.mark.parametrize("s", [2, 4, 10, 40])
    @pytest.mark.parametrize("family", ["trefoil-chi", "t3-2k-3"])
    def test_matches_plain_partial_sum(self, family, s):
        """Against a plain mpf sum at 64 more bits, out to N terms, with the
        Abel bound 2 max|F| (N+1)^{-s} for the rest (F the partial sums of
        f~; N is a whole number of periods).  The allowance for roundoff is
        (M + s + 4) 2^{-prec} times the sum of |f~(l)| l^{-s} over l > start:
        M + 4 roundings of the sum, and about s more from rounding r/M, which
        zeta(s, r/M) ~ (r/M)^{-s} amplifies s-fold."""
        tilde = TildeFunction(self.FAMILIES[family])
        M, P = tilde.M, tilde.period
        prec = 128
        for start in (0, 1, M, 5 * M + 3):
            with workprec(prec):
                got = tilde_dirichlet(tilde.table(), [(s, 1)], start).value
            with workprec(prec + 64):
                n = start + 1
                N = start + P
                while 2 * tilde.partial_sum_peak() / mpf(N + 1) ** s > mpf(2) ** (-prec - 64) \
                        and N < start + 20_000:
                    N += P
                ref = mp.fsum(tilde(ell) * mpf(ell) ** (-s) for ell in range(n, N + 1))
                size = mp.fsum(abs(tilde(ell)) * mpf(ell) ** (-s) for ell in range(n, N + 1)) \
                    + tilde.table().max_abs() * mpf(N) ** (1 - s) / (s - 1)
                abel = 2 * tilde.partial_sum_peak() / mpf(N + 1) ** s
                assert abs(got - ref) <= abel + (M + s + 4) * size * mpf(2) ** (-prec), (start, s)

    # f~ of three families, and a complex twisted table: chi(2,3) at alpha = 1/3
    ORACLE_TABLES = {
        "trefoil-chi": (lambda: trefoil_chi().series(1).tilde.table(), 12),
        "t3-2k-3": (lambda: config_t3_2k(3).series(1).tilde.table(), 48),
        "t3-2k-5": (lambda: config_t3_2k(5).series(1).tilde.table(), 192),
        "twisted-chi-2-3": (lambda: twisted_table(chi_function(ChiParams(2, 3, 1, 1)),
                                                  Fraction(1, 3), 0, 24), 12),
    }

    @staticmethod
    def tail_size(table, s, start):
        """hmax (l1^{-s} + l1^{1-s}/(s-1)), l1 the least l > start with
        h(l) != 0: tilde_dirichlet's stated error for the one moment (s, 1)
        is 2^{1-p} (1 + 2^{p-wp}) times this, with wp >= p + 64 at p = 128."""
        l1 = next(ell for ell in range(start + 1, start + len(table) + 1) if table(ell))
        return table.max_abs() * (mpf(l1) ** -s + mpf(l1) ** (1 - s) / (s - 1))

    @pytest.mark.parametrize("family", list(ORACLE_TABLES))
    def test_matches_hurwitz_oracle(self, family):
        """Against the sum of Hurwitz zeta values at 64 more bits (good to
        about P 2^-192 of the tail's size), within the returned error, which
        is the stated bound (to its own rounding).  The head is subtracted
        from the full sum, so a guard of fewer than s log2 l1 bits (log2 of
        start, or none) loses the tail's digits at start = 1 and s >= 10."""
        make, M = self.ORACLE_TABLES[family]
        prec = 128
        with workprec(prec):
            table = make()
        P = len(table)
        for s in (2, 4, 10, 24, 42):
            for start in (0, 1, P, 5 * M + 3):
                with workprec(prec):
                    got = tilde_dirichlet(table, [(s, 1)], start)
                with workprec(prec + 64):
                    ref = tilde_dirichlet_hurwitz(table, s, start)
                    bound = self.tail_size(table, s, start) * mpf(2) ** (1 - prec)
                    gap = abs(got.value - ref)
                    assert gap <= got.error <= bound * (1 + mpf(2) ** -60), (s, start, gap / bound)

    TRUTH_CONFIGS = {"trefoil-chi": trefoil_chi, "chi-3-4": lambda: config_chi(3, 4, 1, 1),
                     "t3-2k-3": lambda: config_t3_2k(3), "hikami-3-1": lambda: config_hikami(3, 1)}

    @staticmethod
    def moment_lists(M, b=24):
        """Eight moments shaped as lateral_sum's (x = 1: real c_k growing
        with k) and eight as vertical_sum's (c = -3i, lam1 = pi b/(2 M^2):
        complex c_k, each -i times the last with a growing modulus), at the
        current precision."""
        m2pi2 = mpf(M * M) / mp.pi ** 2
        lateral, beta = [], mpf(1)
        for j in range(8):
            lateral.append((4 + 2 * j, beta * mp.factorial(j) * m2pi2 ** (j + 2.5) / b ** j))
            beta *= (j + 2.5) / (j + 1)
        c, lam1 = mpc(0, -3), mp.pi * b / (2 * M * M)
        vertical, mk = [], c ** -1.5 / lam1
        for K in range(1, 9):
            vertical.append((2 * K, mk))
            mk *= -(K + 0.5) / (c * lam1)
        return lateral, vertical

    @pytest.mark.parametrize("prec", [64, 128, 256])
    @pytest.mark.parametrize("family", list(TRUTH_CONFIGS))
    def test_error_bounds_the_gap_to_exact_truth(self, family, prec):
        """The returned error against exact truth, for single moments and
        for the moment lists of lateral_sum and vertical_sum.  With f~(l) =
        (cos 2 pi k2 l/M - cos 2 pi k1 l/M)/2 and DLMF 24.8.1, sum_{l>=1}
        cos(2 pi l x) l^{-s} = (-1)^{s/2+1} (2 pi)^s B_s(x)/(2 s!), the full
        sum is

            (-1)^{s/2+1} (2 pi)^s/(4 s!) [B_s(k2/M) - B_s(k1/M)],

        from exact Bernoulli polynomials; past start = P it is that less
        the head l <= P, whose cosines are of exact rational multiples of
        pi.  The truth carries S log2(P + 1) + 64 more bits than the sum, S
        the largest s, so the cancellation of the head leaves it exact to
        far below the error.  The error is stated for the table's values and the c_k as
        given, so the table is read at 64 more bits, where its own rounding
        is far below it, and the truth's products by c_k are taken at the
        truth's precision."""
        f = self.TRUTH_CONFIGS[family]().f
        with workprec(prec + 64):
            table = TildeFunction(f).table()
        with workprec(prec):
            lateral, vertical = self.moment_lists(f.M)
        P = len(table)
        x1, x2 = Fraction(f.k1, f.M), Fraction(f.k2, f.M)
        singles = [[(s, 1)] for s in (2, 4, 10, 24, 42)]
        for moments in singles + [lateral, vertical]:
            top = max(s for s, _ in moments)
            for start in (0, P):
                with workprec(prec):
                    got = tilde_dirichlet(table, moments, start)
                with workprec(prec + 64 + top * (P + 1).bit_length()):
                    truth = mpc(0)
                    for s, c in moments:
                        full = (-1) ** (s // 2 + 1) * (2 * mp.pi) ** s / (4 * mp.factorial(s)) \
                            * frac_to_mp(bernoulli_polynomial(s, x2) - bernoulli_polynomial(s, x1))
                        head = mp.fsum((mp.cospi(frac_to_mp(2 * ell * x2 % 2))
                                        - mp.cospi(frac_to_mp(2 * ell * x1 % 2)))
                                       / 2 * mpf(ell) ** -s for ell in range(1, start + 1))
                        truth += c * (full - head)
                    gap = abs(got.value - truth)
                    assert gap <= got.error, (top, len(moments), start, gap / got.error)

    def test_rejects_odd_s_and_uneven_tables(self):
        table = trefoil_chi().series(1).tilde.table()
        for s in (1, 3, 5, 41):
            with pytest.raises(ValueError):
                tilde_dirichlet(table, [(s, 1)])
        skewed = type(table)(v + ell for ell, v in enumerate(table))
        with pytest.raises(ValueError):
            tilde_dirichlet(skewed, [(2, 1)])

    @pytest.mark.parametrize("family", ["trefoil-chi", "t3-2k-5", "twisted-chi-2-3"])
    def test_moment_allowance_bounds_the_gap(self, family):
        """Eight moments past L > P, shaped as lateral_sum's and
        vertical_sum's (moment_lists, b = 24), falling with k as in the cuts
        _truncation picks, with a zero head and no caller's bound: ell_sum's
        error is then the moments' roundoff alone.  It bounds the gap to the
        Hurwitz oracle at 64 more bits, and it is no larger than scale_k
        2^{8-bits_k} per moment, scale_k = |c_k| hmax (P^{1-s} + P
        L^{1-s}/(s-1)), the allowance the mp.zeta sums were given."""
        make, M = self.ORACLE_TABLES[family]
        prec = 128
        with workprec(prec):
            table = make()
            P, hmax = len(table), table.max_abs()
            lateral, vertical = self.moment_lists(M)
        for moments in (lateral, vertical):
            for L in (P + 1, 3 * P):
                with workprec(prec):
                    est = ell_sum(table, (L, 0, False), lambda ell: 0, moments)
                    scales = [abs(ck) * hmax * (mpf(P) ** (1 - sk) + P * mpf(L) ** (1 - sk) / (sk - 1))
                              for sk, ck in moments]
                    old = mp.fsum(sc * mpf(2) ** (8 - max(53, prec + mp.mag(sc) - mp.mag(scales[0])))
                                  for sc in scales)
                with workprec(prec + 64):
                    ref = mp.fsum(ck * tilde_dirichlet_hurwitz(table, sk, L) for sk, ck in moments)
                    assert abs(est.value - ref) <= est.error, (L, moments[0][0])
                assert est.error <= old, (L, moments[0][0], est.error / old)

    @pytest.mark.parametrize("family", ["trefoil-chi", "t3-2k-3"])
    def test_head_is_the_difference(self, family):
        """The full sum less the sum past L is the head l <= L, to roundoff."""
        tilde = TildeFunction(self.FAMILIES[family])
        M = tilde.M
        for s in (2, 4, 10, 40):
            for start in (1, M, 5 * M + 3):
                with workprec(128):
                    h = tilde.table()
                    diff = (tilde_dirichlet(h, [(s, 1)]).value
                            - tilde_dirichlet(h, [(s, 1)], start).value)
                with workprec(192):
                    head = mp.fsum(tilde(ell) * mpf(ell) ** (-s) for ell in range(1, start + 1))
                    size = mp.fsum(abs(tilde(ell)) * mpf(ell) ** (-s) for ell in range(1, 3 * M))
                    assert abs(diff - head) <= 2 * (M + s + 4) * size * mpf(2) ** -128, (s, start)
                # the engine: head l^{-s} term by term, the rest as one moment
                with workprec(128):
                    est = ell_sum(tilde.table(), (start, 0, False), lambda ell: mpf(ell) ** -s, [(s, 1)])
                with workprec(192):
                    full = tilde_dirichlet(tilde.table(), [(s, 1)]).value
                    assert abs(est.value - full) <= est.error, (s, start)

    def test_one_call_and_one_precision_per_sum(self, monkeypatch):
        """boundary_median(t3-2k(4), 1/2) at 256 bits: its one ell_sum with
        moments (vertical_sum, 35 of them) makes one tilde_dirichlet call,
        which reads one cotangent-moment table, at one working precision
        (summed a moment at a time, they once needed three, at 384, 448
        and 512 bits)."""
        calls, precs = [], set()
        inner_sum, inner_table = resum.tilde_dirichlet, resum._cot_moments

        def recording_sum(table, moments, start=0):
            calls.append(len(moments))
            return inner_sum(table, moments, start)

        def recording_table(table, wp, count):
            precs.add(wp)
            return inner_table(table, wp, count)

        monkeypatch.setattr(resum, "tilde_dirichlet", recording_sum)
        monkeypatch.setattr(resum, "_cot_moments", recording_table)
        boundary_median(config_t3_2k(4).series(8), Fraction(1, 2), PrecisionContext(prec=256))
        assert len(calls) == 1 and calls[0] > 1, calls
        assert len(precs) == 1, precs

    @pytest.mark.parametrize("family", ["trefoil-chi", "t3-2k-3"])
    def test_falling_moments_are_within_the_error(self, family):
        """Moments c_k = 2^{-4k} (s_k = 2k + 2) past L = M + 1: the error
        bounds the gap to the same sum at 64 more bits.  The head term is 0,
        so the error is the moments' roundoff alone."""
        tilde = TildeFunction(self.FAMILIES[family])
        L = tilde.M + 1
        moments = [(2 * k + 2, mpf(2) ** (-4 * k)) for k in range(4)]

        def run(prec):
            with workprec(prec):
                return ell_sum(tilde.table(), (L, 0, False), lambda ell: 0, moments)

        est = run(128)
        ref = run(192)
        with workprec(192):
            assert abs(est.value - ref.value) <= est.error


class TestBlockKernel:
    @pytest.mark.parametrize("s", [2, 4])
    @pytest.mark.parametrize("prec", [53, 128, 256])
    def test_matches_mpf_reference_loop(self, prec, s):
        """Same head summed term by term at 64 more bits: the gap is within
        the kernel's roundoff allowance (its error less the Abel tail)."""
        target = mpf("1e-9") if s == 2 else mpf("1e-11")
        for cfg in (trefoil_strange(), config_chi(3, 4, 1, 1)):
            tilde = TildeFunction(cfg.f)
            with workprec(prec):
                est = tilde_dirichlet_blocks(tilde.table(), s, target)
                ref, tail = tilde_dirichlet_blocks_reference(tilde.table(), s, target)
                roundoff = est.error - tail
            assert roundoff > 0
            with workprec(prec + 64):
                assert abs(est.value - ref) <= roundoff, (cfg.label(), prec, s)

    def test_agrees_with_hurwitz_route(self):
        fs = [chi_function(ChiParams(s, t, n, m))
              for s, t in ST_LIST for n, m in pair_set(s, t)]
        fs += [config_hikami(u, ell).f for u in (1, 2, 3) for ell in range(u)]
        fs += [config_t3_2k(k).f for k in (1, 2, 3)]
        with workprec(148):
            for f in fs:
                tilde = TildeFunction(f)
                est = tilde_dirichlet_blocks(tilde.table(), 2, mpf("1e-11"))
                gap = abs(est.value - tilde_dirichlet(tilde.table(), [(2, 1)]).value)
                assert gap <= est.error, (f.M, f.k1, f.k2, gap)


class TestBoundaryMedian:
    def test_trefoil_chi_alpha_one(self):
        ser = trefoil_chi().series(8)
        with CTX.working():
            bm = boundary_median(ser, Fraction(1), CTX)
            assert abs(bm.value + 2 * mp.expjpi(mpf(1) / 12)) < mpf("1e-20")

    def test_trefoil_chi_alpha_half(self):
        ser = trefoil_chi().series(8)
        with CTX.working():
            bm = boundary_median(ser, Fraction(1, 2), CTX)
            assert abs(bm.value + 6 * mp.expjpi(mpf(1) / 24)) < mpf("1e-20")

    def test_conjugation_for_opposite_alpha(self):
        ser = trefoil_chi().series(8)
        with CTX.working():
            plus = boundary_median(ser, Fraction(1, 2), CTX).value
            minus = boundary_median(ser, Fraction(-1, 2), CTX).value
            assert abs(minus - mp.conj(plus)) < mpf("1e-20")

    def test_matches_radial_limit_of_theta(self):
        ser = trefoil_chi().series(8)
        with CTX.working():
            for alpha in (Fraction(1, 3), Fraction(-1, 2)):
                bm = boundary_median(ser, alpha, CTX)
                rl = theta_radial_limit(ThetaSpec(a=0, b=24, nu=1, f=ser.f), alpha, CTX)
                assert abs(bm.value - rl.value) < mpf("1e-20")

    def test_interior_continuity_pinned_nodes(self):
        """median_sum at boundary + eps, eps in {1e-2,1e-3,1e-4}, extrapolates
        to the boundary value within 1e-4 (trefoil, alpha = 1)."""
        with CTX.working():
            bm = boundary_median(SER, Fraction(1), CTX)
            ex = boundary_median_extrapolated(SER, Fraction(1), CTX)
            assert abs(bm.value - ex.value) < mpf("1e-4")

    def test_rejects_zero_alpha(self):
        with pytest.raises(DomainError):
            boundary_median(SER, Fraction(0), CTX)

    ORACLE_POINTS = [(config_chi(2, 3, 1, 1), a) for a in ("1", "1/2", "-1/2", "1/3")] + [
        (config_chi(2, 5, 1, 1), "3/5"), (config_t3_2k(3), "1/2")]

    @pytest.fixture(scope="class")
    def quadrature(self):
        """The vertical-theta quadrature at each point, once, at 128 bits: it
        serves every library precision up to 128 bits."""
        ctx = PrecisionContext(prec=128)
        return [boundary_median_quadrature(cfg.series(8), Fraction(alpha), ctx)
                for cfg, alpha in self.ORACLE_POINTS]

    @pytest.mark.parametrize("prec", [96, 128])
    def test_agrees_with_quadrature_oracle(self, prec, quadrature):
        """Closed form against the vertical-theta quadrature, within the sum
        of both claimed errors."""
        ctx = PrecisionContext(prec=prec)
        for (cfg, alpha), quad in zip(self.ORACLE_POINTS, quadrature):
            bm = boundary_median(cfg.series(8), Fraction(alpha), ctx)
            with workprec(prec + 64):
                gap = abs(bm.value - quad.value)
                assert gap <= bm.error + quad.error, (cfg.label(), alpha, gap)

    def test_uses_no_quadrature(self, monkeypatch):
        calls = []
        quad = mp.quad

        def counting_quad(*args, **kwargs):
            calls.append(args)
            return quad(*args, **kwargs)

        monkeypatch.setattr(mp, "quad", counting_quad)
        boundary_median(config_t3_2k(3).series(8), Fraction(1, 2), PrecisionContext(prec=128))
        assert not calls

    def test_boundary_point_location(self):
        with CTX.working():
            x0 = boundary_point(Fraction(1, 2))
            assert abs(x0 - mpc(0, 1) / mp.pi) < mpf(2) ** -80


class TestBoundaryMedianCut:
    def test_short_head_at_128_bits(self, monkeypatch):
        """boundary_median(t3-2k(4), 1/2) at 128 bits: the cut prices a
        moment at its measured cost, so the head takes at most 80 kernel
        calls (328 when a moment was priced at 2 kernel calls), unflagged and
        within its error of the same sum at 192 bits."""
        calls = []
        kernel = resum.laplace_kernel

        def counting(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(resum, "laplace_kernel", counting)
        ser = config_t3_2k(4).series(8)
        bm = boundary_median(ser, Fraction(1, 2), PrecisionContext(prec=128))
        assert len(calls) <= 80, len(calls)
        assert not bm.budget_exhausted
        ref = boundary_median(ser, Fraction(1, 2), PrecisionContext(prec=192))
        with workprec(212):
            assert abs(bm.value - ref.value) <= bm.error + ref.error


# main2 error-bar sweep: every point must hold |bm - L(-1, h)| <= bm.error +
# rl.error, with L(-1, h) computed at 64 more bits
SWEEP_CONFIGS = [config_chi(s, t, 1, 1) for s, t in ST_LIST[:3]]
SWEEP_ALPHAS = ("1", "1/2", "1/3", "2/5", "-1/2")


class TestBoundaryErrorBars:
    @pytest.mark.parametrize("prec", [64, 96, 128, 192])
    def test_claimed_error_bounds_gap_to_radial_limit(self, prec):
        ctx = PrecisionContext(prec=prec)
        points = [(cfg, a) for cfg in SWEEP_CONFIGS for a in SWEEP_ALPHAS]
        points.append((config_t3_2k(3), "1/2"))
        for cfg, alpha in points:
            alpha = Fraction(alpha)
            bm = boundary_median(cfg.series(8), alpha, ctx)
            rl = theta_radial_limit(ThetaSpec(a=0, b=cfg.b, nu=1, f=cfg.f), alpha, ctx)
            truth = theta_radial_limit(ThetaSpec(a=0, b=cfg.b, nu=1, f=cfg.f), alpha,
                                       PrecisionContext(prec=prec + 64))
            with workprec(prec + 84):
                gap = abs(bm.value - truth.value)
                assert gap <= bm.error + rl.error, (cfg.label(), alpha, prec, gap)


def _boundary_term(a, lam):
    """J(lam) = int_0^inf i e^{-lam v} (a + iv)^{-3/2} dv by the kernel."""
    return -a ** MINUS_HALF * laplace_kernel(mpc(0, lam * a), 0, MINUS_HALF)


class TestBoundaryKernel:
    """The l-term of boundary_median: K^{(-1/2)} and its Watson expansion."""

    GRID = [(a, lam) for a in ("2", "-2", "0.6", "-2.5") for lam in ("0.01", "1", "30")]

    def test_kernel_matches_quadrature(self):
        with workprec(200):
            for a, lam in self.GRID:
                a, lam = mpf(a), mpf(lam)
                ref = mp.quad(lambda v: 1j * mp.exp(-lam * v) * (a + 1j * v) ** mpf("-1.5"),
                              [0, 1 / lam, 10 / lam, 100 / lam, mp.inf])
                got = _boundary_term(a, lam)
                assert abs(got - ref) <= mpf("1e-55") * abs(ref), (a, lam)
                # the closed form e^{-i lam a} (lam/i)^{1/2} Gamma(-1/2, -i lam a)
                cf = mp.exp(-1j * lam * a) * mp.sqrt(lam / 1j) * mp.gammainc(-0.5, -1j * lam * a)
                assert abs(got - cf) <= mpf("1e-55") * abs(ref), (a, lam)

    @pytest.mark.parametrize("prec", [53, 128, 256, 276])
    def test_erfc_route_at_real_positive_arguments(self, prec, monkeypatch):
        """K^{(-1/2)}_0(-x) against -e^x x^{1/2} mp.gammainc(-1/2, x) at 64 more
        bits, within 2^{4-prec} relative: by erfc where its cancellation is
        worst (just below the crossover X0) and where there is none (small
        x), and by the continued fraction from X0 on, over the band the
        Eichler heads read (up to 180) and far beyond it."""
        fraction = []
        cf = resum._minus_half_cf
        monkeypatch.setattr(resum, "_minus_half_cf", lambda x: fraction.append(x) or cf(x))
        x0 = mpf(resum.KERNEL_CF_X0)
        below, above = x0 * (1 - mpf(2) ** -40), x0 * (1 + mpf(2) ** -40)
        grid = ["1e-3", "0.5", "3", "12.5", below, x0, above, "20.5", "25", "40", "60.25",
                "100", "180", "300", "5000"]
        for x in grid:
            calls = len(fraction)
            with workprec(prec):
                got = resum.laplace_kernel(-mpf(x), 0, MINUS_HALF)
            with workprec(prec + 64):
                x = mpf(x)
                assert (len(fraction) > calls) == (x >= x0), x
                ref = -mp.exp(x) * mp.sqrt(x) * mp.gammainc(mpf(-1) / 2, x)
                assert abs(got - ref) <= mpf(2) ** (4 - prec) * abs(ref), (x, got, ref)

    @pytest.mark.parametrize("K", [1, 5, 20])
    def test_watson_remainder_bound(self, K):
        """|J - i a^{-3/2} sum_{k<K} (3/2)_k (-i/a)^k lam^{-k-1}|
        <= |a|^{-3/2-K} (3/2)_K lam^{-K-1}."""
        with workprec(200):
            for a, lam in self.GRID:
                a, lam = mpf(a), mpf(lam)
                partial = sum(1j * a ** mpf("-1.5") * mp.rf(mpf("1.5"), k) * (-1j / a) ** k
                              / lam ** (k + 1) for k in range(K))
                bound = abs(a) ** (mpf("-1.5") - K) * mp.rf(mpf("1.5"), K) / lam ** (K + 1)
                assert abs(_boundary_term(a, lam) - partial) <= bound, (a, lam, K)


class TestSumErrorBars:
    """|v - ref| <= v.error + ref.error for the Borel, lateral and median
    sums at 64 and 128 bits, ref at 64 more bits.  At tol 1e-30 a 64-bit
    run stops at its 2^-64 target and its reference near 1e-31, so the tail
    bounds are tested along with the head and Hurwitz roundoff."""

    SERIES = {"trefoil-chi": trefoil_chi().series(12), "t3-2k-3": config_t3_2k(3).series(12)}

    def _sum(self, quantity, family, prec):
        ser = self.SERIES[family]
        ctx = PrecisionContext(prec=prec, tol=1e-30)
        if quantity == "borel":
            return borel_eval(ser, mpc(3, 2), ctx)
        if quantity == "median":
            return median_sum(ser, mpc(1, "0.25"), ctx)
        # at x = 1 the two sides take different sheets (_ray_laplace)
        return lateral_sum(ser, mpf(1), quantity.split("-")[1], ctx)

    @pytest.mark.parametrize("family", ["trefoil-chi", "t3-2k-3"])
    @pytest.mark.parametrize("quantity", ["lateral-plus", "lateral-minus", "median", "borel"])
    def test_error_bounds_gap_to_more_bits(self, quantity, family):
        # the 128-bit run is the value at 128 bits and the reference of the
        # 64-bit run
        run = functools.lru_cache()(lambda prec: self._sum(quantity, family, prec))
        for prec in (64, 128):
            v = run(prec)
            ref = run(prec + 64)
            with workprec(prec + 84):
                gap = abs(v.value - ref.value)
                assert gap <= v.error + ref.error, (prec, gap, v.error, ref.error)

    def test_median_meets_tol_1e30_at_256_bits(self):
        md = median_sum(self.SERIES["trefoil-chi"], mpf(1), PrecisionContext(prec=256, tol=1e-30))
        assert md.error <= mpf("1e-30") and not md.budget_exhausted


class TestEstimateArithmetic:
    """The one error rule of every composite sum: sums add errors, a factor
    c scales the error by |c|, rounding adds |value| 2^-prec, and a budget
    flag on either operand survives every operation."""

    def test_errors_propagate_and_flags_survive(self):
        with workprec(64):
            plain = Estimate(mpc(1, 2), mpf("0.25"))
            flagged = Estimate(mpc(3, -1), mpf("0.5"), True)
            c = mpc(3, 4)  # |c| = 5
            for a, b in ((plain, flagged), (flagged, plain)):
                total, diff = a + b, a + b * -1
                assert total.value == a.value + b.value and diff.value == a.value - b.value
                assert total.error == diff.error == mpf("0.75")
                assert total.budget_exhausted and diff.budget_exhausted
            assert not (plain + plain).budget_exhausted
            for est in (plain, flagged):
                scaled, shifted, rounded = est * c, est + mpf(7), est.rounded(40)
                assert scaled.value == est.value * c and scaled.error == 5 * est.error
                assert shifted.value == est.value + 7 and shifted.error == est.error
                assert rounded.value == est.value
                assert rounded.error == est.error + abs(est.value) * mpf(2) ** -40
                for out in (scaled, shifted, rounded):
                    assert out.budget_exhausted == est.budget_exhausted


class TestBudgetFlag:
    """ell_cap = 16 against a 1e-11 target: at x = 0.05 the least lateral
    bound with L = 16 is about 4e-6, near boundary_point(4) about 3e-5."""

    def test_ell_cap_flags_partial_result(self):
        tiny = PrecisionContext(prec=96, tol=1e-10, ell_cap=16)
        res = lateral_sum(SER, mpf("0.05"), "plus", tiny)
        assert res.budget_exhausted
        roomy = lateral_sum(SER, mpf("0.05"), "plus", CTX)
        assert not roomy.budget_exhausted
        # the flagged value is a partial answer whose error bar still holds
        assert abs(res.value - roomy.value) <= res.error + roomy.error

    def test_combined_estimates_keep_the_flags_of_their_parts(self):
        """discontinuity and boundary_median_extrapolated are flagged when a
        lateral or median sum under them stopped at ctx.ell_cap, and not
        otherwise; so is boundary_median when its own head stopped there,
        and its error bar still holds."""
        tiny = PrecisionContext(prec=96, tol=1e-10, ell_cap=16)
        assert discontinuity(SER, mpf("0.05"), tiny).numeric.budget_exhausted
        assert not discontinuity(SER, mpf("0.05"), CTX).numeric.budget_exhausted
        assert median_sum(SER, boundary_point(4) + mpf("1e-3"), tiny).budget_exhausted
        assert boundary_median_extrapolated(SER, 4, tiny).budget_exhausted
        eps = [mpf(4), mpf(2), mpf(1)]
        assert not boundary_median_extrapolated(SER, 1, CTX, eps_values=eps).budget_exhausted
        ser = config_t3_2k(4).series(8)
        res = boundary_median(ser, Fraction(1, 2), tiny)
        assert res.budget_exhausted
        roomy = boundary_median(ser, Fraction(1, 2), CTX)
        assert not roomy.budget_exhausted
        assert abs(res.value - roomy.value) <= res.error + roomy.error

    def test_gaussian_and_borel_sums_stop_at_the_cap(self):
        """theta_upper_half, disc_closed_form (through it), median_sum,
        borel_eval and eichler_integral stop at ctx.ell_cap and flag it, with
        error bars that hold.  The theta sum at 0.3 + 0.01i needs about 180
        terms.  At 0.1 + 0.1i the lateral sum fits in 16 terms and the jump's
        theta sum does not, so median_sum's flag is the jump's.  borel_eval
        at 329 + 1.6i and tol 1e-30 needs a head past its floor 2M = 24,
        which a lower cap keeps.  The Eichler integral of chi(2,3) stops
        short both in its Gaussian head (z = alpha = 1/2) and in its
        vertical sum (z = 0.2 - 0.3i, alpha = 1/3)."""
        tiny = PrecisionContext(prec=96, tol=1e-10, ell_cap=16)
        spec = trefoil_chi().theta_spec(1)
        x, xm = mpc("0.3", "0.01"), mpc("0.1", "0.1")
        deep = PrecisionContext(prec=128, tol=1e-30)
        assert not lateral_sum(SER, xm, "minus", tiny).budget_exhausted
        cases = [(lambda ctx: theta_upper_half(spec, x, ctx), tiny, CTX),
                 (lambda ctx: disc_closed_form(SER, xm, ctx), tiny, CTX),
                 (lambda ctx: median_sum(SER, xm, ctx), tiny, CTX),
                 (lambda ctx: borel_eval(SER, mpc("329", "1.6"), ctx),
                  PrecisionContext(prec=128, tol=1e-30, ell_cap=16), deep),
                 (lambda ctx: eichler_integral(2, 3, (1, 1), mpf("0.5"), Fraction(1, 2), ctx),
                  tiny, CTX),
                 (lambda ctx: eichler_integral(2, 3, (1, 1), mpc("0.2", "-0.3"), Fraction(1, 3),
                                               ctx), tiny, CTX)]
        for run, capped, roomy in cases:
            res, ref = run(capped), run(roomy)
            assert res.budget_exhausted and not ref.budget_exhausted
            with workprec(160):
                assert abs(res.value - ref.value) <= res.error + ref.error
