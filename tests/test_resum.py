"""Lateral/median resummation, the E-function, jump formula, boundary values."""

import functools
from fractions import Fraction

import pytest
from mpmath import mp, mpf, mpc, workprec

from reference import (E_KAPPA, boundary_median_quadrature, e_limit, lateral_sum_quadrature,
                       median_sum_e_series, optimal_truncation,
                       tilde_dirichlet_blocks_reference)
from thetaresum import resum
from thetaresum.borel import borel_eval
from thetaresum.config import (config_chi, config_hikami, config_t3_2k, trefoil_chi,
                               trefoil_strange)
from thetaresum.periodic import ChiParams, chi_function, pair_set, tilde_transform
from thetaresum.precision import MINUS_HALF, PrecisionContext
from thetaresum.qseries import DomainError, ThetaSpec, theta_radial_limit
from thetaresum.resum import (_ray_laplace, boundary_median, boundary_median_extrapolated,
                              boundary_point, disc_closed_form, discontinuity, ell_sum,
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
                    ser.tilde.max_abs() * mp.factorial(K) * (M * M / mp.pi ** 2) ** (K + 2.5))
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
            assert d.difference <= mpf(2) ** -120 * abs(d.closed_form.value)


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
            assert d.difference < mpf("1e-8")
            assert d.difference <= d.numeric.error + d.closed_form.error

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
                blocks = tilde_dirichlet_blocks(ser.tilde, 2, mpf("1e-11"))
                c = mpf(ser.f.c.numerator) / ser.f.c.denominator
                rhs = 2 * ser.f.M * c / mp.pi ** 2 * blocks.value
                lhs = mpf(ser.c_m.numerator) / ser.c_m.denominator
                assert abs(lhs - rhs) < mpf("1e-10")
                # and the Hurwitz-zeta route agrees with the block route
                hz = 2 * ser.f.M * c / mp.pi ** 2 * tilde_dirichlet(ser.tilde, 2)
                assert abs(lhs - hz) < mpf("1e-20")


class TestShiftedDirichlet:
    """tilde_dirichlet(f~, s, start) = sum_{l > start} f~(l) l^{-s}."""

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
        tilde = tilde_transform(self.FAMILIES[family])
        M, P = tilde.M, tilde.period
        prec = 128
        for start in (0, 1, M, 5 * M + 3):
            with workprec(prec):
                got = tilde_dirichlet(tilde, s, start)
            with workprec(prec + 64):
                n = start + 1
                N = start + P
                while 2 * tilde.partial_sum_peak() / mpf(N + 1) ** s > mpf(2) ** (-prec - 64) \
                        and N < start + 20_000:
                    N += P
                ref = mp.fsum(tilde(ell) * mpf(ell) ** (-s) for ell in range(n, N + 1))
                size = mp.fsum(abs(tilde(ell)) * mpf(ell) ** (-s) for ell in range(n, N + 1)) \
                    + tilde.max_abs() * mpf(N) ** (1 - s) / (s - 1)
                abel = 2 * tilde.partial_sum_peak() / mpf(N + 1) ** s
                assert abs(got - ref) <= abel + (M + s + 4) * size * mpf(2) ** (-prec), (start, s)

    @pytest.mark.parametrize("family", ["trefoil-chi", "t3-2k-3"])
    def test_head_is_the_difference(self, family):
        """The full sum less the sum past L is the head l <= L, to roundoff."""
        tilde = tilde_transform(self.FAMILIES[family])
        M = tilde.M
        for s in (2, 4, 10, 40):
            for start in (1, M, 5 * M + 3):
                with workprec(128):
                    diff = tilde_dirichlet(tilde, s) - tilde_dirichlet(tilde, s, start)
                with workprec(192):
                    head = mp.fsum(tilde(ell) * mpf(ell) ** (-s) for ell in range(1, start + 1))
                    size = mp.fsum(abs(tilde(ell)) * mpf(ell) ** (-s) for ell in range(1, 3 * M))
                    assert abs(diff - head) <= 2 * (M + s + 4) * size * mpf(2) ** -128, (s, start)
                # the engine: head l^{-s} term by term, the rest as one moment
                with workprec(128):
                    est = ell_sum(tilde, start, lambda ell: mpf(ell) ** -s, [(s, 1)], 0)
                with workprec(192):
                    full = tilde_dirichlet(tilde, s)
                    assert abs(est.value - full) <= est.error, (s, start)

    @pytest.mark.parametrize("family", ["trefoil-chi", "t3-2k-3"])
    def test_falling_moments_run_at_fewer_bits(self, family, monkeypatch):
        """Moments c_k = 2^{-4k} (s_k = 2k + 2) past L = M + 1: moment k
        is summed at fewer bits, by the fall of c_k L^{1-s_k}, and the error
        still bounds the gap to the same sum at 64 more bits.  The head term
        is 0, so the error is the moments' roundoff alone."""
        tilde = tilde_transform(self.FAMILIES[family])
        L = tilde.M + 1
        moments = [(2 * k + 2, mpf(2) ** (-4 * k)) for k in range(4)]
        bits = []
        inner = resum.tilde_dirichlet

        def recording(*args):
            bits.append(mp.prec)
            return inner(*args)

        def run(prec):
            with workprec(prec):
                return ell_sum(tilde, L, lambda ell: 0, moments, 0)

        monkeypatch.setattr(resum, "tilde_dirichlet", recording)
        est = run(128)
        assert bits[0] == 128 and all(b < a for a, b in zip(bits, bits[1:])), bits
        assert bits[-1] <= 128 - 12, bits
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
            tilde = tilde_transform(cfg.f)
            with workprec(prec):
                est = tilde_dirichlet_blocks(tilde, s, target)
                ref, tail = tilde_dirichlet_blocks_reference(tilde, s, target)
                roundoff = est.error - tail
            assert roundoff > 0
            with workprec(prec + 64):
                assert abs(est.value - ref) <= roundoff, (cfg.label(), prec, s)

    def test_agrees_with_hurwitz_route(self):
        fs = [chi_function(ChiParams(s, t, n, m))
              for s, t in ST_LIST for n, m in pair_set(s, t).pairs]
        fs += [config_hikami(u, ell).f for u in (1, 2, 3) for ell in range(u)]
        fs += [config_t3_2k(k).f for k in (1, 2, 3)]
        with workprec(148):
            for f in fs:
                tilde = tilde_transform(f)
                est = tilde_dirichlet_blocks(tilde, 2, mpf("1e-11"))
                gap = abs(est.value - tilde_dirichlet(tilde, 2))
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

    @pytest.mark.parametrize("prec", [96, 128])
    def test_agrees_with_quadrature_oracle(self, prec):
        """Closed form against the vertical-theta quadrature, within the sum
        of both claimed errors."""
        ctx = PrecisionContext(prec=prec)
        points = [(config_chi(2, 3, 1, 1), a) for a in ("1", "1/2", "-1/2", "1/3")]
        points += [(config_chi(2, 5, 1, 1), "3/5"), (config_t3_2k(3), "1/2")]
        for cfg, alpha in points:
            ser = cfg.series(8)
            bm = boundary_median(ser, Fraction(alpha), ctx)
            quad = boundary_median_quadrature(ser, Fraction(alpha), ctx)
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

    @pytest.mark.parametrize("prec", [53, 128, 276])
    def test_erfc_route_at_real_positive_arguments(self, prec):
        """K^{(-1/2)}_0(-x) by erfc against -e^x x^{1/2} mp.gammainc(-1/2, x) at
        64 more bits, within 2^{4-prec} relative, where cancellation is worst
        (large x) and where there is none (small x)."""
        for x in ("1e-3", "0.5", "3", "40", "300", "5000"):
            with workprec(prec):
                got = resum.laplace_kernel(-mpf(x), 0, MINUS_HALF)
            with workprec(prec + 64):
                x = mpf(x)
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
