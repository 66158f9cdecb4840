"""Theta series: sums, radial limits vs. extrapolation, Eichler integrals."""

from fractions import Fraction

import pytest
from mpmath import mp, mpf, mpc, workprec

from reference import eichler_integral_quadrature, radial_extrapolate
from thetaresum.periodic import ChiParams, chi_function, make_periodic, pair_set, \
    s_matrix_entry, tilde_transform
from thetaresum.precision import PrecisionContext, frac_to_mp
from thetaresum.qseries import (DomainError, NoRadialLimitError, ThetaSpec,
                                VerticalTheta, eichler_integral,
                                theta_radial_limit, theta_upper_half,
                                verify_modular_transform, twisted_table)

CTX = PrecisionContext(prec=128, tol=1e-10)
TREFOIL_F = make_periodic(Fraction(-1, 2), 12, 1, 5)
TREFOIL_SPEC = ThetaSpec(a=1, b=24, nu=1, f=TREFOIL_F)
CHI = chi_function(ChiParams(2, 3, 1, 1))
CHI_SPEC1 = ThetaSpec(a=0, b=24, nu=1, f=CHI)


class TestUpperHalf:
    def test_two_truncations_agree(self):
        loose = PrecisionContext(prec=64, tol=1e-6)
        tight = PrecisionContext(prec=160, tol=1e-30)
        a = theta_upper_half(TREFOIL_SPEC, mpc(0, 1), loose)
        b = theta_upper_half(TREFOIL_SPEC, mpc(0, 1), tight)
        assert abs(a.value - b.value) <= a.error + b.error

    def test_nu0_tilde_decays_at_infinity(self):
        # decay scale is e^{-2 pi Im(x)/B} with B = 4 M^2 = 576
        td = tilde_transform(TREFOIL_F)
        spec = ThetaSpec(a=0, b=4 * 144, nu=0, f=td)
        with CTX.working():
            v = theta_upper_half(spec, mpc(0, 3000), CTX).value
            assert abs(v) < mpf("1e-11")
            lo = theta_upper_half(spec, mpc(0, 300), CTX).value
            assert abs(v) < abs(lo)

    def test_conjugation(self):
        with CTX.working():
            x = mpc("0.3", "0.7")
            a = theta_upper_half(CHI_SPEC1, x, CTX).value
            b = theta_upper_half(CHI_SPEC1, -mp.conj(x), CTX).value
            assert abs(b - mp.conj(a)) < mpf("1e-30")

    def test_requires_upper_half_plane(self):
        with pytest.raises(DomainError):
            theta_upper_half(TREFOIL_SPEC, mpc(1, 0), CTX)


class TestRadialLimits:
    def test_trefoil_values(self):
        with CTX.working():
            one = theta_radial_limit(TREFOIL_SPEC, Fraction(1), CTX)
            assert abs(one.value - 1) < mpf("1e-30")
            half = theta_radial_limit(TREFOIL_SPEC, Fraction(1, 2), CTX)
            assert abs(half.value - 3) < mpf("1e-30")

    def test_chi_normalised_value(self):
        with CTX.working():
            got = theta_radial_limit(CHI_SPEC1, Fraction(1), CTX)
            assert abs(got.value + 2 * mp.expjpi(mpf(1) / 12)) < mpf("1e-30")

    def test_nu0_limit_vanishes_for_even_f(self):
        spec0 = ThetaSpec(a=0, b=24, nu=0, f=CHI)
        with CTX.working():
            got = theta_radial_limit(spec0, Fraction(1), CTX)
            assert abs(got.value) < mpf("1e-30")
            ex = radial_extrapolate(spec0, Fraction(1), CTX)
            assert abs(ex.value) < mpf("1e-7")

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            theta_radial_limit(TREFOIL_SPEC, Fraction(0), CTX)

    def test_oracle_matrix(self):
        """Bernoulli-sum limits agree with Richardson extrapolation to 1e-6."""
        specs = [TREFOIL_SPEC, CHI_SPEC1,
                 ThetaSpec(a=0, b=48, nu=1, f=chi_function(ChiParams(3, 4, 1, 1)))]
        alphas = [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2),
                  Fraction(1, 3), Fraction(2, 3)]
        with CTX.working():
            for spec in specs:
                for alpha in alphas:
                    lim = theta_radial_limit(spec, alpha, CTX)
                    ora = radial_extrapolate(spec, alpha, CTX)
                    assert abs(lim.value - ora.value) < mpf("1e-6"), (spec.b, alpha)

    def test_twist_period_exact(self):
        P, h = twisted_table(CHI, Fraction(1, 3), 0, 24)
        period = CHI.period
        with CTX.working():
            for n in range(P):
                m = n + P
                fv = CHI(m % period)
                if fv == 0:
                    assert h[n % P] == 0
            # periodicity: rebuilding at shifted indices reproduces the table
            for n in range(2 * P):
                expo_a = (2 * Fraction(1, 3) * (n * n - 0) / 24) % 2
                expo_b = (2 * Fraction(1, 3) * ((n + P) ** 2 - 0) / 24) % 2
                assert expo_a == expo_b

    def test_nonzero_mean_rejected(self):
        # every four-residue config appears to produce mean-zero twists (the
        # limits exist at all rationals), so exercise the guard on a stub
        class ConstantOne:
            period = 1

            def __call__(self, n):
                return Fraction(1)

        from types import SimpleNamespace
        bogus = SimpleNamespace(a=0, b=1, nu=0, f=ConstantOne())
        with pytest.raises(NoRadialLimitError):
            theta_radial_limit(bogus, Fraction(1, 3), CTX)


class TestVerticalTheta:
    def test_regime_agreement(self):
        td = tilde_transform(TREFOIL_F)
        vt = VerticalTheta(td, 4 * 144, Fraction(0))
        with CTX.working():
            # lambda = 2 pi w / B crosses pi/P near w = B/(2P)
            w_switch = mpf(4 * 144) / (2 * td.period)
            for w in (w_switch * mpf("0.98"), w_switch * mpf("1.02")):
                direct = mp.fsum(td(n) * mp.exp(-2 * mp.pi * w * n * n / (4 * 144))
                                 for n in range(1, 4000))
                assert abs(vt.value(w) - direct) < mpf("1e-25")

    def test_small_w_all_orders_decay(self):
        td = tilde_transform(TREFOIL_F)
        vt = VerticalTheta(td, 4 * 144, Fraction(0))
        with CTX.working():
            v1 = vt.value(mpf("0.01"))
            v2 = vt.value(mpf("0.005"))
            assert abs(v2) < abs(v1) < mpf("1e-40")


class TestModularTransform:
    def test_fixed_point(self):
        rep = verify_modular_transform(2, 3, (1, 1), mpc(0, 1), CTX)
        assert rep.residual < mpf("1e-30")

    def test_trefoil_at_2i(self):
        rep = verify_modular_transform(2, 3, (1, 1), mpc(0, 2), CTX)
        assert rep.passed
        with CTX.working():
            lhs = theta_upper_half(ThetaSpec(a=0, b=24, nu=0, f=CHI), mpc(0, 2), CTX).value
            rhs = theta_upper_half(ThetaSpec(a=0, b=24, nu=0, f=CHI), mpc(0, "0.5"), CTX).value
            assert abs(lhs - rhs / mp.sqrt(2)) < mpf("1e-12")

    def test_3_4_family(self):
        z = mpc(0, mpf(1) / 3)
        for nm in pair_set(3, 4):
            rep = verify_modular_transform(3, 4, nm, z, CTX, tol=mpf("1e-10"))
            assert rep.passed, (nm, rep.residual)


class TestGentorLift:
    def test_theta_identity_from_decomposition(self):
        """theta^{(nu)}_{0,4(2st)^2,chi~}(4st z) = -sqrt(st/8) sum S theta^{(nu)}_{0,4st,chi'}(z)."""
        z = mpc(0, "0.5")
        with CTX.working():
            for (s, t) in [(2, 3), (3, 4)]:
                for nu in (0, 1):
                    chi_nm = chi_function(ChiParams(s, t, 1, 1))
                    tld = tilde_transform(chi_nm)
                    M = 2 * s * t
                    lhs = theta_upper_half(ThetaSpec(a=0, b=4 * M * M, nu=nu, f=tld),
                                           4 * s * t * z, CTX).value
                    acc = mpc(0)
                    for other in pair_set(s, t):
                        Se = s_matrix_entry(s, t, (1, 1), other, CTX)
                        spec = ThetaSpec(a=0, b=4 * s * t, nu=nu,
                                         f=chi_function(ChiParams(s, t, *other)))
                        acc += Se * theta_upper_half(spec, z, CTX).value
                    rhs = -mp.sqrt(mpf(s * t) / 8) * acc
                    assert abs(lhs - rhs) < mpf("1e-10"), (s, t, nu)


class TestEichler:
    def test_boundary_value_is_half_theta1(self):
        with CTX.working():
            got = eichler_integral(2, 3, (1, 1), mpf(1), Fraction(1), CTX)
            assert abs(got.value - mp.expjpi(mpf(1) / 12)) < mpf("1e-6")

    def test_cocycle_at_minus_i(self):
        with CTX.working():
            z = mpc(0, -1)
            ph = eichler_integral(2, 3, (1, 1), z, "conj", CTX)
            r0 = eichler_integral(2, 3, (1, 1), z, Fraction(0), CTX)
            lhs = ph.value + (1 / (1j * z)) ** mpf("1.5") * ph.value
            assert abs(lhs - r0.value) < mpf("1e-6")

    def test_path_additivity(self):
        """r(z; alpha) - r(z; 0) equals the integral over a bridge 0 -> alpha."""
        alpha = Fraction(1)
        z = mpc(0, -1)
        s, t = 2, 3
        spec0 = ThetaSpec(a=0, b=24, nu=0, f=CHI)
        with CTX.working():
            r_a = eichler_integral(s, t, (1, 1), z, alpha, CTX).value
            r_0 = eichler_integral(s, t, (1, 1), z, Fraction(0), CTX).value
            pref = mp.sqrt(mpc(0, s * t) / (8 * mp.pi ** 2))
            h = mpf(2)

            def kern(tau):
                return theta_upper_half(spec0, tau, CTX).value * (tau - z) ** mpf("-1.5")

            # bridge: 0 + ih -> alpha + ih horizontally; vertical legs complete
            # the two rays (theta vanishes to all orders at the real endpoints)
            a_mp = frac_to_mp(alpha)
            horiz = mp.quad(lambda u: kern(mpc(u, h)), [0, a_mp])
            vt0 = VerticalTheta(CHI, 24, Fraction(0))
            vta = VerticalTheta(CHI, 24, alpha)
            leg0 = mp.quad(lambda w: 1j * vt0.value(w) * (mpc(0, w) - z) ** mpf("-1.5"),
                           [0, mpf("0.25"), h])
            lega = mp.quad(lambda w: 1j * vta.value(w) * (mpc(a_mp, w) - z) ** mpf("-1.5"),
                           [0, mpf("0.25"), h])
            bridge = pref * (leg0 + horiz - lega)
            assert abs((r_0 - r_a) - bridge) < mpf("1e-10")


class TestEichlerErrorBars:
    """|value - truth| <= claimed error for the closed-form Eichler integrals."""

    @pytest.mark.parametrize("prec", [64, 96, 128, 192])
    @pytest.mark.parametrize("alpha", ["1", "1/2", "-1/2", "1/3", "2/5"])
    def test_boundary_value_within_error_bars(self, alpha, prec):
        """E(alpha; alpha) = -theta/2, theta the radial limit L(-1, h)."""
        alpha = Fraction(alpha)
        ctx = PrecisionContext(prec=prec)
        with ctx.working():
            got = eichler_integral(2, 3, (1, 1), frac_to_mp(alpha), alpha, ctx)
            theta = theta_radial_limit(CHI_SPEC1, alpha, ctx)
            gap = abs(got.value + theta.value / 2)
            allowed = got.error + theta.error / 2 + mpf(2) ** (-prec) * abs(theta.value)
            assert gap <= allowed, (gap, allowed)

    @pytest.mark.parametrize("tol", [1e-8, 1e-20])
    @pytest.mark.parametrize("s, t, z", [(2, 3, "-1j"), (3, 4, "0.2-1.3j")])
    def test_cocycle_within_error_bars(self, s, t, z, tol):
        """E(z; conj) + (1/(iz))^{3/2} sum S E'(-1/z; conj) = E(z; 0), whatever
        the tolerance: no path truncates at it.  Off the imaginary axis c is
        complex and the "conj" terms carry phases."""
        ctx = PrecisionContext(prec=128, tol=tol)
        nm = (1, 1)
        with ctx.working():
            z = mpc(complex(z))
            ph = eichler_integral(s, t, nm, z, "conj", ctx)
            factor = (1 / (1j * z)) ** mpf("1.5")
            acc, acc_err = mpc(0), mpf(0)
            for other in pair_set(s, t):
                S = s_matrix_entry(s, t, nm, other, ctx)
                est = eichler_integral(s, t, other, -1 / z, "conj", ctx)
                acc += S * est.value
                acc_err += abs(S) * est.error
            r0 = eichler_integral(s, t, nm, z, Fraction(0), ctx)
            residual = abs(ph.value + factor * acc - r0.value)
            allowed = ph.error + abs(factor) * acc_err + r0.error \
                + mpf(2) ** (-ctx.prec) * abs(r0.value)
            assert residual <= allowed, (residual, allowed)

    def test_closed_form_matches_quadrature_oracle(self):
        """alpha = 1 at z = 1 and r(-i; 0) against mp.quad over VerticalTheta, and
        a "conj" path off the imaginary axis against mp.quad over theta_upper_half
        (tol 1e-30 for the oracle's theta truncation; the closed form has none)."""
        ctx = PrecisionContext(prec=96, tol=1e-30)
        with ctx.working():
            for z, lower in ((mpf(1), Fraction(1)), (mpc(0, -1), Fraction(0)),
                             (mpc("0.25", -1), "conj")):
                got = eichler_integral(2, 3, (1, 1), z, lower, ctx)
                quad = eichler_integral_quadrature(2, 3, (1, 1), z, lower, ctx)
                gap = abs(got.value - quad.value)
                assert gap <= got.error + quad.error, (lower, gap)

    def test_uses_no_quadrature(self, monkeypatch):
        def no_quad(*args, **kwargs):
            raise AssertionError("mp.quad called")

        monkeypatch.setattr(mp, "quad", no_quad)
        ctx = PrecisionContext(prec=64)
        eichler_integral(2, 3, (1, 1), mpf("0.5"), Fraction(1, 2), ctx)
        eichler_integral(2, 3, (1, 1), mpc(0, -1), Fraction(0), ctx)
        eichler_integral(2, 3, (1, 1), mpc("0.25", -1), "conj", ctx)

    def test_rejects_upper_half_plane(self):
        with pytest.raises(DomainError):
            eichler_integral(2, 3, (1, 1), mpc(0, 1), Fraction(0), CTX)
        with pytest.raises(DomainError):
            eichler_integral(2, 3, (1, 1), mpc(0, 1), "conj", CTX)


class TestVerticalThetaTwisted:
    def test_twisted_regime_agreement(self):
        vt = VerticalTheta(CHI, 24, Fraction(1, 2))
        with CTX.working():
            w_switch = mpf(24) / (2 * vt._build()[0])
            for w in (w_switch * mpf("0.9"), w_switch * mpf("1.1")):
                direct = mpc(0)
                lam = 2 * mp.pi * w / 24
                for n in range(1, 3000):
                    fv = CHI(n)
                    if fv:
                        phase = (2 * Fraction(1, 2) * n * n / 24) % 2
                        direct += frac_to_mp(fv) * mp.expjpi(frac_to_mp(phase)) \
                            * mp.exp(-lam * n * n)
                assert abs(vt.value(w) - direct) < mpf("1e-24")
