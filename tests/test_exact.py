"""Bernoulli layer, L-values, expansion coefficients, Gevrey fit."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf, mpc, workprec

from reference import (bernoulli_polynomial_fractions, even_bernoulli_sum,
                       pattern_bernoulli_sum_scan)
from thetaresum.config import config_chi, config_t3_2k, trefoil_strange
from thetaresum.exact import (bernoulli_number, bernoulli_polynomial, bernoulli_sum,
                              gevrey_estimate, l_value, series_coefficients)
from thetaresum.periodic import PeriodicTable, make_periodic
from thetaresum.precision import PrecisionContext, frac_to_mp
from thetaresum.qseries import ThetaSpec, twisted_table

TREFOIL_F = make_periodic(Fraction(-1, 2), 12, 1, 5)
TREFOIL_SPEC = ThetaSpec(a=1, b=24, nu=1, f=TREFOIL_F)


class TestBernoulli:
    def test_polynomial_values(self):
        assert bernoulli_polynomial(2, 0) == Fraction(1, 6)
        assert bernoulli_polynomial(2, Fraction(1, 12)) == Fraction(13, 144)
        assert bernoulli_polynomial(4, Fraction(5, 12)) == Fraction(2669, 103680)

    def test_numbers(self):
        assert bernoulli_number(0) == 1
        assert bernoulli_number(1) == Fraction(-1, 2)
        assert bernoulli_number(12) == Fraction(-691, 2730)
        assert all(bernoulli_number(2 * k + 1) == 0 for k in range(1, 12))

    @given(st.integers(0, 20),
           st.fractions(min_value=-4, max_value=4, max_denominator=60))
    @settings(max_examples=150, deadline=None)
    def test_reflection(self, k, x):
        assert bernoulli_polynomial(k, 1 - x) == (-1) ** k * bernoulli_polynomial(k, x)

    @given(st.integers(0, 60),
           st.fractions(min_value=-4, max_value=4, max_denominator=200))
    @settings(max_examples=150, deadline=None)
    def test_integer_sum_matches_fraction_sum(self, k, x):
        assert bernoulli_polynomial(k, x) == bernoulli_polynomial_fractions(k, x)


class TestPatternBernoulliSum:
    PATTERNS = {
        "trefoil": make_periodic(Fraction(-1, 2), 12, 1, 5),
        "M24": make_periodic(1, 24, 1, 7),
        "c2/3-M40": make_periodic(Fraction(2, 3), 40, 3, 11),
        "M35": make_periodic(1, 35, 16, 9),
        "t3-2k-5": config_t3_2k(5).f,
    }

    @pytest.mark.parametrize("name", sorted(PATTERNS))
    def test_two_term_form_matches_residue_scan(self, name):
        """The paired sum over the sign pattern, which comes to 2 (B_k(k1/M) -
        B_k(k2/M)), against the scan over all M residues (tests/reference.py)
        at every even degree up to 120."""
        f = self.PATTERNS[name]
        for k in range(2, 121, 2):
            assert bernoulli_sum(f.pattern, k) == pattern_bernoulli_sum_scan(f, k), (name, k)

    def test_l_value_from_residue_scan(self):
        f = self.PATTERNS["c2/3-M40"]
        for n in range(8):
            scan = pattern_bernoulli_sum_scan(f, 2 * n + 2)
            assert l_value(f.values, 2 * n + 1) == -f.c * Fraction(40 ** (2 * n + 1), 2 * n + 2) * scan

    @pytest.mark.parametrize("cfg", [trefoil_strange(), config_chi(2, 3, 1, 1), config_t3_2k(2)],
                             ids=["trefoil", "chi(2,3)", "t3-2k(2)"])
    def test_paired_sum_matches_ordered_sum_on_twisted_tables(self, cfg):
        """bernoulli_sum pairs r with P - r and drops odd k down to h(0) B_k(1);
        on twisted tables (h(0) = 0) and on the same tables plus 1 (h(0) =
        1), for k = 1..4, it equals the ordered sum over r = 1..P."""
        with workprec(128):
            for alpha in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5), Fraction(3, 7)):
                h = twisted_table(cfg.f, alpha, cfg.a, cfg.b)
                for table in (h, PeriodicTable(v + 1 for v in h)):
                    P = len(table)
                    bound = P * table.max_abs() * mpf(2) ** (8 - mp.prec)
                    for k in range(1, 5):
                        plain = mpc(0)
                        for r in range(1, P + 1):
                            plain += table(r) * frac_to_mp(bernoulli_polynomial(k, Fraction(r, P)))
                        assert abs(bernoulli_sum(table, k) - plain) <= bound, (alpha, P, k)


class TestLValues:
    def test_trefoil_character(self):
        chi = make_periodic(Fraction(1), 12, 1, 5)
        assert l_value(chi.values, 1) == -2
        assert l_value(chi.values, 3) == 46

    def test_linearity_in_scale(self):
        chi = make_periodic(Fraction(1), 12, 1, 5)
        neg = make_periodic(Fraction(-1), 12, 1, 5)
        for n in range(5):
            assert l_value(neg.values, 2 * n + 1) == -l_value(chi.values, 2 * n + 1)


class TestSeriesCoefficients:
    def test_trefoil_values(self):
        ser = series_coefficients(TREFOIL_SPEC, 4)
        assert ser.C == (1, 23, 1681, 257543)
        assert ser.c_m == 1

    def test_cm_matches_c0_everywhere(self):
        """c_m is C_0, and both equal C_M = -(M/2) c sum_m pattern(m) B_2(m/M)
        from the residue scan."""
        for cfg_f, b in [(make_periodic(Fraction(1), 12, 1, 5), 24),
                         (make_periodic(Fraction(1), 24, 1, 7), 48),
                         (make_periodic(Fraction(2, 3), 40, 3, 11), 80)]:
            ser = series_coefficients(ThetaSpec(a=0, b=b, nu=1, f=cfg_f), 3)
            cm = -cfg_f.c * Fraction(cfg_f.M, 2) * pattern_bernoulli_sum_scan(cfg_f, 2)
            assert ser.C[0] == ser.c_m == cm

    def test_a_accessor(self):
        ser = series_coefficients(TREFOIL_SPEC, 4)
        assert ser.a(0) == 1
        assert ser.a(1) == Fraction(23, 24)
        assert ser.a(2) == Fraction(1681, 2 * 24 ** 2)

    def test_cnf_equals_signed_lvalue(self):
        ser = series_coefficients(TREFOIL_SPEC, 31)
        for n in range(31):
            assert ser.C[n] == (-1) ** n * l_value(TREFOIL_F.values, 2 * n + 1)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            series_coefficients(TREFOIL_SPEC, 0)


class TestGevrey:
    def test_trefoil_radius(self):
        ctx = PrecisionContext(prec=128, tol=1e-10)
        fit = gevrey_estimate(trefoil_strange().series(64), ctx=ctx)
        with ctx.working():
            target = mp.pi ** 2 / 6
            assert abs(fit.radius - target) / target < mpf("1e-3")
            assert abs(fit.radius_expected - target) < mpf("1e-30")

    def test_chi34_radius(self):
        ctx = PrecisionContext(prec=128, tol=1e-10)
        fit = gevrey_estimate(config_chi(3, 4, 1, 1).series(64), ctx=ctx)
        with ctx.working():
            target = mp.pi ** 2 / 12
            assert abs(fit.radius - target) / target < mpf("1e-3")

    def test_scaling_c_only_moves_a(self):
        ctx = PrecisionContext(prec=96, tol=1e-10)
        base = config_chi(2, 3, 1, 1).series(48)
        doubled = series_coefficients(
            ThetaSpec(a=0, b=24, nu=1, f=base.f.scale(2)), 48)
        f1 = gevrey_estimate(base, ctx=ctx)
        f2 = gevrey_estimate(doubled, ctx=ctx)
        with ctx.working():
            assert abs(f1.B - f2.B) / f1.B < mpf("1e-20")
            assert abs(f2.A - 2 * f1.A) / f1.A < mpf("1e-6")


class TestGeneratingIdentity:
    def test_even_bernoulli_sine_identity(self):
        """The even-Bernoulli generating sum equals the sine-product kernel.

        (1/(M y)) sum_m f(m) sum_n B_{2n+2}(m/M)(iMy)^{2n+2}/(2n+2)!
            = -2c sin((k2-k1)y/2) sin((M-k1-k2)y/2) / sin(My/2)
        for |y| < 2 pi / M; 20 pseudo-random complex y at 256 bits.  The inner
        Bernoulli sums are cached per degree (reference.even_bernoulli_sum);
        |B_{2n}(x)| <= |B_{2n}| on [0,1] gives the geometric truncation bound
        with ratio (M|y|/2pi)^2.
        """
        f = TREFOIL_F
        M = f.M
        with workprec(300):
            rng_state = 987654321
            worst = mpf(0)
            for trial in range(20):
                rng_state = (rng_state * 6364136223846793005 + 1442695040888963407) % 2 ** 63
                mag = (mpf(rng_state % 10 ** 6) / 10 ** 6) * mpf("0.7") + mpf("0.05")
                rng_state = (rng_state * 6364136223846793005 + 1442695040888963407) % 2 ** 63
                ang = mpf(rng_state % 10 ** 6) / 10 ** 6 * 2
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
                rhs = -2 * frac_val(f.c) * mp.sin((f.k2 - f.k1) * y / 2) \
                    * mp.sin((M - f.k1 - f.k2) * y / 2) / mp.sin(M * y / 2)
                worst = max(worst, abs(lhs - rhs))
            assert worst < mpf("1e-20")


def frac_val(x):
    if isinstance(x, Fraction):
        return mpf(x.numerator) / x.denominator
    return x


class TestGevreyLeastSquares:
    def test_lsq_slope_near_ratio_limit(self):
        ctx = PrecisionContext(prec=128, tol=1e-10)
        fit = gevrey_estimate(trefoil_strange().series(64), ctx=ctx)
        with ctx.working():
            # the straight slope carries the n^{3/2} bias, so only loosely
            # matches; both must point at the same radius scale
            assert abs(fit.B_lsq - fit.B) / fit.B < mpf("0.1")
