"""Borel-transform layer: Taylor data, Hadamard oracle, singularities, evaluation."""

import math
from fractions import Fraction

import pytest
from mpmath import mp, mpf, mpc, workprec

from reference import trefoil_explicit_borel
from thetaresum import borel
from thetaresum.borel import (GUARD_FACTOR, BranchCutError, SingularProximityError,
                              borel_coefficients, borel_eval, gfp_coefficients,
                              hadamard_g2_coefficients, hadamard_oracle, singularities)
from thetaresum.config import config_chi, config_t3_2k, trefoil_chi, trefoil_strange
from thetaresum.precision import PrecisionContext

CTX = PrecisionContext(prec=128, tol=1e-12)
SER = trefoil_strange().series(40)


class TestCoefficients:
    def test_constant_term(self):
        assert borel_coefficients(SER, 1)[0] == Fraction(23, 24)

    def test_delta_part(self):
        assert SER.c_m == 1

    def test_gfp_rearrangement_agrees_exactly(self):
        a = borel_coefficients(SER, 30)
        b = gfp_coefficients(SER, 30)
        assert a == b

    def test_hadamard_product_exact(self):
        assert hadamard_oracle(SER, 31) == borel_coefficients(SER, 31)

    def test_hadamard_chi34_exact(self):
        ser = config_chi(3, 4, 1, 1).series(40)
        assert hadamard_oracle(ser, 31) == borel_coefficients(ser, 31)

    def test_g2_closed_form(self):
        # (1/b) 6 (1 - 4p/b)^{-5/2} has Taylor coefficients (2n+3)!/(n!(n+1)!) b^{-n-1}
        b = 24
        coeffs = hadamard_g2_coefficients(b, 21)
        assert coeffs[0] == Fraction(6, b)
        binom = Fraction(1)
        for n in range(21):
            expect = 6 * binom * Fraction(4, b) ** n * Fraction(1, b)
            assert coeffs[n] == expect
            assert coeffs[n] == Fraction(math.factorial(2 * n + 3),
                                         math.factorial(n) * math.factorial(n + 1) * b ** (n + 1))
            binom *= Fraction(5 + 2 * n, 2 * (n + 1))  # (5/2+n)/(n+1)

    def test_cost_guard(self):
        with pytest.raises(ValueError):
            hadamard_oracle(SER, 41)


class TestSingularities:
    def test_trefoil_positions(self):
        """chi(2,3): l = 1, 5, 7, 11 at b pi^2 l^2/M^2 (b = 6, M = 6)."""
        sing = singularities(SER, 4, CTX)
        assert [ell for ell, _ in sing] == [1, 5, 7, 11]
        with CTX.working():
            for ell, p in sing:
                assert abs(p - ell ** 2 * mp.pi ** 2 / 6) < mpf("1e-30")

    def test_excluded_multiples(self):
        ells = [ell for ell, _ in singularities(SER, 8, CTX)]
        for ell in (2, 3, 4, 6, 9, 12):
            assert SER.tilde(ell) == 0
            assert ell not in ells

    def test_chi34_first(self):
        ser = config_chi(3, 4, 1, 1).series(4)
        with CTX.working():
            (ell, first), = singularities(ser, 1, CTX)
            assert ell == ser.tilde.first_support
            assert abs(first - mp.pi ** 2 / 12) < mpf("1e-30")


class TestEval:
    def test_matches_taylor_at_zero(self):
        got = borel_eval(SER, mpc(0), CTX)
        with CTX.working():
            assert abs(got.value - mpf(23) / 24) < mpf("1e-30")

    def test_matches_explicit_trefoil_form(self):
        with CTX.working():
            for p in (mpc(0), mpc(-1), mpc(1, 1), mp.pi ** 2 / 12):
                a = borel_eval(SER, p, CTX)
                b = trefoil_explicit_borel(p, CTX)
                assert abs(a.value - b.value) < mpf("1e-12")

    def test_proximity_guard(self):
        with CTX.working():
            (_, first), = singularities(SER, 1, CTX)
            with pytest.raises(SingularProximityError):
                borel_eval(SER, first, CTX)

    def test_cut_requires_side(self):
        with CTX.working():
            p = mp.pi ** 2 / 6 * mpf(2)  # between first and second singularity
            with pytest.raises(BranchCutError, match="side='plus' or side='minus'"):
                borel_eval(SER, p, CTX)
            with pytest.raises(BranchCutError):
                borel_eval(SER, p, CTX, side="+")
            up = borel_eval(SER, p, CTX, side="plus")
            dn = borel_eval(SER, p, CTX, side="minus")
            # the two lateral branches are conjugate and genuinely differ
            assert abs(up.value - mp.conj(dn.value)) < mpf("1e-25")
            assert abs(up.value - dn.value) > mpf("0.1")

    def test_conjugation_symmetry(self):
        with CTX.working():
            for p in (mpc(1, 1), mpc(-2, "0.7"), mpc("0.3", "-0.4")):
                a = borel_eval(SER, p, CTX).value
                b = borel_eval(SER, mp.conj(p), CTX).value
                assert abs(a - mp.conj(b)) < mpf("1e-30")

    def test_jump_across_cut_is_single_term(self):
        # between the first two singularities only the l=1 term carries a
        # branch jump: G(p+i0) - G(p-i0) = 2i pref f~(1) |A - p/b|^{-5/2}
        with CTX.working():
            p = mp.pi ** 2 / 6 * mpf(2)
            up = borel_eval(SER, p, CTX, side="plus").value
            dn = borel_eval(SER, p, CTX, side="minus").value
            f = SER.f
            pref = 3 * mp.pi * mpf(-0.5) / (f.M ** 2 * SER.b)
            w = mp.pi ** 2 / f.M ** 2 - p / SER.b
            td = SER.tilde
            expect = 2j * pref * td(1) * abs(w) ** mpf("-2.5")
            assert abs((up - dn) - expect) < mpf("1e-25")

    def test_side_limits_match_offaxis_approach(self):
        # continuation around the first singularity: the +i0 evaluation agrees
        # with p + i eps as eps -> 0
        with CTX.working():
            p = mp.pi ** 2 / 6 * mpf(2)
            up = borel_eval(SER, p, CTX, side="plus").value
            seq = [borel_eval(SER, mpc(p, eps), CTX).value
                   for eps in (mpf("1e-6"), mpf("1e-8"))]
            assert abs(seq[1] - up) < abs(seq[0] - up)
            assert abs(seq[1] - up) < mpf("1e-6")


class TestHeadCut:
    """borel_eval's head needs only (L + 1)^2 > 2 |p|/(b A), so the cut is
    the chooser's, within ell_cap."""

    def test_ell_cap_bounds_the_head(self, monkeypatch):
        """t3-2k(3) at p = 0.1 with ell_cap = 16: L <= 16 (a floor of 2M
        once made it 96), unflagged."""
        cuts = []
        inner = borel.ell_sum

        def recording(table, cut, term, moments):
            cuts.append(cut)
            return inner(table, cut, term, moments)

        monkeypatch.setattr(borel, "ell_sum", recording)
        got = borel_eval(config_t3_2k(3).series(8), mpf("0.1"),
                         PrecisionContext(prec=128, ell_cap=16))
        (L, _, exhausted), = cuts
        assert L <= 16 and not exhausted and not got.budget_exhausted

    @pytest.mark.parametrize("cap", [None, 16])
    def test_matches_explicit_trefoil_form_within_the_errors(self, cap):
        """The trefoil's chi_12 transform against the explicit form, off the
        cut and on it between the first two singularities.  The explicit
        form's principal power is the limit from Im p < 0 (side "minus");
        by Schwarz reflection the "plus" limit is its conjugate."""
        ctx = (PrecisionContext(prec=128) if cap is None
               else PrecisionContext(prec=128, ell_cap=cap))
        ser = trefoil_strange().series(8)
        with ctx.working():
            cut = 2 * mp.pi ** 2 / 6
            for p, side in ((mpc(0), None), (mpc("0.05", "0.01"), None),
                            (cut, "plus"), (cut, "minus")):
                got = borel_eval(ser, p, ctx, side=side)
                ref = trefoil_explicit_borel(p, ctx)
                want = mp.conj(ref.value) if side == "plus" else ref.value
                assert not got.budget_exhausted
                assert abs(got.value - want) <= got.error + ref.error, (p, side)


class TestNearestSingularity:
    """borel_eval refuses p within GUARD_FACTOR times the first singularity
    of the nearest one, found by its scan of the support of f~."""

    def test_guard_of_the_third_singularity(self):
        (_, first), _, (ell, third) = singularities(SER, 3, CTX)
        assert ell == 7
        with CTX.working():
            guard = GUARD_FACTOR * first
            for p in (third + guard / 2, mpc(third, -guard / 2), third - guard / 2):
                with pytest.raises(SingularProximityError):
                    borel_eval(SER, p, CTX, side="plus")
            for p in (third + 2 * guard, mpc(third, 2 * guard), third - 2 * guard):
                assert borel_eval(SER, p, CTX, side="plus").error < mpf("1e-12")

    def test_zeros_of_tilde_are_not_singular(self):
        """The l = 2, 3, 4, 6 positions (f~(l) = 0) are regular points."""
        with CTX.working():
            for ell in (2, 3, 4, 6):
                p = ell ** 2 * mp.pi ** 2 / 6
                assert borel_eval(SER, p, CTX, side="plus").error < mpf("1e-12")


class TestTaylorDiscAgreement:
    def test_eval_matches_taylor_inside_disc(self):
        # |p| below the first singularity: the truncated Taylor series (ratio
        # <= 1/2 with 88 terms) must agree with the closed-form evaluation
        from thetaresum.config import trefoil_strange
        tight = PrecisionContext(prec=128, tol=1e-24)
        deep = trefoil_strange().series(90)
        with tight.working():
            g = borel_coefficients(deep, 89)
            gv = [mpf(c.numerator) / c.denominator for c in g]
            for p in (mpc("0.4"), mpc(0, "0.6"), mp.pi ** 2 / 12):
                taylor = mp.fsum(gv[n] * mpc(p) ** n for n in range(89))
                got = borel_eval(deep, p, tight).value
                assert abs(got - taylor) < mpf("1e-18"), p


class TestFarTail:
    """Far from the origin the tail l > L is a shifted Hurwitz sum; taking it
    as the full sum less the head lost every digit (re 4.7e45 at 329 + 1.6i)."""

    @pytest.mark.parametrize("p, tol", [("329+1.6j", 1e-20), ("first*(30+1j)", 1e-30),
                                        ("-200+3j", 1e-25), ("50j", 1e-20), ("329+1.6j", 1e-40)])
    def test_error_bounds_gap_to_600_bits(self, p, tol):
        ser = trefoil_chi().series(8)
        # 1e-40 is below 128-bit roundoff: that row runs at 256 bits
        ctx = PrecisionContext(prec=128 if tol >= 1e-30 else 256, tol=tol)
        hi = PrecisionContext(prec=600, tol=1e-60)
        with workprec(620):
            if p.startswith("first"):
                pp = singularities(ser, 1, hi)[0][1] * mpc(30, 1)
            else:
                pp = mpc(complex(p))
        got = borel_eval(ser, pp, ctx)
        ref = borel_eval(ser, pp, hi)
        with workprec(620):
            assert got.error < mpf(tol)
            assert abs(got.value - ref.value) <= got.error + ref.error, p
