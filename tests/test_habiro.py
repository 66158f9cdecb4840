"""Root-of-unity evaluations and strange-identity checks."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import mp, mpf, mpc, workprec

from reference import colored_jones_trefoil, hikami_x_enumeration, kontsevich_zagier_product
from thetaresum import habiro
from thetaresum.habiro import (BudgetError, RootOfUnity, StrangeConfig, hikami_x,
                               kontsevich_zagier_eval, q_binomial, q_pochhammer,
                               verify_strange)
from thetaresum.precision import PrecisionContext

CTX = PrecisionContext(prec=128, tol=1e-10)


class TestRootOfUnity:
    def test_reduction(self):
        r = RootOfUnity.from_fraction(Fraction(2, 6))
        assert (r.j, r.N) == (1, 3)
        r = RootOfUnity.from_fraction(Fraction(-1, 2))
        assert (r.j, r.N) == (1, 2)

    def test_power_closes(self):
        with CTX.working():
            for N in (3, 7, 12):
                z = RootOfUnity(1, N).zeta()
                assert abs(z ** N - 1) < mpf(2) ** -120

    def test_rejects_noncoprime(self):
        with pytest.raises(ValueError):
            RootOfUnity(2, 6)


class TestPochhammer:
    def test_empty_product(self):
        assert q_pochhammer(0, RootOfUnity(1, 5)) == 1

    def test_at_minus_one(self):
        assert q_pochhammer(1, RootOfUnity(1, 2)) == 2
        assert q_pochhammer(2, RootOfUnity(1, 2)) == 0

    def test_vanishes_at_order(self):
        for N in (3, 5, 8, 11, 16):
            v = q_pochhammer(N, RootOfUnity(1, N), ctx=CTX)
            assert v == 0  # exact ring at every order

    def test_generic_complex_argument(self):
        """q must be a RootOfUnity: the exact ring has no other q."""
        with pytest.raises(TypeError):
            q_pochhammer(3, mpc("0.3", "0.4"))

    def test_truncation_stability(self):
        # sum_{n<=N-1}(q)_n == sum_{n<=2N}(q)_n exactly: extra terms vanish
        for N in (3, 5, 8):
            q = RootOfUnity(1, N)
            with CTX.working():
                full = mp.fsum(q_pochhammer(n, q, ctx=CTX) for n in range(N))
                longer = mp.fsum(q_pochhammer(n, q, ctx=CTX) for n in range(2 * N + 1))
                assert full == longer


class TestQBinomial:
    def test_edge_cases(self):
        q = RootOfUnity(1, 5)
        assert q_binomial(4, 0, q) == 1
        assert q_binomial(4, 4, q) == 1
        assert q_binomial(3, 5, q) == 0

    def test_two_choose_one(self):
        with CTX.working():
            q = RootOfUnity(1, 7)
            ref = 1 + q.zeta()
            assert abs(q_binomial(2, 1, q, CTX) - ref) < mpf(2) ** -100

    def test_four_choose_two_at_i(self):
        # (1+q^2)(1+q+q^2) at q = i is 0
        assert q_binomial(4, 2, RootOfUnity(1, 4)) == 0

    def test_generic_complex_argument(self):
        with pytest.raises(TypeError):
            q_binomial(3, 1, mpf("0.37"))

    @given(st.integers(2, 9), st.integers(1, 8), st.integers(0, 8), st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_matches_product_formula_off_roots(self, N, j, top, bottom):
        """The q-Pascal recurrence against the product formula at
        q = e^{2 pi i j/N}, top < N, where no factor 1 - q^(i+1) of the
        denominator vanishes."""
        assume(top < N and math.gcd(j, N) == 1)
        q = RootOfUnity(j, N)
        rec = q_binomial(top, bottom, q, CTX)
        if bottom > top:
            assert rec == 0
            return
        with CTX.working():
            z = mp.expjpi(mpf(2 * j) / N)
            num = den = mpc(1)
            for i in range(bottom):
                num *= 1 - z ** (top - i)
                den *= 1 - z ** (i + 1)
            assert abs(rec - num / den) < mpf(2) ** -100


class TestKontsevichZagier:
    def test_values(self):
        with CTX.working():
            assert kontsevich_zagier_eval(RootOfUnity(0, 1), CTX) == 1
            assert kontsevich_zagier_eval(RootOfUnity(1, 2), CTX) == 3
            z3 = mp.expjpi(mpf(2) / 3)
            got = kontsevich_zagier_eval(RootOfUnity(1, 3), CTX)
            assert abs(got - (5 - z3)) < mpf(2) ** -120


class TestColoredJones:
    """The explicit trefoil colored Jones sum (tests/reference.py) against
    Phi: J_N = zeta_N Phi(zeta_N)."""

    def test_n2_value(self):
        assert colored_jones_trefoil(2, CTX) == -3

    def test_prefactor_identity(self):
        with CTX.working():
            for N in range(2, 21):
                J = colored_jones_trefoil(N, CTX)
                phi = kontsevich_zagier_eval(RootOfUnity(1, N), CTX)
                zeta = RootOfUnity(1, N).zeta()
                assert abs(zeta * phi - J) < mpf("1e-20"), N

    def test_n3_against_phi(self):
        with CTX.working():
            z3 = mp.expjpi(mpf(2) / 3)
            got = colored_jones_trefoil(3, CTX)
            assert abs(got - z3 * (5 - z3)) < mpf(2) ** -120


class TestHikami:
    def test_reduces_to_kz(self):
        """X_1^(0) is Phi: against the plain product sum at every primitive
        root of order N <= 16."""
        checks = 0
        for N in range(1, 17):
            for j in range(N):
                if math.gcd(j, N) != 1:
                    continue
                got = hikami_x(1, 0, RootOfUnity(j, N), CTX)
                ref = kontsevich_zagier_product(j, N, CTX)
                with CTX.working():
                    assert abs(got - ref) <= mpf(2) ** -100 * max(1, abs(ref)), (j, N)
                checks += 1
        assert checks == 80

    def test_u2_at_one(self):
        assert hikami_x(2, 0, RootOfUnity(0, 1), CTX) == 1

    def test_orders_above_eight_meet_strange_identity(self):
        """At orders N = 9..12, where X_u^(l) was once summed in complex
        floats, the exact-ring value equals the theta radial limit at
        alpha = 1/N."""
        for (u, ell) in [(2, 0), (2, 1), (3, 0)]:
            for N in (9, 10, 11, 12):
                rep = verify_strange(StrangeConfig("hikami", u, ell), Fraction(1, N), CTX)
                gap = abs(rep.habiro_side - rep.theta_side)
                assert gap < mpf(2) ** -120, (u, ell, N, gap)

    def test_regression_values(self):
        """Values pinned after first computation (two loop orders agreed)."""
        with CTX.working():
            v = hikami_x(2, 1, RootOfUnity(1, 5), CTX)
            ref = mpc("25.6803398874989484820458683436563811772030918",
                      "-1.53884176858762670128514528801845491200335107")
            assert abs(v - ref) < mpf("1e-34")
            v2 = hikami_x(2, 0, RootOfUnity(1, 3), CTX)
            ref2 = mpc("8.5", "-4.33012701892219323381861585376468091735701313")
            assert abs(v2 - ref2) < mpf("1e-34")

    def test_matches_k_vector_enumeration(self):
        """Level tables against the nested k-vector sum in complex floats:
        u <= 4, every l, N <= 10, j in {1, -1} and one more unit mod N."""
        checks = 0
        for N in range(1, 11):
            others = [j for j in range(2, N - 1) if math.gcd(j, N) == 1]
            for j in sorted({1 % N, -1 % N, *others[:1]}):
                for u in range(1, 5):
                    for ell in range(u):
                        got = hikami_x(u, ell, RootOfUnity(j, N), CTX)
                        ref = hikami_x_enumeration(u, ell, j, N, CTX)
                        with CTX.working():
                            assert abs(got - ref) <= mpf(2) ** -100 * max(1, abs(ref)), \
                                (u, ell, j, N)
                        checks += 1
        assert checks == 230

    def test_budget_guard(self, monkeypatch):
        """The guard compares (u - 1) N^3 + N^2 with the budget: 1088 at (3, 8)."""
        q = RootOfUnity(1, 8)
        full = hikami_x(3, 0, q, CTX)
        monkeypatch.setattr(habiro, "HIKAMI_BUDGET", 10)
        with pytest.raises(BudgetError):
            hikami_x(3, 0, q, CTX)
        monkeypatch.setattr(habiro, "HIKAMI_BUDGET", 1087)
        with pytest.raises(BudgetError, match=r"\(u-1\)\*N\^3 \+ N\^2 = 1088 exceeds budget 1087"):
            hikami_x(3, 0, q, CTX)
        monkeypatch.setattr(habiro, "HIKAMI_BUDGET", 1088)
        assert hikami_x(3, 0, q, CTX) == full

    def test_default_budget_admits_high_u_at_small_order(self):
        """(u, N) = (5, 25) costs 4 * 25^3 + 25^2 = 63125 units, milliseconds of
        level tables; u * N^u = 48828125 would have refused it.  Its value
        meets the strange identity at alpha = 1/25."""
        rep = verify_strange(StrangeConfig("hikami", 5, 0), Fraction(1, 25), CTX)
        assert rep.passed


class TestStrange:
    def test_trefoil_matrix(self):
        for N in (1, 2, 3, 5, 12):
            rep = verify_strange(StrangeConfig("trefoil"), Fraction(1, N), CTX)
            assert rep.passed, N

    def test_hikami_spot_checks(self):
        for (u, ell, alpha) in [(1, 0, Fraction(1, 2)), (2, 0, Fraction(1, 4)),
                                (2, 1, Fraction(1, 5)), (3, 1, Fraction(1, 6))]:
            rep = verify_strange(StrangeConfig("hikami", u, ell), alpha, CTX)
            assert rep.passed, (u, ell, alpha)

    def test_every_exact_ring_root(self):
        """The exact ring at every primitive N-th root e^{2 pi i j/N}, N <= 12,
        j in (-N, N) coprime to N: 90 roots for each of the trefoil,
        hikami(2,1) and hikami(3,0), against the theta radial limit at j/N."""
        from thetaresum.config import config_hikami
        from thetaresum.qseries import theta_radial_limit
        checks = 0
        for u, ell in ((1, 0), (2, 1), (3, 0)):
            spec = config_hikami(u, ell).theta_spec()
            for N in range(2, 13):
                for j in range(1 - N, N):
                    if math.gcd(j, N) != 1:
                        continue
                    lhs = hikami_x(u, ell, RootOfUnity(j, N), CTX)
                    rhs = theta_radial_limit(spec, Fraction(j, N), CTX).value
                    with CTX.working():
                        assert abs(lhs - rhs) < mpf("1e-30"), (u, ell, j, N)
                    checks += 1
        assert checks == 270

    def test_rejects_unknown_family(self):
        """The family is a label of (u, l): the trefoil is (1, 0) only."""
        for args in [("trefoil", 2, 0), ("trefoil", 1, 1), ("torus", 1, 0)]:
            with pytest.raises(ValueError, match="unknown strange family"):
                StrangeConfig(*args)

    def test_hikami_u1_is_trefoil(self):
        a = verify_strange(StrangeConfig("hikami", 1, 0), Fraction(1, 3), CTX)
        b = verify_strange(StrangeConfig("trefoil"), Fraction(1, 3), CTX)
        with CTX.working():
            assert abs(a.habiro_side - b.habiro_side) < mpf(2) ** -100
            assert abs(a.theta_side - b.theta_side) < mpf(2) ** -100

    def test_trefoil_label_gives_the_hikami_1_0_estimates_bit_for_bit(self):
        """The family is a label: ("trefoil",) and ("hikami", 1, 0) read the
        same element and theta data, so both sides agree to the bit."""
        for n in range(1, 8):
            a = verify_strange(StrangeConfig("trefoil"), Fraction(1, n), CTX)
            b = verify_strange(StrangeConfig("hikami", 1, 0), Fraction(1, n), CTX)
            assert (a.habiro, a.theta) == (b.habiro, b.theta), n


class TestConfigEquivalences:
    def test_t3_2k_at_k1_is_the_trefoil(self):
        from thetaresum.config import config_hikami, config_t3_2k
        a = config_hikami(1, 0)
        b = config_t3_2k(1)
        assert (a.f, a.a, a.b) == (b.f, b.a, b.b)

    def test_habiro_attachments(self):
        """hikami(u, l) carries its own element, every other configuration of
        the trefoil sign pattern (12, 1, 5) the Kontsevich-Zagier element,
        and the rest none; the strange suite reads only this attachment."""
        from thetaresum.config import (config_chi, config_general, config_hikami,
                                       config_t3_2k, trefoil_chi)
        from thetaresum.periodic import ConfigError
        from thetaresum.report import Report
        from thetaresum.suites import suite_strange
        assert config_hikami(1, 0).habiro == ("hikami", 1, 0)
        assert config_hikami(3, 2).habiro == ("hikami", 3, 2)
        for cfg in (trefoil_chi(), config_chi(2, 3, 1, 2), config_chi(3, 2, 2, 1, c=5),
                    config_general("-1/2", 12, 1, 5, 1, 24), config_t3_2k(1)):
            assert cfg.habiro == ("trefoil",), cfg.label()
        for cfg in (config_chi(3, 4, 1, 1), config_t3_2k(2),
                    config_general(1, 24, 1, 7, 0, 48)):
            assert cfg.habiro is None, cfg.label()
            with pytest.raises(ConfigError):
                suite_strange(cfg, CTX, Report({}, 128, "1e-10"), alpha=Fraction(1, 3))

    def test_strange_theta_data(self):
        """X_u^(l) pairs with theta^(1) of -chi_{2(2u+1)}^{(1,l+1)}/2, a =
        (2u-2l-1)^2, b = 2(8u+4); the Kontsevich-Zagier element with u = 1."""
        from thetaresum.periodic import ChiParams, chi_function
        from thetaresum.qseries import ThetaSpec

        def spec(u, ell):
            chi = chi_function(ChiParams(2, 2 * u + 1, 1, ell + 1))
            return ThetaSpec(a=(2 * u - 2 * ell - 1) ** 2, b=2 * (8 * u + 4), nu=1,
                             f=chi.scale(Fraction(-1, 2)))
        from thetaresum.config import config_hikami
        for u in (1, 2, 3):
            for ell in range(u):
                assert config_hikami(u, ell).theta_spec() == spec(u, ell)

    def test_hikami_indices_lie_in_pair_set(self):
        from thetaresum.config import config_hikami
        from thetaresum.periodic import pair_set
        for u in (1, 2, 3):
            for ell in range(u):
                cfg = config_hikami(u, ell)
                s, t, n, m = cfg.chi_idx
                assert (n, m) in pair_set(s, t)
