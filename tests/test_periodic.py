"""Four-residue periodic functions, the sine transform, index sets, S-matrix."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf, workprec

from reference import fold_pair, pair_set_alternative, s_matrix, support_set
from thetaresum import periodic
from thetaresum.config import config_hikami, config_t3_2k
from thetaresum.periodic import (ChiParams, ConfigError, TildeFunction, chi_function,
                                 make_periodic, pair_set, s_matrix_entry, verify_decomposition)
from thetaresum.precision import PrecisionContext
from thetaresum.resum import disc_closed_form

CTX = PrecisionContext(prec=80, tol=1e-12)


def coprime_pairs(bound):
    return [(s, t) for s in range(2, bound + 1) for t in range(2, bound + 1)
            if math.gcd(s, t) == 1]


class TestMakePeriodic:
    def test_trefoil_character_table(self):
        f = make_periodic(1, 12, 1, 5)
        assert f.values == [0, 1, 0, 0, 0, -1, 0, -1, 0, 0, 0, 1]

    def test_scale_absorbed(self):
        f = make_periodic(Fraction(-1, 2), 12, 1, 5)
        assert f(1) == Fraction(-1, 2)
        assert f(5) == Fraction(1, 2)
        assert f(3) == 0

    def test_normalisation_mod_m(self):
        # residues outside 0..M fold onto the same classes
        assert make_periodic(1, 12, 13, 5) == make_periodic(1, 12, 1, 5)
        assert make_periodic(1, 12, 1, 7) == make_periodic(1, 12, 1, 5)

    def test_swapped_classes_flip_scale(self):
        f = make_periodic(1, 12, 5, 11)
        assert f(1) == -1 and f(5) == 1

    def test_rejects_overlap(self):
        with pytest.raises(ConfigError):
            make_periodic(1, 12, 1, 11)  # k2 = -k1 mod 12
        with pytest.raises(ConfigError):
            make_periodic(1, 12, 6, 8)  # k1 = -k1 mod 12
        with pytest.raises(ConfigError):
            make_periodic(1, 1, 0, 1)

    def test_rejects_zero_scale(self):
        with pytest.raises(ConfigError):
            make_periodic(0, 12, 1, 5)

    def test_rejects_non_rational_scale(self):
        """c must be exact: the L-values and the Borel Taylor data are Fractions."""
        for c in (mpf("0.5"), 0.5, mpf(2)):
            with pytest.raises(TypeError):
                make_periodic(c, 12, 1, 5)
        assert make_periodic("-1/2", 12, 1, 5).c == Fraction(-1, 2)

    @given(st.integers(4, 60), st.data())
    @settings(max_examples=120, deadline=None)
    def test_invariants_hold(self, M, data):
        k1 = data.draw(st.integers(1, M - 1))
        k2 = data.draw(st.integers(1, M - 1))
        classes = {k1 % M, (-k1) % M, k2 % M, (-k2) % M}
        if len(classes) != 4:
            with pytest.raises(ConfigError):
                make_periodic(1, M, k1, k2)
            return
        f = make_periodic(Fraction(3, 7), M, k1, k2)
        vals = f.values
        assert sum(vals) == 0
        assert all(vals[n] == vals[(M - n) % M] for n in range(M))
        assert sorted(v for v in vals if v) == \
            [-f.c if f.c > 0 else f.c] * 0 + sorted([f.c, f.c, -f.c, -f.c])


class TestChi:
    def test_chi_2_3(self):
        chi = chi_function(ChiParams(2, 3, 1, 1))
        assert chi == make_periodic(1, 12, 1, 5)

    def test_symmetry_example(self):
        assert chi_function(ChiParams(2, 3, 1, 2)) == chi_function(ChiParams(2, 3, 1, 1))

    def test_chi_3_4(self):
        chi = chi_function(ChiParams(3, 4, 2, 1))
        # nt - ms = 8 - 3 = 5, nt + ms = 11
        assert chi(5) == 1 and chi(11) == -1 and chi(13) == -1

    def test_symmetry_exhaustive_small(self):
        for s, t in coprime_pairs(9):
            for n in range(1, s):
                for m in range(1, t):
                    assert chi_function(ChiParams(s, t, n, m)) == \
                        chi_function(ChiParams(s, t, s - n, t - m))

    def test_rejects_noncoprime(self):
        with pytest.raises(ConfigError):
            ChiParams(4, 6, 1, 1)


class TestTilde:
    def test_trefoil_values(self):
        td = TildeFunction(make_periodic(1, 12, 1, 5))
        with workprec(80):
            assert abs(td(1) + mp.sqrt(3) / 2) < mpf(2) ** -70
            assert td(6) == 0
            # support: odd l not divisible by 3
            for ell in range(1, 25):
                vanishes = (ell % 2 == 0) or (ell % 3 == 0)
                assert (td.table()(ell) == 0) == vanishes
                assert (abs(td(ell)) < mpf(2) ** -70) == vanishes

    def test_period_divides_2m(self):
        for f in (make_periodic(1, 12, 1, 5), make_periodic(1, 24, 1, 7),
                  make_periodic(1, 10, 1, 3)):
            td = TildeFunction(f)
            assert f.M % td.period == 0
            with workprec(80):
                for ell in range(0, 4 * f.M):
                    assert abs(td(ell + td.period) - td(ell)) < mpf(2) ** -70

    def test_mean_zero_over_period(self):
        with workprec(90):
            for f in (make_periodic(1, 12, 1, 5), make_periodic(1, 40, 3, 7)):
                td = TildeFunction(f)
                total = sum(td(ell) for ell in range(1, 2 * f.M + 1))
                assert abs(total) < mpf(2) ** -70


def sine_product(td, ell):
    """f~(l) straight from its definition, at the current precision."""
    M, k1, k2 = td.M, td.base.k1, td.base.k2
    r1 = Fraction((k2 - k1) * ell, M) % 2
    r2 = Fraction((M - k1 - k2) * ell, M) % 2
    sign = -1 if ell % 2 else 1
    return sign * mp.sinpi(mpf(r1.numerator) / r1.denominator) \
        * mp.sinpi(mpf(r2.numerator) / r2.denominator)


def scanned_period(td):
    """Smallest divisor d of 2M with f~(l + d) = f~(l) on a 2M window, at 80
    bits; the values are low-degree algebraic numbers, so 2^-60 decides."""
    M = td.M
    with workprec(80):
        window = [sine_product(td, ell) for ell in range(4 * M + 1)]
        for d in range(1, 2 * M + 1):
            if (2 * M) % d == 0 and all(abs(window[ell + d] - window[ell]) < mpf(2) ** -60
                                        for ell in range(2 * M)):
                return d


def distinct_configs(max_m):
    seen = {}
    for M in range(2, max_m + 1):
        for k1 in range(M):
            for k2 in range(M):
                try:
                    f = make_periodic(1, M, k1, k2)
                except ConfigError:
                    continue
                seen.setdefault((f.M, f.k1, f.k2), f)
    return list(seen.values())


# the (s, t) pairs of the acceptance suite
ST_LIST = [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5), (3, 8)]


class TestTildePeriodAndTable:
    def test_gcd_period_matches_scan_small_m(self):
        configs = distinct_configs(24)
        assert len(configs) == 440
        for f in configs:
            td = TildeFunction(f)
            assert td.period == scanned_period(td), (f.M, f.k1, f.k2)

    def test_table_is_one_period_small_m(self):
        """On every family with M <= 24 the table covers the minimal period,
        which divides M; its exact zeros are the l with (k2-k1) l/M or
        (M-k1-k2) l/M an integer; first_support is its first nonzero entry."""
        for f in distinct_configs(24):
            td = TildeFunction(f)
            M, k1, k2 = f.M, f.k1, f.k2
            with workprec(80):
                table = td.table()
                first = td.first_support
            assert len(table) == td.period and M % td.period == 0, (M, k1, k2)
            for ell in range(-M, 2 * M):
                vanishes = ((k2 - k1) * ell) % M == 0 or ((M - k1 - k2) * ell) % M == 0
                assert (table(ell) == 0) == vanishes, (M, k1, k2, ell)
            assert first >= 1 and table[first] and not any(table[1:first]), (M, k1, k2)

    def test_gcd_period_matches_scan_families(self):
        fs = [chi_function(ChiParams(s, t, n, m))
              for s, t in ST_LIST for n in range(1, s) for m in range(1, t)]
        fs += [config_hikami(u, ell).f for u in range(1, 7) for ell in range(u)]
        fs += [config_t3_2k(k).f for k in range(1, 7)]
        for f in fs:
            td = TildeFunction(f)
            assert td.period == scanned_period(td), (f.M, f.k1, f.k2)

    @pytest.mark.parametrize("prec", [64, 80, 128, 256])
    def test_table_bits_match_sine_product(self, prec):
        """f~(l) is the sine product at the representative of l mod P in
        0..P/2, bit for bit (the upper half of the table is its mirror)."""
        for f in (make_periodic(1, 12, 1, 5), make_periodic(1, 40, 3, 7),
                  config_hikami(3, 1).f, config_t3_2k(3).f):
            td = TildeFunction(f)
            P = td.period
            with workprec(prec):
                for ell in range(-2 * f.M, 6 * f.M + 1):
                    got, ref = td(ell), sine_product(td, min(ell % P, -ell % P))
                    assert got._mpf_ == ref._mpf_, (f.M, ell, prec)

    @pytest.mark.parametrize("prec", [53, 128, 256])
    def test_table_is_exactly_even(self, prec):
        """f~(P - r) = f~(r) bit for bit, as resum.tilde_dirichlet requires."""
        fs = [chi_function(ChiParams(s, t, n, m))
              for s, t in ST_LIST for n in range(1, s) for m in range(1, t)]
        fs += [config_hikami(u, ell).f for u in range(1, 7) for ell in range(u)]
        fs += [config_t3_2k(k).f for k in range(1, 6)]
        with workprec(prec):
            for f in fs:
                table = TildeFunction(f).table()
                P = len(table)
                assert all(table[r]._mpf_ == table[P - r]._mpf_ for r in range(1, P)), \
                    (f.M, f.k1, f.k2)

    def test_value_follows_precision(self):
        td = TildeFunction(make_periodic(1, 40, 3, 7))
        with workprec(64):
            low = td(1)
        with workprec(256):
            high = td(1)
            assert high._mpf_ == sine_product(td, 1)._mpf_
        assert high != low
        assert abs(high - low) < mpf(2) ** -60

    def test_disc_closed_form_builds_one_table(self, monkeypatch):
        cfg = config_t3_2k(4)
        ser = cfg.series(8)
        periodic._tilde_table.cache_clear()
        calls = []
        sinpi = mp.sinpi

        def counting(x):
            calls.append(x)
            return sinpi(x)

        monkeypatch.setattr(mp, "sinpi", counting)
        disc_closed_form(ser, 1, PrecisionContext(prec=128))
        assert 0 < len(calls) <= 4 * cfg.f.M


class TestPairSets:
    def test_examples(self):
        assert pair_set(2, 3) == ((1, 1),)
        assert pair_set(3, 4) == ((1, 1), (1, 2), (1, 3))
        assert len(pair_set(3, 5)) == 4

    def test_cardinality(self):
        for s, t in coprime_pairs(9):
            assert len(pair_set(s, t)) == (s - 1) * (t - 1) // 2

    def test_fold_bijection_odd_odd(self):
        for s, t in [(3, 5), (5, 7), (3, 7), (5, 9)]:
            image = {fold_pair(s, t, n, m) for (n, m) in pair_set(s, t)}
            assert image == set(pair_set_alternative(s, t))

    def test_support_set(self):
        assert support_set(2, 3) == [-5, -1, 1, 5]
        for s, t in [(2, 3), (3, 4), (3, 5), (2, 5), (4, 5), (3, 8)]:
            vals = support_set(s, t)
            assert len(vals) == 2 * (s - 1) * (t - 1)
            assert len(set(vals)) == len(vals)


class TestSMatrix:
    def test_trefoil_entry_is_one(self):
        with workprec(90):
            assert abs(s_matrix_entry(2, 3, (1, 1), (1, 1), CTX) - 1) < mpf(2) ** -70

    def test_symmetric(self):
        with workprec(90):
            for s, t in [(3, 4), (3, 5), (4, 5)]:
                for a in pair_set(s, t):
                    for b in pair_set(s, t):
                        d = s_matrix_entry(s, t, a, b, CTX) - s_matrix_entry(s, t, b, a, CTX)
                        assert abs(d) < mpf(2) ** -70

    def test_involution_3_4(self):
        with workprec(90):
            S = s_matrix(3, 4, CTX)
            n = len(S)
            for i in range(n):
                for j in range(n):
                    acc = mp.fsum(S[i][k] * S[k][j] for k in range(n))
                    assert abs(acc - (1 if i == j else 0)) < mpf("1e-18")


class TestDecomposition:
    def test_trefoil_all_residues(self):
        rep = verify_decomposition(2, 3, (1, 1), CTX)
        assert rep.passed
        # spot value at k=1: both sides -sqrt(3)/2
        with workprec(80):
            td = TildeFunction(chi_function(ChiParams(2, 3, 1, 1)))
            assert abs(td(1) + mp.sqrt(3) / 2) < mpf(2) ** -70

    def test_3_4_pairs(self):
        for nm in pair_set(3, 4):
            assert verify_decomposition(3, 4, nm, CTX).passed

    def test_invariant_small_products(self):
        # all (s,t) with s*t <= 40 at 64-bit precision
        ctx64 = PrecisionContext(prec=64, tol=1e-12)
        for s, t in coprime_pairs(20):
            if s * t > 40:
                continue
            for nm in pair_set(s, t):
                rep = verify_decomposition(s, t, nm, ctx64)
                assert rep.passed, (s, t, nm)

    def test_rejects_outside_pairs(self):
        with pytest.raises(ConfigError):
            verify_decomposition(3, 4, (2, 1), CTX)


class TestPartialSumPeak:
    def test_peak_bounds_all_prefixes(self):
        with workprec(90):
            for f in (make_periodic(1, 12, 1, 5), make_periodic(1, 24, 1, 7)):
                td = TildeFunction(f)
                peak = td.partial_sum_peak()
                acc = mpf(0)
                worst = mpf(0)
                for ell in range(1, 6 * td.period + 1):
                    acc += td(ell)
                    worst = max(worst, abs(acc))
                assert worst <= peak + mpf(2) ** -60
