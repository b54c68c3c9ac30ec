import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysieve.fields import ExtField, mult_char
from polysieve.tracefn import (TraceFunction, constant_trace, kloosterman,
                               pullback_power, second_moment)

from _oracles import kloosterman_dense, kloosterman_direct


class TestTraceFunction:
    def test_length_checked(self):
        with pytest.raises(ValueError):
            TraceFunction(5, np.ones(4, dtype=complex), "bad", 1.0)

    def test_sup_bound_checked(self):
        with pytest.raises(ValueError):
            TraceFunction(3, np.array([2.0, 0, 0], dtype=complex), "bad", 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_non_finite_values_refused(self, bad):
        # nan passes a sup check, since nan > bound is False
        with pytest.raises(ValueError, match="not finite"):
            TraceFunction(3, np.array([0, bad, 0], dtype=complex), "bad", 10.0)

    def test_csv_dump(self, tmp_path):
        t = constant_trace(ExtField(5))
        path = tmp_path / "table.csv"
        t.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "a,re,im"
        assert len(lines) == 6


class TestKloosterman:
    def test_direct_enumeration_oracle(self):
        for m, p in ((1, 5), (2, 3), (2, 5), (2, 7), (3, 5), (3, 7)):
            table = kloosterman(m, ExtField(p))
            for a in range(p):
                assert table.values[a] == pytest.approx(
                    kloosterman_direct(m, p, a), abs=1e-10), (m, p, a)

    def test_zero_value_and_kl1(self):
        f = ExtField(11)
        for m in (1, 2, 3, 4):
            assert kloosterman(m, f).values[0] == 0
        kl1 = kloosterman(1, f)
        assert np.allclose(kl1.values[1:], f.psi_table[1:])

    def test_kl2_at_one_mod_three(self):
        assert kloosterman(2, ExtField(3)).values[1] == pytest.approx(
            1 / math.sqrt(3), abs=1e-12)

    def test_sup_norm_bound_small_sample(self):
        for p in (7, 31, 97):
            for m in (2, 3, 4):
                t = kloosterman(m, ExtField(p))
                assert np.abs(t.values).max() <= m + 1e-9

    def test_kl2_real_and_sum_identity(self):
        for p in (5, 13, 31):
            t = kloosterman(2, ExtField(p))
            assert np.abs(t.values.imag).max() < 1e-9
            assert t.values.sum() == pytest.approx(-p**-0.5, abs=1e-9)

    def test_extension_field(self):
        f9 = ExtField(3, 2)
        t = kloosterman(2, f9)
        assert t.values[0] == 0
        assert np.abs(t.values).max() <= 2 + 1e-9

    @settings(max_examples=30)
    @given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(1, 3))
    def test_fft_matches_direct_on_primes(self, p, m):
        table = kloosterman(m, ExtField(p)).values
        direct = [kloosterman_direct(m, p, a) for a in range(p)]
        assert np.abs(table - direct).max() < 1e-10

    @pytest.mark.parametrize("p, k", [(3, 2), (5, 2)])
    def test_fft_matches_dense_on_extension_fields(self, p, k):
        field = ExtField(p, k)
        for m in (1, 2, 3, 4):
            assert np.abs(kloosterman(m, field).values
                          - kloosterman_dense(m, field)).max() < 1e-10

    def test_f2_needs_no_special_case(self):
        # one unit, so the FFT has length 1 and is the identity
        for m in range(1, 6):
            table = kloosterman(m, ExtField(2)).values
            assert table[0] == 0
            assert table[1] == pytest.approx(kloosterman_direct(m, 2, 1), abs=1e-12)

    def test_no_dense_kernel(self):
        f = ExtField(3001)
        tracemalloc.start()
        try:
            kloosterman(3, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 3000**2 / 100  # the dense kernel needs 144 MB

    @pytest.mark.parametrize("p, m", [(7, 308), (13, 309), (101, 308), (101, 309), (101, 5000)])
    def test_large_m_stays_finite(self, p, m):
        # q^(m/2) passes the float range at p = 101, m = 308; the table must not
        field = ExtField(p)
        t = kloosterman(m, field)
        assert np.isfinite(t.values).all()
        assert np.abs(t.values).max() <= m
        if p < 20:  # m - 1 products with the circulant kernel, each scaled by q^(-1/2)
            psi_units = field.psi_table[field.exp_table]
            n = p - 1
            kernel = psi_units[(np.arange(n)[:, None] - np.arange(n)[None, :]) % n]
            acc = psi_units.copy()
            for _ in range(m - 1):
                acc = kernel @ acc / math.sqrt(p)
            assert np.abs(t.values[field.exp_table] - (-1) ** (m - 1) * acc).max() < 1e-9

    def test_kl2_large_prime(self):
        t = kloosterman(2, ExtField(100003))
        assert np.abs(t.values).max() <= 2
        assert abs(second_moment(t) - 1) <= 1e-3


class TestPullbacks:
    def test_power_of_legendre(self):
        f5 = ExtField(5)
        sq = pullback_power(mult_char(f5, 2, 1), 2, f5)
        assert sq.values[0] == 0
        assert np.allclose(sq.values[1:], 1.0)


class TestMoments:
    def test_constant(self):
        assert second_moment(constant_trace(ExtField(11))) == pytest.approx(1.0)

    def test_nontrivial_character(self):
        f = ExtField(13)
        assert second_moment(mult_char(f, 3, 1)) == pytest.approx(12 / 13)

    def test_kl2_near_one(self):
        for p in (13, 53, 97):
            sm = second_moment(kloosterman(2, ExtField(p)))
            assert abs(sm - 1) <= 3 * p**-0.5

    def test_correlation_characters(self):
        f = ExtField(13)
        chi = mult_char(f, 4, 1)
        assert np.mean(chi.values * np.conj(chi.values)) == pytest.approx(12 / 13)
        other = mult_char(f, 4, 3)
        assert abs(np.mean(chi.values * np.conj(other.values))) < 1e-9

    def test_correlation_kl2_with_one(self):
        p = 11
        f = ExtField(p)
        corr = np.mean(kloosterman(2, f).values * np.conj(constant_trace(f).values))
        assert abs(corr) <= 2 * p**-0.5
        assert corr == pytest.approx(-(p**-1.5), abs=1e-9)
