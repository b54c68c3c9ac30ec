import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polysieve.fields import ExtField, mult_char
from polysieve.tracefn import (TraceFunction, constant_trace, fourier_transform,
                               kloosterman, pullback_power, pullback_scale,
                               second_moment, te_transform)

from _oracles import fourier_dense, kloosterman_dense, kloosterman_direct, te_dense


def delta_at_zero(field):
    vals = np.zeros(field.q, dtype=np.complex128)
    vals[0] = 1.0
    return TraceFunction(field.q, vals, "delta(0)", 1.0)


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


class TestFourier:
    def test_constant_and_delta(self):
        f = ExtField(13)
        ft_one = fourier_transform(constant_trace(f), f)
        assert ft_one.values[0] == pytest.approx(-math.sqrt(13))
        assert np.abs(ft_one.values[1:]).max() < 1e-9
        ft_delta = fourier_transform(delta_at_zero(f), f)
        assert np.allclose(ft_delta.values, -1 / math.sqrt(13))

    def test_legendre_gauss_modulus(self):
        f5 = ExtField(5)
        ft = fourier_transform(mult_char(f5, 2, 1), f5)
        assert np.allclose(np.abs(ft.values[1:]), 1.0, atol=1e-9)

    def test_exact_roundtrip(self):
        f = ExtField(13)
        t = kloosterman(2, f)
        back = fourier_transform(fourier_transform(t, f), f, conjugate=True)
        assert np.abs(back.values - t.values).max() < 1e-9

    def test_parseval(self):
        f = ExtField(17)
        for t in (kloosterman(2, f), mult_char(f, 4, 1), delta_at_zero(f)):
            ft = fourier_transform(t, f)
            assert (np.abs(ft.values) ** 2).sum() == pytest.approx(
                (np.abs(t.values) ** 2).sum(), abs=1e-9)

    def test_roundtrip_extension(self):
        f9 = ExtField(3, 2)
        t = kloosterman(2, f9)
        back = fourier_transform(fourier_transform(t, f9), f9, conjugate=True)
        assert np.abs(back.values - t.values).max() < 1e-9


# F_p, F_8, F_9, F_25, F_27, F_49
TRANSFORM_FIELDS = [(13, 1), (2, 3), (3, 2), (5, 2), (3, 3), (7, 2)]


class TestTransformsAgainstKernels:
    @pytest.mark.parametrize("p, k", TRANSFORM_FIELDS)
    @pytest.mark.parametrize("conjugate", [False, True])
    def test_fourier_matches_dense_kernel(self, p, k, conjugate):
        field = ExtField(p, k)
        rng = np.random.default_rng(p * 10 + k)
        vals = rng.normal(size=field.q) + 1j * rng.normal(size=field.q)
        for t in (kloosterman(2, field),
                  TraceFunction(field.q, vals, "noise", float(np.abs(vals).max()))):
            want = -fourier_dense(t.values, field, conjugate) / math.sqrt(field.q)
            got = fourier_transform(t, field, conjugate).values
            assert np.abs(got - want).max() < 1e-9

    @pytest.mark.parametrize("p, k", TRANSFORM_FIELDS)
    def test_te_matches_dense_kernel(self, p, k):
        field = ExtField(p, k)
        t = kloosterman(3, field)
        for e in (1, 2, 3, 5):
            for conjugate in (False, True):
                want = -te_dense(t.values, e, field, conjugate) / math.sqrt(field.q)
                got = te_transform(t, e, field, conjugate).values
                assert np.abs(got - want).max() < 1e-9, (e, conjugate)

    def test_no_dense_kernel(self):
        f = ExtField(3001)
        t = kloosterman(2, f)
        tracemalloc.start()
        try:
            fourier_transform(t, f)
            te_transform(t, 3, f, conjugate=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 3001**2 / 100  # the dense kernel needs 144 MB


class TestTeTransform:
    def test_e1_equals_fourier(self):
        f = ExtField(11)
        t = kloosterman(2, f)
        assert np.allclose(te_transform(t, 1, f).values,
                           fourier_transform(t, f).values)

    def test_quadratic_gauss_modulus(self):
        f5 = ExtField(5)
        out = te_transform(constant_trace(f5), 2, f5)
        assert np.allclose(np.abs(out.values[1:]), 1.0, atol=1e-9)

    def test_value_at_zero_independent_of_e(self):
        f = ExtField(7)
        t = kloosterman(2, f)
        vals = {e: te_transform(t, e, f).values[0] for e in (1, 2, 3, 5)}
        ref = -t.values.sum() / math.sqrt(7)
        for v in vals.values():
            assert v == pytest.approx(ref, abs=1e-9)

    def test_second_moment_root_of_unity_identity(self):
        # opening the square: q * sm(T_e t) equals |t(0)|^2 plus the
        # autocorrelations of t along the e-th roots of unity, exactly
        for p, e in ((13, 3), (13, 4), (11, 2), (7, 5), (11, 6)):
            f = ExtField(p)
            t = kloosterman(2, f)
            lhs = p * second_moment(te_transform(t, e, f))
            g = math.gcd(e, p - 1)
            roots = [x for x in range(1, p) if pow(x, g, p) == 1]
            ys = np.arange(1, p)
            rhs = abs(t.values[0]) ** 2 + sum(
                (t.values[(eta * ys) % p] * np.conj(t.values[ys])).sum()
                for eta in roots)
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestPullbacks:
    def test_scale_identity_is_identity(self):
        f = ExtField(7)
        t = kloosterman(2, f)
        assert np.array_equal(pullback_scale(t, 1, f).values, t.values)

    def test_power_of_legendre(self):
        f5 = ExtField(5)
        sq = pullback_power(mult_char(f5, 2, 1), 2, f5)
        assert sq.values[0] == 0
        assert np.allclose(sq.values[1:], 1.0)

    def test_zero_scale_rejected(self):
        f = ExtField(7)
        with pytest.raises(ValueError):
            pullback_scale(constant_trace(f), 0, f)

    def test_scale_commutes_with_te(self):
        # te(scale_a(t), e)(x) = te(t, e)(abar^e x)
        p = 13
        f = ExtField(p)
        t = kloosterman(2, f)
        for alpha in (2, 5, 7):
            for e in (1, 2, 3):
                lhs = te_transform(pullback_scale(t, alpha, f), e, f).values
                abar_e = pow(pow(alpha, -1, p), e, p)
                rhs = te_transform(t, e, f).values[(abar_e * np.arange(p)) % p]
                assert np.abs(lhs - rhs).max() < 1e-9


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
