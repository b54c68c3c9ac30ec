import cmath

import numpy as np
import pytest

from polysieve.fields import (ExtField, PrimeField, additive_char,
                              cached_field, find_primitive_root, mult_char, primes_in)

from _oracles import TupleField, ext_exp_table_loop, smallest_generator


class TestPrimitiveRoot:
    def test_spec_values(self):
        assert find_primitive_root(2) == 1
        assert find_primitive_root(5) == 2
        assert find_primitive_root(7) == 3

    def test_matches_order_oracle(self):
        for p in primes_in(2, 60):
            assert find_primitive_root(p) == smallest_generator(p)

    def test_rejects_composites(self):
        for n in (1, 4, 15, 91):
            with pytest.raises(ValueError):
                find_primitive_root(n)


class TestPrimeField:
    def test_dlog_examples(self):
        f5 = PrimeField(5)
        assert f5.g == 2
        assert f5.dlog(1) == 0
        assert f5.dlog(4) == 2
        assert PrimeField(7).dlog(6) == 3

    def test_dlog_zero_rejected(self):
        with pytest.raises(ValueError):
            PrimeField(5).dlog(0)

    def test_dlog_roundtrip_all_units(self):
        f = PrimeField(13)
        for u in range(1, 13):
            assert f.exp(f.dlog(u)) == u

    def test_table_consistency(self):
        for p in (2, 3, 17, 101):
            f = PrimeField(p)
            assert np.array_equal(f.exp_table[f.log_table[f.units()]], f.units())


    @pytest.mark.parametrize("p", [2, 3, 101, 3001, 100003])
    def test_exp_table_is_powers_of_g(self, p):
        f = PrimeField(p)
        n = len(f.exp_table)
        assert n == max(p - 1, 1)
        for i in sorted({0, n // 2, n - 1, *np.random.default_rng(p).integers(0, n, 40)}):
            assert f.exp_table[i] == pow(f.g, int(i), p)
        assert np.array_equal(f.log_table[f.exp_table], np.arange(n))


class TestAdditiveChar:
    def test_values(self):
        f5 = PrimeField(5)
        assert additive_char(f5, 0) == pytest.approx(1.0)
        assert additive_char(f5, 1) == pytest.approx(cmath.exp(2j * cmath.pi / 5))

    def test_homomorphism(self):
        for field in (PrimeField(7), ExtField(3, 2)):
            xs = field.elements()
            for x in xs:
                lhs = additive_char(field, field.add(x, xs))
                rhs = additive_char(field, x) * additive_char(field, xs)
                assert np.abs(lhs - rhs).max() < 1e-12

    def test_full_sum_vanishes(self):
        for field in (PrimeField(2), PrimeField(3), PrimeField(13),
                      ExtField(2, 2), ExtField(3, 2),
                      ExtField(5, 2)):
            assert abs(additive_char(field, field.elements()).sum()) < 1e-9

    def test_ext_field_trace_example(self):
        # F_9 = F_3[T]/(T^2+1): Tr(T) = T + T^3 = 0
        f9 = ExtField(3, 2)
        assert f9.modulus == (1, 0, 1)
        t_index = 3  # 0 + 1*T
        assert f9.trace(t_index) == 0
        assert additive_char(f9, t_index) == pytest.approx(1.0)


class TestMultChar:
    def test_spec_values(self):
        f5 = PrimeField(5)
        chi2 = mult_char(f5, 2, 1)
        assert chi2.values[4] == pytest.approx(1.0)
        chi4 = mult_char(f5, 4, 1)
        assert chi4.values[2] == pytest.approx(1j)
        assert chi4.values[4] == pytest.approx(-1.0)

    def test_trivial_character(self):
        chi = mult_char(PrimeField(11), 5, 0)
        assert np.allclose(chi.values[1:], 1.0)
        assert chi.values[0] == 0

    def test_exact_order(self):
        f13 = PrimeField(13)
        for r in (2, 3, 4, 6, 12):
            for j in range(r):
                chi = mult_char(f13, r, j)
                import math
                expected = r // math.gcd(j, r) if j else 1
                assert chi.meta["order"] == expected

    def test_orthogonality(self):
        f = PrimeField(13)
        for r, j in ((2, 1), (3, 1), (4, 3), (12, 5)):
            chi = mult_char(f, r, j)
            assert abs(chi.values[1:].sum()) < 1e-9

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            mult_char(PrimeField(7), 4, 1)


class TestExtField:
    def test_smallest_moduli(self):
        assert ExtField(3, 2).modulus == (1, 0, 1)     # T^2 + 1
        assert ExtField(2, 2).modulus == (1, 1, 1)     # T^2 + T + 1

    @pytest.mark.parametrize("p, k", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3),
                                      (7, 2), (3, 4), (101, 2), (2, 1), (3, 1)])
    def test_exp_table_is_powers_of_first_generator(self, p, k):
        f = ExtField(p, k)
        assert f.exp_table.dtype == np.int64
        assert f.exp_table.tolist() == ext_exp_table_loop(p, f.modulus)
        assert np.array_equal(f.log_table[f.exp_table], np.arange(f.q - 1))

    def test_degree_one_wrapper(self):
        f = ExtField(5, 1)
        assert f.q == 5
        assert np.array_equal(f.trace_table, np.arange(5))

    def test_frobenius_fixes_exactly_base_field(self):
        for p, k in ((2, 3), (3, 2), (5, 2)):
            f = ExtField(p, k)
            fixed = [x for x in range(f.q) if f.pow(x, p) == x]
            assert fixed == list(range(p))

    def test_modulus_has_no_base_roots(self):
        for p, k in ((2, 2), (3, 2), (5, 3)):
            f = ExtField(p, k)
            for x in range(p):
                acc = 0
                for c in reversed(f.modulus):
                    acc = (acc * x + c) % p
                assert acc != 0

    def test_mul_matches_polynomial_arithmetic(self):
        f = ExtField(3, 2)
        # (1 + T)(2 + T) = 2 + 3T + T^2 = 2 + T^2 = 2 - 1 = 1 mod (T^2+1)
        a = 1 + 1 * 3
        b = 2 + 1 * 3
        assert f.mul(a, b) == 1

    def test_mul_against_fresh_polynomial_oracle(self):
        rng = np.random.default_rng(12)
        for p, k in ((3, 3), (5, 2), (7, 3), (2, 4)):
            f = ExtField(p, k)

            def decode(idx):
                out = []
                for _ in range(k):
                    out.append(idx % p)
                    idx //= p
                return out

            def encode(cs):
                idx = 0
                for c in reversed(cs):
                    idx = idx * p + c
                return idx

            for _ in range(25):
                a, b = (int(x) for x in rng.integers(0, f.q, size=2))
                da, db = decode(a), decode(b)
                prod = [0] * (2 * k - 1)
                for i, ai in enumerate(da):
                    for j, bj in enumerate(db):
                        prod[i + j] = (prod[i + j] + ai * bj) % p
                # reduce by the monic modulus, high degree first
                for i in range(len(prod) - 1, k - 1, -1):
                    c = prod[i]
                    if c:
                        prod[i] = 0
                        for j in range(k):
                            prod[i - k + j] = (prod[i - k + j]
                                               - c * f.modulus[j]) % p
                assert f.mul(a, b) == encode(prod[:k]), (p, k, a, b)

    def test_inverse(self):
        f = ExtField(5, 2)
        for x in range(1, f.q):
            assert f.mul(x, f.inv(x)) == 1

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            ExtField(3, 5)

    def test_cached_field_identity(self):
        assert cached_field(7, 2) is cached_field(7, 2)

    def test_digit_table_rows(self):
        assert np.array_equal(PrimeField(5).digit_table, [np.arange(5)])
        f = ExtField(3, 2)
        assert f.digit_table.shape == (2, 9)
        assert np.array_equal(f.digit_table[0] + 3 * f.digit_table[1], np.arange(9))


# F_4, F_8, F_9, F_16, F_25, F_27, F_81: extension degrees 2 to 4
SMALL_EXT_FIELDS = [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (3, 4)]


class TestExtFieldAgainstTuples:
    @pytest.mark.parametrize("p, k", SMALL_EXT_FIELDS)
    def test_every_pair(self, p, k):
        f = ExtField(p, k)
        tf = TupleField.like(f)
        xs = np.arange(f.q)
        add = f.add(xs[:, None], xs[None, :])
        mul = f.mul(xs[:, None], xs[None, :])
        assert add.tolist() == tf.add_tab
        assert mul.tolist() == tf.mul_tab
        assert f.neg(xs).tolist() == tf.neg_tab

    @pytest.mark.parametrize("p, k", SMALL_EXT_FIELDS)
    def test_scalars(self, p, k):
        f = ExtField(p, k)
        tf = TupleField.like(f)
        rng = np.random.default_rng(p * 10 + k)
        for a, b in rng.integers(0, f.q, size=(20, 2)).tolist() + [[f.q - 1, f.q - 1]]:
            assert type(f.add(a, b)) is int and f.add(a, b) == tf.add(a, b)
            assert f.neg(a) == tf.neg(a)
            assert f.mul(a, b) == tf.mul(a, b)

