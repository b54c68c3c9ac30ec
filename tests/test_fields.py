import cmath
import math

import numpy as np
import pytest

from polysieve import polynomials
from polysieve.fields import ExtField, additive_char, cached_field, mult_char, primes_in
from polysieve.polynomials import _exponent_tables, _lane_tables

from _oracles import (TupleField, eval_field_direct, ext_exp_table_loop, frobenius_sum,
                      poly_mul_mod, smallest_generator)


class TestPrimitiveRoot:
    def test_spec_values(self):
        assert ExtField(2).g == 1
        assert ExtField(5).g == 2
        assert ExtField(7).g == 3

    def test_matches_order_oracle(self):
        for p in primes_in(2, 60):
            assert cached_field(p).g == smallest_generator(p)

    def test_rejects_composites(self):
        for n in (1, 4, 15, 91):
            with pytest.raises(ValueError, match="not prime"):
                ExtField(n)
            with pytest.raises(ValueError, match="not prime"):
                cached_field(n)


class TestPrimeField:
    def test_dlog_examples(self):
        f5 = ExtField(5)
        assert f5.g == 2
        assert f5.dlog(1) == 0
        assert f5.dlog(4) == 2
        assert ExtField(7).dlog(6) == 3

    def test_dlog_zero_rejected(self):
        with pytest.raises(ValueError):
            ExtField(5).dlog(0)

    @pytest.mark.parametrize("p, k", [(5, 1), (5, 2), (2, 3)])
    def test_dlog_outside_the_field_rejected(self, p, k):
        f = ExtField(p, k)
        assert f.dlog(f.q - 1) == f.log_table[f.q - 1]
        for u in (-1, f.q, f.q + 1):
            with pytest.raises(ValueError, match="needs a unit"):
                f.dlog(u)

    def test_dlog_roundtrip_all_units(self):
        f = ExtField(13)
        for u in range(1, 13):
            assert f.exp_table[f.dlog(u)] == u

    def test_table_consistency(self):
        for p in (2, 3, 17, 101):
            f = ExtField(p)
            assert np.array_equal(f.exp_table[f.log_table[f.exp_table]], f.exp_table)


    @pytest.mark.parametrize("p", [2, 3, 101, 3001, 100003])
    def test_exp_table_is_powers_of_g(self, p):
        f = cached_field(p)
        assert f.k == 1 and f.q == p
        n = len(f.exp_table)
        assert n == max(p - 1, 1)
        for i in sorted({0, n // 2, n - 1, *np.random.default_rng(p).integers(0, n, 40)}):
            assert f.exp_table[i] == pow(f.g, int(i), p)
        assert np.array_equal(f.log_table[f.exp_table], np.arange(n))
        assert np.array_equal(np.sort(f.exp_table), np.arange(1, p))

    @pytest.mark.parametrize("p, k", [(2000003, 1), (1423, 2)])
    def test_q_cap_refused_before_any_table(self, p, k, monkeypatch):
        # 2000003 is prime, and 1423^2 = 2,024,929: both just past the one cap on q
        monkeypatch.setattr(ExtField, "_build_tables", lambda self: pytest.fail("tables built"))
        monkeypatch.setattr(ExtField, "_smallest_irreducible",
                            staticmethod(lambda p, k: pytest.fail("modulus searched")))
        with pytest.raises(ValueError, match="beyond the table cap 2000000"):
            ExtField(p, k)

    def test_q_cap_is_one_cap_for_every_k(self):
        # q = 1009^2 = 1,018,081 > 10^6: the one cap on q holds at k = 2 as well
        f = ExtField(1009, 2)
        assert f.q == 1009**2 and len(f.exp_table) == f.q - 1


class TestAdditiveChar:
    def test_values(self):
        f5 = ExtField(5)
        assert additive_char(f5, 0) == pytest.approx(1.0)
        assert additive_char(f5, 1) == pytest.approx(cmath.exp(2j * cmath.pi / 5))

    def test_homomorphism(self):
        for field in (ExtField(7), ExtField(3, 2)):
            xs = field.elements()
            for x in xs:
                lhs = additive_char(field, field.add(x, xs))
                rhs = additive_char(field, x) * additive_char(field, xs)
                assert np.abs(lhs - rhs).max() < 1e-12

    def test_full_sum_vanishes(self):
        for field in (ExtField(2), ExtField(3), ExtField(13),
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
        f5 = ExtField(5)
        chi2 = mult_char(f5, 2, 1)
        assert chi2.values[4] == pytest.approx(1.0)
        chi4 = mult_char(f5, 4, 1)
        assert chi4.values[2] == pytest.approx(1j)
        assert chi4.values[4] == pytest.approx(-1.0)

    def test_trivial_character(self):
        chi = mult_char(ExtField(11), 5, 0)
        assert np.allclose(chi.values[1:], 1.0)
        assert chi.values[0] == 0

    def test_exact_order(self):
        f13 = ExtField(13)
        for r in (2, 3, 4, 6, 12):
            for j in range(r):
                chi = mult_char(f13, r, j).values[1:]
                expected = r // math.gcd(j, r) if j else 1
                # chi^e is trivial on the units exactly when the order divides e
                orders = [e for e in range(1, r + 1) if np.allclose(chi**e, 1)]
                assert orders[0] == expected

    def test_orthogonality(self):
        f = ExtField(13)
        for r, j in ((2, 1), (3, 1), (4, 3), (12, 5)):
            chi = mult_char(f, r, j)
            assert abs(chi.values[1:].sum()) < 1e-9

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            mult_char(ExtField(7), 4, 1)


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
            assert f.mul(x, f.pow(x, f.q - 2)) == 1

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            ExtField(3, 5)

    def test_cached_field_identity(self):
        assert cached_field(7, 2) is cached_field(7, 2)

    def test_digit_table_rows(self):
        assert np.array_equal(ExtField(5).digit_table, [np.arange(5)])
        f = ExtField(3, 2)
        assert f.digit_table.shape == (2, 9)
        assert np.array_equal(f.digit_table[0] + 3 * f.digit_table[1], np.arange(9))


class TestPackedTables:
    @pytest.mark.parametrize("p, k", [(2, 1), (7, 1), (2, 4), (3, 2), (5, 2), (23, 2), (3, 4)])
    def test_sizes_at_their_bounds(self, p, k):
        f = cached_field(p, k)
        pack, unpack, repack = _lane_tables(f)
        assert len(pack) == f.q
        assert len(unpack) == len(repack) == (2 * p) ** k == 2**k * f.q
        for d in (0, 1, 4):
            logs, exps = _exponent_tables(f, d)
            assert len(logs) == f.q
            assert len(exps) == (d + 1) * (f.q - 1) + 1
            assert logs[0] == len(exps) - 1 and exps[-1] == 0

    @pytest.mark.parametrize("p, k", [(2, 1), (7, 1), (2, 3), (3, 2), (5, 2)])
    def test_lanes_read_back_every_sum(self, p, k):
        f = cached_field(p, k)
        tf = TupleField.like(f)
        pack, unpack, repack = _lane_tables(f)
        xs = np.arange(f.q)
        sums = pack[xs[:, None]] + pack[xs[None, :]]
        assert unpack[sums].tolist() == tf.add_tab
        assert np.array_equal(repack[sums], pack[unpack[sums]])

    def test_exponent_table_degree_bounded_by_q(self, monkeypatch):
        # x^e = x^((e-1) mod (q-1) + 1) on F_q, so X0^1000 asks for degree 8 over F_9
        asked = []
        real = polynomials._exponent_tables
        monkeypatch.setattr(polynomials, "_exponent_tables",
                            lambda field, d: asked.append(d) or real(field, d))
        F = polynomials.parse_multipoly("X0^1000+X1^3", n_vars=2)
        xs = np.arange(9)
        got = F.eval_field(cached_field(3, 2), (xs, xs[::-1]))
        assert asked == [8]
        tf = TupleField.like(cached_field(3, 2))
        assert got.tolist() == [eval_field_direct(F.terms, tf, (a, b))
                                for a, b in zip(xs.tolist(), xs[::-1].tolist())]


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

    @pytest.mark.parametrize("p, k", SMALL_EXT_FIELDS)
    def test_scalars(self, p, k):
        f = ExtField(p, k)
        tf = TupleField.like(f)
        rng = np.random.default_rng(p * 10 + k)
        for a, b in rng.integers(0, f.q, size=(20, 2)).tolist() + [[f.q - 1, f.q - 1]]:
            assert type(f.add(a, b)) is int and f.add(a, b) == tf.add(a, b)
            assert f.mul(a, b) == tf.mul(a, b)


def _decode(x, p, k):
    return tuple(int(x) // p**i % p for i in range(k))


class TestCompanionTables:
    @pytest.mark.parametrize("p, k", SMALL_EXT_FIELDS + [(23, 2), (101, 2)])
    def test_trace_is_frobenius_sum(self, p, k):
        f = ExtField(p, k)
        for x in range(f.q):
            trace = (f.trace_table[x],) + (0,) * (k - 1)
            assert frobenius_sum(_decode(x, p, k), f.modulus, p) == trace

    # for each k >= 2 the largest prime p with p^k <= 2*10^6, the table cap
    @pytest.mark.parametrize("p, k", [(1409, 2), (113, 3), (37, 4)])
    def test_near_the_cap(self, p, k):
        f = ExtField(p, k)
        assert np.array_equal(np.sort(f.exp_table), np.arange(1, f.q))
        g = _decode(f.g, p, k)
        for i in np.random.default_rng(p).integers(0, f.q - 1, 1000).tolist():
            x, gx = (_decode(f.exp_table[j % (f.q - 1)], p, k) for j in (i, i + 1))
            assert gx == poly_mul_mod(x, g, f.modulus, p)
            trace = (f.trace_table[f.exp_table[i]],) + (0,) * (k - 1)
            assert frobenius_sum(x, f.modulus, p) == trace
