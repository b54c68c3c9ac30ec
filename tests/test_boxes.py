import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polysieve.boxes import (BoxProblem, SmoothWeight, bound_ratio_scan,
                             box_histogram, complete_sum_g, crt_factor_check,
                             discriminant_profile, exact_count,
                             exceptional_set, integer_root_of,
                             poisson_compare, select_primes,
                             sieve_filtered_count)
from polysieve.errors import BudgetExceeded
from polysieve.fields import PrimeField, mult_char, primes_in
from polysieve.polynomials import MultiPoly, parse_multipoly, parse_unipoly
from polysieve.sieve import build_prime_data, h_image_table, in_h_image
from polysieve.tracefn import TraceFunction, constant_trace, kloosterman
from polysieve.varieties import diagonal_dual_oracle

from _oracles import (box_count_direct, box_count_per_point, box_histogram_direct,
                      complete_sum_grid, complete_sum_table, crt_lhs_grid,
                      poisson_dual_grid)

F_QUADRIC = parse_multipoly("X0^2+X1^2+X2^2")
F_CUBIC = parse_multipoly("X0^3+X1^3+X2^3")


def prime_data_for(f, primes):
    return [build_prime_data(f, p) for p in primes]


def per_point_count(f, F, B):
    return box_count_per_point(list(f.coeffs), F.terms, F.n_vars, B)


class TestBruteCount:
    def test_spec_examples(self):
        assert exact_count(parse_unipoly("T^2"), box_histogram(F_QUADRIC, 1)) == 7
        assert exact_count(parse_unipoly("T^3"), box_histogram(F_QUADRIC, 1)) == 7
        assert exact_count(parse_unipoly("T^2"), box_histogram(F_QUADRIC, 0)) == 1

    def test_nested_loop_oracle(self):
        for f_text, B in (("T^2", 3), ("T^3", 3), ("T^3-3*T", 2)):
            f = parse_unipoly(f_text)
            got = exact_count(f, box_histogram(F_QUADRIC, B))
            want = box_count_direct(list(f.coeffs), F_QUADRIC.terms, 3, B)
            assert got == want, (f_text, B)

    def test_requires_homogeneous(self):
        with pytest.raises(ValueError):
            BoxProblem(parse_unipoly("T^2"), parse_multipoly("X0^2+X1"), 5)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            box_histogram(F_QUADRIC, 50, budget=1000)


H_PROPERTY = ["T^2", "T^3", "T^3-3*T", "T^2+T", "2*T^3+1"]


@st.composite
def box_inputs(draw):
    """(f, F, B): small boxes, diagonal or general homogeneous F of degree 2, 3 or 5."""
    f = parse_unipoly(draw(st.sampled_from(H_PROPERTY)))
    m = draw(st.integers(2, 3))
    d = draw(st.sampled_from([2, 3, 5]))
    coeff = st.integers(-3, 3).filter(bool)
    if draw(st.booleans()):
        monos = [tuple(d * (i == j) for j in range(m)) for i in range(m)]
    else:
        every = [e for e in itertools.product(range(d + 1), repeat=m) if sum(e) == d]
        monos = draw(st.lists(st.sampled_from(every), min_size=1, max_size=4,
                              unique=True))
    F = MultiPoly(m, {e: draw(coeff) for e in monos})
    return f, F, draw(st.integers(0, 3))


class TestHistogramProperty:
    @settings(max_examples=80)
    @given(box_inputs())
    @example((parse_unipoly("T^3-3*T"), parse_multipoly("X0^5+3*X1^5-2*X2^5"), 3))
    @example((parse_unipoly("T^2"), parse_multipoly("X0^2+X0*X1-X2^2"), 3))
    def test_counts_match_nested_loops(self, inputs):
        f, F, B = inputs
        want = box_count_direct(list(f.coeffs), F.terms, F.n_vars, B)
        hist = box_histogram(F, B)
        assert hist.total_points == (2 * B + 1) ** F.n_vars
        assert exact_count(f, hist) == want
        primes = [p for p in primes_in(f.degree + 1, 40)
                  if not build_prime_data(f, p).surjective][:4]
        data = prime_data_for(f, primes)
        rec = sieve_filtered_count(f, hist, data)
        assert rec.count == want
        values = [F.eval(x) for x in
                  itertools.product(range(-B, B + 1), repeat=F.n_vars)]
        survivors = sum(all(dd.image[v % dd.p] for dd in data) for v in values)
        assert rec.verified_exactly == survivors
        assert rec.rejected_by_sieve == rec.total_points - survivors


@st.composite
def fold_inputs(draw):
    """(F, B): m <= 4 variables, B <= 3, monomials drawn so that F often splits
    into several variable groups; mixed degrees, signs and a constant term
    are allowed, since the fold does not need a form."""
    m = draw(st.integers(1, 4))
    every = [e for e in itertools.product(range(4), repeat=m) if sum(e) <= 5]
    monos = draw(st.lists(st.sampled_from(every), min_size=1, max_size=5, unique=True))
    coeff = st.one_of(st.integers(-5, 5).filter(bool), st.sampled_from([10**6, -999]))
    return MultiPoly(m, {e: draw(coeff) for e in monos}), draw(st.integers(0, 3))


class TestBoxHistogramFold:
    @settings(max_examples=150)
    @given(fold_inputs())
    @example((parse_multipoly("X0^2+X1^2+X2^2"), 0))
    @example((MultiPoly(3, {(2, 0, 0): 1, (0, 0, 2): -1}), 3))  # X1 absent
    @example((parse_multipoly("X0*X1+X2*X3"), 3))                # two 2-variable groups
    @example((parse_multipoly("X0^2+X0*X1+X1*X2-X2^2"), 3))      # one group
    @example((parse_multipoly("X0^5+2*X1^5-X2^5-3*X3^5"), 3))
    @example((parse_multipoly("1000000*X0^2+X1^2+X2^2"), 3))
    def test_matches_nested_loops(self, case):
        F, B = case
        values, counts = box_histogram_direct(F.terms, F.n_vars, B)
        hist = box_histogram(F, B)
        assert hist.values.dtype == np.int64 and hist.counts.dtype == np.int64
        assert hist.values.tolist() == values
        assert hist.counts.tolist() == counts

    def test_large_coefficient_at_radius_ten(self):
        F = parse_multipoly("1000000*X0^2+X1^2+X2^2")
        values, counts = box_histogram_direct(F.terms, 3, 10)
        hist = box_histogram(F, 10)
        assert hist.values.tolist() == values and hist.counts.tolist() == counts

    def test_separable_box_never_built(self):
        # the 241^3 int64 box alone is 112 MB; folding single-variable
        # histograms needs a fraction of it
        F, B = F_QUADRIC, 120
        box_bytes = (2 * B + 1) ** 3 * 8
        tracemalloc.start()
        try:
            hist = box_histogram(F, B)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < box_bytes / 4
        assert hist.total_points == (2 * B + 1) ** 3
        assert exact_count(parse_unipoly("T^2"), hist) == 59761

    def test_budget_and_overflow_charged_for_the_whole_box(self):
        # every group fits the budget, the box does not
        with pytest.raises(BudgetExceeded):
            box_histogram(F_QUADRIC, 50, budget=101**2)
        # every group's values fit int64, their sum might not
        F = MultiPoly(2, {(1, 0): 2**61, (0, 1): 2**61})
        with pytest.raises(OverflowError):
            box_histogram(F, 1)


class TestValueTable:
    def test_lookup_agrees_with_root_isolation(self):
        # spec invariant: table lookups match direct integer-root solving
        rng = np.random.default_rng(4)
        for f_text in ("T^2", "T^3", "T^3-3*T", "2*T^3+1", "T^4+T"):
            f = parse_unipoly(f_text)
            table = h_image_table(f, 25000)
            vals = rng.integers(-25000, 25001, size=2500)
            mask = in_h_image(f, vals, table)
            for v, hit in zip(vals, mask):
                root = integer_root_of(f, int(v))
                assert (root is not None) == bool(hit), (f_text, v)
                if root is not None:
                    assert f.eval(root) == v


class TestSieveFilteredCount:
    def test_equals_brute_across_radii(self):
        f = parse_unipoly("T^2")
        for B in (1, 5, 10):
            problem = BoxProblem(f, F_QUADRIC, B)
            primes = select_primes(problem).primes if B >= 5 else (3, 7)
            data = prime_data_for(f, primes)
            rec = sieve_filtered_count(f, box_histogram(F_QUADRIC, B), data)
            assert rec.count == per_point_count(f, F_QUADRIC, B)

    def test_rejection_happens(self):
        f = parse_unipoly("T^2")
        data = prime_data_for(f, (13, 17, 19, 23))
        rec = sieve_filtered_count(f, box_histogram(F_QUADRIC, 10), data)
        assert rec.rejection_ratio > 0

    def test_empty_prime_set_is_pure_brute(self):
        f = parse_unipoly("T^2")
        rec = sieve_filtered_count(f, box_histogram(F_QUADRIC, 5), [])
        assert rec.rejection_ratio == 0.0
        assert rec.count == per_point_count(f, F_QUADRIC, 5)


class TestSelectPrimes:
    def test_spec_window(self):
        sel = select_primes(BoxProblem(parse_unipoly("T^2"), F_QUADRIC, 100))
        assert sel.q_parameter == pytest.approx(46.29, abs=0.05)
        assert sel.primes == (47, 53, 59, 61, 67, 71, 73, 79, 83, 89)
        assert not sel.semi_decided

    def test_surjective_primes_excluded(self):
        # cubing is onto F_p for p = 2 mod 3
        sel = select_primes(BoxProblem(parse_unipoly("T^3"), F_QUADRIC, 100))
        assert all(p % 3 == 1 for p in sel.primes)
        assert any(reason == "f surjective" for reason in sel.skipped.values())

    def test_bad_reduction_excluded(self):
        F = parse_multipoly("X0^2+X1^2+53*X2^2")
        sel = select_primes(BoxProblem(parse_unipoly("T^2"), F, 100))
        assert 53 not in sel.primes
        assert sel.skipped[53] == "bad reduction"

    def test_small_B_errors(self):
        with pytest.raises(ValueError):
            select_primes(BoxProblem(parse_unipoly("T^2"), F_QUADRIC, 2))

    def test_nondiagonal_is_semi_decided(self):
        F = parse_multipoly("X0^2+X1^2+X2^2+X0*X1")
        sel = select_primes(BoxProblem(parse_unipoly("T^2"), F, 30))
        assert sel.semi_decided

    def test_scan_excludes_singular_reduction(self):
        # Gram determinant of this quadric is -42, so reduction mod 7 is
        # singular; the window for B=5 is [4, 7] and only 5 survives
        F = parse_multipoly("X0^2+X1^2+5*X1*X2+X2^2")
        sel = select_primes(BoxProblem(parse_unipoly("T^2"), F, 5))
        assert sel.semi_decided
        assert 7 not in sel.primes
        assert sel.skipped.get(7) == "bad reduction"
        assert 5 in sel.primes


class TestExceptionalSet:
    def test_spec_example(self):
        f = parse_unipoly("T^2")
        problem = BoxProblem(f, F_QUADRIC, 100)
        data = prime_data_for(f, select_primes(problem).primes)
        v_max = box_histogram(F_QUADRIC, 100).v_max
        assert v_max == 30000
        assert exceptional_set(f, data, v_max) == {0}

    def test_matches_direct_recount(self):
        f = parse_unipoly("T^3-3*T")
        primes = (7, 11, 13, 17)
        data = prime_data_for(f, primes)
        got = exceptional_set(f, data, v_max=500)
        P, d = len(primes), f.degree
        expected = set()
        for k in range(-500, 501):
            hits = sum(1 for dd in data if (k % dd.p) in dd.exceptional)
            if hits >= P / (2 * d):
                expected.add(k)
        assert got == expected

    def test_impossible_threshold_empty(self):
        f = parse_unipoly("T^2")
        data = prime_data_for(f, (13,))
        # with one prime the lemma threshold is 1/4, met whenever 13 | k;
        # against v_max < 13 only k = 0 remains, and dropping it empties S
        got = exceptional_set(f, data, v_max=12)
        assert got == {0}

    def test_range_charged_to_budget(self):
        f = parse_unipoly("T^2")
        data = prime_data_for(f, (13,))
        with pytest.raises(BudgetExceeded):
            exceptional_set(f, data, v_max=10**6, budget=10**5)


class TestDiscriminantProfile:
    def test_spec_examples(self):
        f2 = parse_unipoly("T^2")
        assert discriminant_profile(f2, 6) == {
            "k": 6, "disc": 24, "omega": 2, "zero_disc": False}
        assert discriminant_profile(f2, 0)["zero_disc"]
        prof = discriminant_profile(parse_unipoly("T^3"), 1)
        assert prof["disc"] == -27 and prof["omega"] == 1

    def test_exceptional_residues_divide_the_discriminant(self):
        # hitting the exceptional set mod p forces a repeated root of
        # f - k mod p, so p divides disc(f - k); this is what keeps the
        # exceptional set small relative to the value range
        for f_text in ("T^2", "T^3", "T^3-3*T", "2*T^3+1", "T^4+T"):
            f = parse_unipoly(f_text)
            data = prime_data_for(f, [p for p in primes_in(f.degree + 1, 40)
                                      if f.lc % p != 0])
            for k in range(-30, 31):
                disc = discriminant_profile(f, k)["disc"]
                for d in data:
                    if (k % d.p) in d.exceptional:
                        assert disc % d.p == 0, (f_text, k, d.p)


class TestCompleteSums:
    def test_full_sum_of_ones(self):
        f5 = PrimeField(5)
        F = parse_multipoly("X0^2+X1^2")
        assert complete_sum_g(F, constant_trace(f5), (0, 0), 5) == \
            pytest.approx(25)

    def test_legendre_quadric_example(self):
        f3 = PrimeField(3)
        F = parse_multipoly("X0^2+X1^2")
        val = complete_sum_g(F, mult_char(f3, 2, 1), (0, 0), 3)
        assert val == pytest.approx(0, abs=1e-9)

    def test_fiber_grouping_matches_direct(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            p = int(rng.choice([5, 7, 11]))
            F = MultiPoly(2, {(2, 0): int(rng.integers(1, p)),
                              (0, 2): int(rng.integers(1, p)),
                              (1, 1): int(rng.integers(0, p))})
            t = kloosterman(2, PrimeField(p))
            grouped = complete_sum_g(F, t, (0, 0), p)
            direct = 0j
            for x in range(p):
                for y in range(p):
                    direct += t.values[F.eval_mod((x, y), p)]
            assert abs(grouped - direct) <= 1e-6 * max(1, abs(direct))

    def test_table_matches_pointwise(self):
        p = 7
        t = kloosterman(2, PrimeField(p))
        table = complete_sum_table(F_QUADRIC, t.values, p)
        for u in ((0, 0, 0), (1, 2, 3), (6, 0, 5)):
            assert table[u] == pytest.approx(complete_sum_g(F_QUADRIC, t, u, p),
                                             abs=1e-9)

    def test_twisted_sum_python_loop_oracle(self):
        # pure-Python enumeration pins the phase conventions
        import cmath

        p = 5
        F = parse_multipoly("X0^2 + 2*X0*X1 + 3*X1^2")
        t = kloosterman(2, PrimeField(p))
        for u in ((1, 0), (2, 3), (4, 4)):
            direct = 0j
            for x in range(p):
                for y in range(p):
                    phase = cmath.exp(2j * cmath.pi
                                      * (x * u[0] + y * u[1]) / p)
                    direct += t.values[F.eval_mod((x, y), p)] * phase
            assert complete_sum_g(F, t, u, p) == pytest.approx(direct,
                                                               abs=1e-9)


class TestCrtFactorization:
    def test_legendre_example(self):
        F = parse_multipoly("X0^2+X1^2")
        rec = crt_factor_check(F, (1, 1), 3, 5,
                               mult_char(PrimeField(3), 2, 1),
                               mult_char(PrimeField(5), 2, 1))
        assert rec["error"] <= 1e-9

    def test_constant_traces_exact(self):
        F = parse_multipoly("X0^2+X1^2")
        rec = crt_factor_check(F, (2, 3), 3, 7,
                               constant_trace(PrimeField(3)),
                               constant_trace(PrimeField(7)))
        assert rec["rel_error"] <= 1e-12

    def test_u_zero_reduces_componentwise(self):
        F = parse_multipoly("X0^2+X1^2")
        t3 = kloosterman(2, PrimeField(3))
        t5 = kloosterman(2, PrimeField(5))
        rec = crt_factor_check(F, (0, 0), 3, 5, t3, t5)
        g1 = complete_sum_g(F, t3, (0, 0), 3)
        g2 = complete_sum_g(F, t5.conj(), (0, 0), 5)
        assert rec["lhs"] == pytest.approx(g1 * g2, abs=1e-9)

    def test_equal_primes_rejected(self):
        F = parse_multipoly("X0^2+X1^2")
        t = constant_trace(PrimeField(5))
        with pytest.raises(ValueError):
            crt_factor_check(F, (0, 0), 5, 5, t, t)

    def test_random_draws(self):
        rng = np.random.default_rng(23)
        ps = primes_in(3, 31)
        for _ in range(25):
            p, q = map(int, rng.choice(ps, size=2, replace=False))
            F = MultiPoly(2, {(2, 0): int(rng.integers(1, 5)),
                              (0, 2): int(rng.integers(1, 5)),
                              (1, 1): int(rng.integers(0, 4))})
            u = [int(x) for x in rng.integers(0, p * q, size=2)]
            rec = crt_factor_check(F, u, p, q,
                                   kloosterman(2, PrimeField(p)),
                                   mult_char(PrimeField(q), 2, 1))
            assert rec["rel_error"] <= 1e-6


class TestSmoothWeight:
    def test_center_value(self):
        assert SmoothWeight(10).weight([0.0]) == pytest.approx(math.exp(-1))

    def test_support_boundary(self):
        W = SmoothWeight(10)
        assert W.weight([10.0]) == 0.0
        assert W.weight([0.0, -10.0, 3.0]) == 0.0

    def test_poisson_identity_1d(self):
        W = SmoothWeight(10)
        gap, direct, dual = W.poisson_identity_gap()
        assert gap <= 1e-6 * abs(direct)

    def test_envelope_dominates(self):
        W = SmoothWeight(10, kappa=4)
        for xi in (0.5, 1.0, 2.0, 5.0, 12.0, 30.0):
            assert abs(W.wh(xi)) <= W.wh_bound(xi) + 1e-15

    def test_transform_is_product(self):
        W = SmoothWeight(5)
        v = (0.3, 0.7)
        assert W.what(v) == pytest.approx(
            (5 * W.wh(5 * 0.3)) * (5 * W.wh(5 * 0.7)))


class TestPoissonCompare:
    def test_pure_identity_with_trivial_traces(self):
        rec = poisson_compare(F_QUADRIC, 3, 5,
                              constant_trace(PrimeField(3)),
                              constant_trace(PrimeField(5)),
                              B=10, u_cutoff=8)
        assert rec["error"] <= rec["tail_bound"] + 1e-6

    def test_legendre_agreement(self):
        rec = poisson_compare(F_QUADRIC, 3, 5,
                              mult_char(PrimeField(3), 2, 1),
                              mult_char(PrimeField(5), 2, 1),
                              B=10, u_cutoff=8)
        assert rec["error"] <= rec["tail_bound"] + 1e-6

    def test_auto_cutoff_targets_small_tail(self):
        t3 = mult_char(PrimeField(3), 2, 1)
        t5 = mult_char(PrimeField(5), 2, 1)
        rec = poisson_compare(F_QUADRIC, 3, 5, t3, t5, B=10)
        W = SmoothWeight(10)
        main_scale = (10 * W.wh(0.0)) ** 3  # sup bounds are 1 here
        assert rec["tail_bound"] <= 1e-4 * main_scale
        assert rec["error"] <= rec["tail_bound"] + 1e-6

    def test_box_values_overflow_guarded(self):
        F = parse_multipoly("2305843009213693952*X0^2+X1^2+X2^2")  # 2^61 X0^2
        with pytest.raises(OverflowError):
            poisson_compare(F, 3, 5, constant_trace(PrimeField(3)),
                            constant_trace(PrimeField(5)), B=2, u_cutoff=2)

    def test_cutoff_zero_semantics(self):
        t3 = mult_char(PrimeField(3), 2, 1)
        t5 = mult_char(PrimeField(5), 2, 1)
        rec = poisson_compare(F_QUADRIC, 3, 5, t3, t5, B=10, u_cutoff=0)
        W = SmoothWeight(10)
        g0 = complete_sum_g(F_QUADRIC, t3, (0, 0, 0), 3) \
            * complete_sum_g(F_QUADRIC, t5.conj(), (0, 0, 0), 5)
        expected = g0 * W.what((0, 0, 0)) / 15**3
        assert rec["poisson"] == pytest.approx(expected, abs=1e-9)


class TestSumBounds:
    def test_good_u_kloosterman_ratio_bounded(self):
        # quadric family, Kl_2, good frequencies: |g|/p^1.5 stays under 20
        rng = np.random.default_rng(31)
        worst = 0.0
        for p in primes_in(5, 61):
            t = kloosterman(2, PrimeField(p))
            found = 0
            while found < 3:
                u = [int(x) for x in rng.integers(0, p, size=3)]
                if all(c % p == 0 for c in u):
                    continue
                if diagonal_dual_oracle([1, 1, 1], 2, u, p).kind != "good":
                    continue
                found += 1
                worst = max(worst,
                            abs(complete_sum_g(F_QUADRIC, t, u, p)) / p**1.5)
        assert worst <= 20

    def test_bad_exponent_gap(self):
        # with the square-sieve character: tangent frequencies fill the
        # p^2 scale while good ones vanish at that normalization
        rng = np.random.default_rng(37)
        good_at_bad_scale = {}
        bad_at_bad_scale = {}
        for p in (13, 29, 61):
            leg = mult_char(PrimeField(p), 2, 1)
            bad_u = next(
                (u0, u1, u2)
                for u0 in range(1, p) for u1 in range(p) for u2 in range(p)
                if (u0 * u0 + u1 * u1 + u2 * u2) % p == 0)
            bad_at_bad_scale[p] = abs(
                complete_sum_g(F_QUADRIC, leg, bad_u, p)) / p**2
            while True:
                u = [int(x) for x in rng.integers(0, p, size=3)]
                if any(c % p for c in u) and \
                        diagonal_dual_oracle([1, 1, 1], 2, u, p).kind == "good":
                    break
            good_at_bad_scale[p] = abs(
                complete_sum_g(F_QUADRIC, leg, u, p)) / p**2
        assert all(v <= 1.0 + 1e-9 for v in bad_at_bad_scale.values())
        ps = sorted(good_at_bad_scale)
        assert good_at_bad_scale[ps[-1]] < good_at_bad_scale[ps[0]]
        for p in ps:
            assert good_at_bad_scale[p] < bad_at_bad_scale[p]


class TestBoundRatioScan:
    def test_single_point_grid(self):
        out = bound_ratio_scan(parse_unipoly("T^2"), F_QUADRIC, [10])
        assert out["spread"] == 1.0

    def test_small_grid_fields(self):
        out = bound_ratio_scan(parse_unipoly("T^2"), F_QUADRIC, [10, 20])
        assert len(out["rows"]) == 2
        assert all({"B", "count", "ratio_main", "ratio_comparison"} <=
                   set(r) for r in out["rows"])
        assert out["spread"] <= 10


# separable, mixed, non-separable, an absent variable with a constant term
GROUPED_FORMS = ["X0^2+2*X1^2+3*X2^2", "X0^2+X0*X1+X2^3", "X0*X1+X1*X2+X2^2",
                 "X0^3+X2^2+5", "2*X0^2+X1^3+X0*X1+1", "X0^2+X1*X2+X1^3"]


def trace_on(kind, p):
    field = PrimeField(p)
    if kind == "kl":
        return kloosterman(2, field)
    if kind == "chi" and p > 2:
        return mult_char(field, 2, 1)
    if kind == "one":
        return constant_trace(field)
    return TraceFunction(p, field.psi_table.copy(), "psi", 1.0)


class TestGroupedSums:
    @settings(max_examples=60)
    @given(st.sampled_from(GROUPED_FORMS), st.sampled_from([2, 3, 5, 7, 11]),
           st.lists(st.integers(-12, 12), min_size=3, max_size=3),
           st.sampled_from(["kl", "chi", "one", "psi"]))
    def test_twisted_sum_matches_full_grid(self, form, p, u, kind):
        F = parse_multipoly(form, n_vars=3)
        t = trace_on(kind, p)
        want = complete_sum_grid(F, t.values, u, p)
        assert abs(complete_sum_g(F, t, u, p) - want) <= 1e-9 * max(1, abs(want))

    @settings(max_examples=30)
    @given(st.sampled_from(GROUPED_FORMS),
           st.sampled_from([(2, 3), (3, 5), (5, 3), (2, 7)]),
           st.lists(st.integers(-40, 40), min_size=3, max_size=3),
           st.sampled_from(["kl", "one", "psi"]))
    def test_crt_left_side_matches_full_grid(self, form, pq, u, kind):
        F = parse_multipoly(form, n_vars=3)
        p, q = pq
        t_p, t_q = trace_on(kind, p), trace_on("kl", q)
        rec = crt_factor_check(F, u, p, q, t_p, t_q)
        want = crt_lhs_grid(F, u, p, q, t_p.values, t_q.values)
        assert abs(rec["lhs"] - want) <= 1e-9 * max(1, abs(want))
        assert rec["rel_error"] <= 1e-9

    @settings(max_examples=12)
    @given(st.sampled_from(GROUPED_FORMS), st.sampled_from([(2, 3), (3, 5), (5, 7)]),
           st.integers(0, 3), st.sampled_from(["kl", "one", "psi"]))
    def test_poisson_window_matches_full_tables(self, form, pq, cutoff, kind):
        F = parse_multipoly(form, n_vars=3)
        p, q = pq
        t_p, t_q = trace_on(kind, p), trace_on("kl", q)
        B = 4
        rec = poisson_compare(F, p, q, t_p, t_q, B=B, u_cutoff=cutoff)
        W = SmoothWeight(B)
        wh_axis = [B * W.wh(B * abs(uu) / (p * q)) for uu in range(-cutoff, cutoff + 1)]
        want = poisson_dual_grid(F, p, q, t_p.values, t_q.values, wh_axis)
        assert abs(rec["poisson"] - want) <= 1e-9 * max(1, abs(want))
        direct = 0j
        for x in itertools.product(range(-B, B + 1), repeat=3):
            v = F.eval(x)
            direct += W.weight(x) * t_p.values[v % p] * np.conj(t_q.values[v % q])
        assert abs(rec["direct"] - direct) <= 1e-9 * max(1, abs(direct))

    def test_diagonal_cubic_at_p_10007(self):
        p = 10007
        F = parse_multipoly("X0^3+X1^3+2*X2^3")
        u = (1, 2, 3)
        field = PrimeField(p)
        t = TraceFunction(p, field.psi_table.copy(), "psi", 1.0)
        a = np.arange(p, dtype=np.int64)
        factors = [complex(np.exp(2j * np.pi * ((c * a**3 + ui * a) % p) / p).sum())
                   for c, ui in zip((1, 1, 2), u)]
        assert all(abs(f) <= 2 * math.sqrt(p) for f in factors)  # Weil
        start = time.perf_counter()
        g = complete_sum_g(F, t, u, p)
        assert time.perf_counter() - start < 1.0
        want = factors[0] * factors[1] * factors[2]
        assert abs(g - want) <= 1e-9 * abs(want)
        tracemalloc.start()
        try:
            complete_sum_g(F, t, u, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20  # the p^3 grid would need 8 TB

    def test_budget_charges_group_grids(self):
        p = 101
        t = kloosterman(2, PrimeField(p))
        # p^3 = 1030301 is past the budget; the group grids and spectra are 404 points
        got = complete_sum_g(F_QUADRIC, t, (1, 2, 3), p, budget=10**4)
        want = complete_sum_grid(F_QUADRIC, t.values, (1, 2, 3), p)
        assert abs(got - want) <= 1e-9 * abs(want)
        # the grid of a non-separable group counts in full: p^2 + 2p > 10^4
        F = parse_multipoly("X0*X1+X2^2")
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded):
                complete_sum_g(F, t, (1, 2, 3), p, budget=10**4)
            with pytest.raises(BudgetExceeded):
                crt_factor_check(F, (1, 2, 3), 5, 7, trace_on("kl", 5), trace_on("kl", 7),
                                 budget=35**2)
            with pytest.raises(BudgetExceeded):
                # box 9^3; window pass 7 pairs * 7^2; X0*X1 absorbs the s-sum,
                # (5^2 + 5) * 5 and (7^2 + 7) * 7; X2^2 rows 5 * 5 and 7 * 7: 1688
                poisson_compare(F, 5, 7, trace_on("kl", 5), trace_on("kl", 7), B=4,
                                u_cutoff=3, budget=1687)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16  # refused before any grid was built
        poisson_compare(F, 5, 7, trace_on("kl", 5), trace_on("kl", 7), B=4,
                        u_cutoff=3, budget=1688)

    @pytest.mark.parametrize("form, p, q, cutoff", [
        ("X0*X1+X2*X3+X2^2", 3, 5, 2),   # two groups of two: one absorbs, one gives rows
        ("X0^2+X1*X2*X3+1", 5, 2, 3),    # the largest group last, p > q, W > q
    ])
    def test_poisson_window_four_variables(self, form, p, q, cutoff):
        F = parse_multipoly(form)
        t_p, t_q = trace_on("kl", p), trace_on("psi", q)
        rec = poisson_compare(F, p, q, t_p, t_q, B=2, u_cutoff=cutoff)
        W = SmoothWeight(2)
        wh_axis = [2 * W.wh(2 * abs(uu) / (p * q)) for uu in range(-cutoff, cutoff + 1)]
        want = poisson_dual_grid(F, p, q, t_p.values, t_q.values, wh_axis)
        assert abs(rec["poisson"] - want) <= 1e-9 * max(1, abs(want))

    def test_frequencies_past_int64_reduce_first(self):
        F = parse_multipoly("X0*X1+X2^2")
        big = (3 + 35 * 10**30, -2 - 35 * 10**25, 4)
        t = trace_on("kl", 5)
        assert complete_sum_g(F, t, big, 5) == pytest.approx(complete_sum_g(F, t, (3, 3, 4), 5))
        rec = crt_factor_check(F, big, 5, 7, t, trace_on("kl", 7))
        assert rec["lhs"] == pytest.approx(crt_lhs_grid(F, (3, 33, 4), 5, 7, t.values,
                                                        trace_on("kl", 7).values))

    def test_non_separable_poisson_keeps_the_full_table_cost(self):
        # one group of two variables: the charge is p^2 + q^2 plus window terms,
        # as the full tables were, so p, q near 500 run under the default budget
        F = parse_multipoly("X0*X1")
        p, q, B, cutoff = 499, 503, 6, 8
        t_p, t_q = trace_on("kl", p), trace_on("kl", q)
        rec = poisson_compare(F, p, q, t_p, t_q, B=B, u_cutoff=cutoff)
        W = SmoothWeight(B)
        wh_axis = [B * W.wh(B * abs(uu) / (p * q)) for uu in range(-cutoff, cutoff + 1)]
        want = poisson_dual_grid(F, p, q, t_p.values, t_q.values, wh_axis)
        assert abs(rec["poisson"] - want) <= 1e-9 * max(1, abs(want))
        with pytest.raises(BudgetExceeded):
            poisson_compare(F, p, q, t_p, t_q, B=B, u_cutoff=cutoff, budget=p**2 + q**2)
