import dataclasses
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polysieve import boxes, convolve, sieve, varieties
from polysieve.boxes import (BoxProblem, SmoothWeight, _bump_derivative_l1, _dense_length,
                             bound_ratio_scan, box_histogram, complete_sum_g,
                             crt_factor_check, exact_count, exceptional_set,
                             poisson_compare, select_primes, sieve_filtered_count)
from polysieve.errors import BudgetExceeded, InvariantViolation
from polysieve.fields import ExtField, mult_char, prime_factors, primes_in
from polysieve.polynomials import (MultiPoly, critical_value_poly, parse_multipoly,
                                   parse_unipoly, resultant_uni)
from polysieve.sieve import build_prime_data, in_h_image
from polysieve.tracefn import TraceFunction, constant_trace, kloosterman

from _oracles import (box_count_direct, box_count_per_point, box_histogram_direct,
                      complete_sum_grid, complete_sum_slices, complete_sum_table,
                      crt_lhs_grid,
                      diagonal_dual_oracle, integer_root_of, poisson_direct_grid,
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


def fold_paths(mp, refuse):
    """Patch boxes' two folds to record, in order, the method box_histogram
    takes.  With refuse, the first rounding bound of each dense fold fails:
    it runs in limbs, or, on 0/1 parts, which have none, it is refused and
    then run again under the real bound; limbs are the FFT path's, so the
    shifted sums are never taken then."""
    paths, bound = [], convolve._fft_error_bound

    def sparse(*args, real=boxes._fold):
        paths.append("sparse")
        return real(*args)

    def dense(parts, real=boxes.fold):
        if not refuse:
            paths.append("dense")
            return real(parts)
        top = iter([1.0])
        mp.setattr(convolve, "_CELL_COST", 0)
        mp.setattr(convolve, "_fft_error_bound", lambda *args: next(top, None) or bound(*args))
        if all(h.max() <= 1 for h in parts):
            paths.append("refused")
            with pytest.raises(OverflowError, match="0/1 parts"):
                real(parts)
        else:
            paths.append("limbs")
        return real(parts)

    mp.setattr(boxes, "_fold", sparse)
    mp.setattr(boxes, "fold", dense)
    return paths


class TestBoxHistogramFold:
    @settings(max_examples=150)
    @given(fold_inputs(), st.booleans())
    @example((parse_multipoly("X0^2+X1^2+X2^2"), 0), False)
    @example((MultiPoly(3, {(2, 0, 0): 1, (0, 0, 2): -1}), 3), False)  # X1 absent
    @example((parse_multipoly("X0*X1+X2*X3"), 3), False)                # two 2-variable groups
    @example((parse_multipoly("X0^2+X0*X1+X1*X2-X2^2"), 3), False)      # one group
    @example((parse_multipoly("X0^5+2*X1^5-X2^5-3*X3^5"), 3), False)
    @example((parse_multipoly("1000000*X0^2+X1^2+X2^2"), 3), False)
    @example((parse_multipoly("X0+X1"), 3), False)                      # dense fold
    @example((parse_multipoly("X0^2+X1^2+X2^2"), 3), False)             # sparse, then dense
    @example((parse_multipoly("X0^2+X1^2+X2^2"), 3), True)              # sparse, then limbs
    @example((parse_multipoly("X0+X1"), 3), True)                       # 0/1 parts refused
    def test_matches_nested_loops(self, case, refuse):
        F, B = case
        with pytest.MonkeyPatch.context() as mp:
            fold_paths(mp, refuse)
            hist = box_histogram(F, B)
        values, counts = box_histogram_direct(F.terms, F.n_vars, B)
        assert hist.values.dtype == np.int64 and hist.counts.dtype == np.int64
        assert hist.values.tolist() == values
        assert hist.counts.tolist() == counts

    def test_each_fold_takes_the_cheaper_method(self):
        # at B = 3, X0 and X1 take 7 values on spans of 7: 7 + 7 < 7 * 7 pairs;
        # the squares take 4 values on spans of 10: 10 + 10 > 4 * 4, while
        # X0^2 + X1^2 (10 values, span 19) and X2^2 have 19 + 10 < 10 * 4
        cases = [("X0+X1", False, ["dense"]), ("X0^2+X1^2", False, ["sparse"]),
                 ("X0^2+X1^2+X2^2", False, ["sparse", "dense"]),
                 ("X0^2+X1^2+X2^2", True, ["sparse", "limbs"]), ("X0+X1", True, ["refused"])]
        for form, refuse, want in cases:
            with pytest.MonkeyPatch.context() as mp:
                paths = fold_paths(mp, refuse)
                box_histogram(parse_multipoly(form), 3)
            assert paths == want, form
        # the rounding bound no longer picks the method: counts of 2^40 fold in limbs
        light = (np.arange(100), np.ones(100, dtype=np.int64))
        heavy = (np.arange(100), np.full(100, 2**40))
        assert _dense_length(light, light) == 200  # span 199, padded to 2^3 * 5^2
        assert _dense_length(heavy, light) == 200

    def test_fold_certificate_catches_a_wrong_cell(self, monkeypatch):
        real = np.fft.irfftn
        monkeypatch.setattr(convolve, "_CELL_COST", 0)  # the FFT path: shifted sums never cheaper

        def off(*shifts):
            def irfftn(*args, **kwargs):
                out = real(*args, **kwargs)
                for cell, d in shifts:
                    out[cell] += d
                return out
            return irfftn

        monkeypatch.setattr(np.fft, "irfftn", off((1, 1)))
        with pytest.raises(InvariantViolation, match="total"):
            box_histogram(F_QUADRIC, 3)
        # the total still holds: only the checksum sees it
        monkeypatch.setattr(np.fft, "irfftn", off((1, 1), (3, -1)))
        with pytest.raises(InvariantViolation, match="checksum"):
            box_histogram(F_QUADRIC, 3)

    def test_box_past_the_default_budget_runs(self):
        # 1001^3 box points are ten times the default budget; the grids and
        # folds actually built are far fewer
        start = time.perf_counter()
        hist = box_histogram(F_QUADRIC, 500)
        assert exact_count(parse_unipoly("T^2"), hist) == 1021297
        assert time.perf_counter() - start < 1.0
        assert hist.total_points == 1001**3

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

    def test_budget_charged_for_what_is_built_and_overflow_for_the_box(self):
        # B = 10: three 21-point grids, the sorted fold of two 11-value square
        # histograms, and the dense fold over the span 0..300, charged at its
        # padded 320 cells whichever path it takes
        cost = 3 * 21 + 11 * 11 + 320
        assert box_histogram(F_QUADRIC, 10, budget=cost).total_points == 21**3
        with pytest.raises(BudgetExceeded, match=f" {cost} points"):
            box_histogram(F_QUADRIC, 10, budget=cost - 1)
        # every group's values fit int64, their sum might not
        F = MultiPoly(2, {(1, 0): 2**61, (0, 1): 2**61})
        with pytest.raises(OverflowError):
            box_histogram(F, 1)
        # 3^40 points: the counts pass int64, on the sorted and the dense folds alike
        for c in (1, 10**6):
            F = MultiPoly(40, {tuple(2 * (j == i) for j in range(40)): c if i == 0 else 1
                               for i in range(40)})
            with pytest.raises(OverflowError, match="counts"):
                box_histogram(F, 1)


    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(st.tuples(st.integers(0, 40), st.integers(0, 40)),
                           st.integers(-10**6, 10**6).filter(bool), min_size=1, max_size=4),
           st.sampled_from([0, 1, 2, 3, 5, 1000, 2**20, 10**6]))
    @example({(31, 31): 1}, 2)  # B^62 = 2^62: refused by bit length, as by the sum
    @example({(30, 31): 1}, 2)  # B^61 = 2^61: under the bound
    @example({(30, 31): 1, (0, 0): 2**62 - 2**61}, 2)  # at the bound only by the sum
    def test_value_check_refuses_exactly_where_the_sum_reaches_2_62(self, terms, B):
        F = MultiPoly(2, terms)
        exact = sum(abs(c) * max(B, 1) ** sum(e) for e, c in F.terms.items()) >= 2**62
        try:
            boxes._check_values(F, B)
        except OverflowError:
            assert exact
        else:
            assert not exact

class TestValueTable:
    def test_lookup_agrees_with_root_isolation(self):
        # spec invariant: table lookups match direct integer-root solving
        rng = np.random.default_rng(4)
        for f_text in ("T^2", "T^3", "T^3-3*T", "2*T^3+1", "T^4+T", "T^2-1000000",
                       "-T^3+T+20000"):  # the last two come back to the window far out
            f = parse_unipoly(f_text)
            vals = rng.integers(-25000, 25001, size=2500)
            mask = in_h_image(f, vals)
            for v, hit in zip(vals, mask):
                root = integer_root_of(f, int(v))
                assert (root is not None) == bool(hit), (f_text, v)
                if root is not None:
                    assert f.eval(root) == v

    def test_counts_charge_the_image_walk(self):
        # v_max = 300: T^2 is walked over |t| <= ceil(2 sqrt(300 / 2)) + 1 = 26
        f, hist = parse_unipoly("T^2"), box_histogram(F_QUADRIC, 10)
        with pytest.raises(BudgetExceeded, match="image walk of 53 points"):
            exact_count(f, hist, budget=52)
        with pytest.raises(BudgetExceeded, match="image walk of 53 points"):
            sieve_filtered_count(f, hist, [], budget=52)
        assert exact_count(f, hist, budget=53) == sieve_filtered_count(f, hist, [], 53).count \
            == per_point_count(f, F_QUADRIC, 10)


class TestSieveFilteredCount:
    def test_equals_brute_across_radii(self):
        f = parse_unipoly("T^2")
        for B in (1, 5, 10):
            problem = BoxProblem(f, F_QUADRIC, B)
            primes = select_primes(problem).primes if B >= 5 else (3, 7)
            data = prime_data_for(f, primes)
            rec = sieve_filtered_count(f, box_histogram(F_QUADRIC, B), data)
            assert rec.count == rec.exact == per_point_count(f, F_QUADRIC, B)

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

    def test_window_data_is_charged_before_it_is_built(self, monkeypatch):
        # B = 100: the window [47, 92] holds 47 + 53 + ... + 89 = 682 points of prime data
        monkeypatch.setattr(sieve, "build_prime_data", lambda *a: pytest.fail("built"))
        problem = BoxProblem(parse_unipoly("T^2"), F_QUADRIC, 100)
        with pytest.raises(BudgetExceeded, match="prime data of 682 points exceeds budget 681"):
            select_primes(problem, budget=681)
        monkeypatch.undo()
        assert select_primes(problem, budget=682).primes == (47, 53, 59, 61, 67, 71, 73, 79,
                                                              83, 89)

    def test_carries_the_prime_data_it_built(self):
        f = parse_unipoly("T^3")
        sel = select_primes(BoxProblem(f, F_QUADRIC, 100))
        assert tuple(d.p for d in sel.prime_data) == sel.primes
        for got, want in zip(sel.prime_data, prime_data_for(f, sel.primes)):
            assert (got.d, got.image_size) == (want.d, want.image_size)
            assert np.array_equal(got.exceptional, want.exceptional)
            assert np.array_equal(got.image, want.image) and np.array_equal(got.nu, want.nu)
        assert sel == dataclasses.replace(sel, prime_data=())  # no part of equality

    def test_nondiagonal_is_semi_decided(self):
        F = parse_multipoly("X0^2+X1^2+X2^2+X0*X1")
        sel = select_primes(BoxProblem(parse_unipoly("T^2"), F, 30))
        assert sel.semi_decided

    def test_nondiagonal_window_at_B_2000_is_certified(self):
        # each p is certified by the 3 x 3 Hessian; the walk over P^2(F_{p^2})
        # would need about p^4 > 6 * 10^10 evaluations.  A budget of the window's
        # prime data, sum p = 54,093 points, admits it and each matrix, and no
        # grid at all (P^2(F_499) alone has 249,501 points); one point less is refused.
        F = parse_multipoly("X0^2+X0*X1+X2^2")
        problem = BoxProblem(parse_unipoly("T^2"), F, 2000)
        assert sum(primes_in(497, 993)) == 54093
        sel = select_primes(problem, budget=54093)
        assert sel.window == (497, 993) and sel.semi_decided
        assert sel.primes == tuple(primes_in(497, 993)) and len(sel.primes) == 73
        with pytest.raises(BudgetExceeded, match="prime data of 54093 points"):
            select_primes(problem, budget=54092)

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
        got = exceptional_set(f, data, v_max)
        assert got.dtype == np.int64 and got.tolist() == [0]

    def test_matches_direct_recount(self):
        f = parse_unipoly("T^3-3*T")
        primes = (7, 11, 13, 17)
        data = prime_data_for(f, primes)
        got = exceptional_set(f, data, v_max=500)
        P, d = len(primes), f.degree
        expected = []
        for k in range(-500, 501):
            hits = sum(1 for dd in data if dd.exceptional[k % dd.p])
            if hits >= P / (2 * d):
                expected.append(k)
        assert got.dtype == np.int64 and got.tolist() == expected

    def test_impossible_threshold_empty(self):
        f = parse_unipoly("T^2")
        data = prime_data_for(f, (13,))
        # with one prime the lemma threshold is 1/4, met whenever 13 | k;
        # against v_max < 13 only k = 0 remains, and dropping it empties S
        got = exceptional_set(f, data, v_max=12)
        assert got.tolist() == [0]

    def test_range_charged_to_budget(self):
        f = parse_unipoly("T^2")
        data = prime_data_for(f, (13,))
        with pytest.raises(BudgetExceeded):
            exceptional_set(f, data, v_max=10**6, budget=10**5)


class TestDiscriminantProfile:
    def test_spec_examples(self):
        # R_f(k) = Res_T(f - k, f') from the sieve's kernel, with its prime count
        R2 = critical_value_poly(parse_unipoly("T^2"))
        assert R2.eval(6) == -24 and prime_factors(24) == [2, 3]
        assert R2.eval(0) == 0  # 0 is the critical value of T^2
        r = critical_value_poly(parse_unipoly("T^3")).eval(1)
        assert r == 27 and prime_factors(r) == [3]

    def test_exceptional_residues_divide_the_discriminant(self):
        # hitting the exceptional set mod p forces a repeated root of
        # f - k mod p, so p divides Res(f - k, f') = +-lc(f) disc(f - k); this
        # is what keeps the exceptional set small relative to the value range
        for f_text in ("T^2", "T^3", "T^3-3*T", "2*T^3+1", "T^4+T"):
            f = parse_unipoly(f_text)
            data = prime_data_for(f, [p for p in primes_in(f.degree + 1, 40)
                                      if f.lc % p != 0])
            for k in range(-30, 31):
                disc = resultant_uni(f.sub_const(k), f.derivative())
                for d in data:
                    if d.exceptional[k % d.p]:
                        assert disc % d.p == 0, (f_text, k, d.p)


class TestCompleteSums:
    def test_full_sum_of_ones(self):
        f5 = ExtField(5)
        F = parse_multipoly("X0^2+X1^2")
        assert complete_sum_g(F, constant_trace(f5), (0, 0), 5) == \
            pytest.approx(25)

    def test_legendre_quadric_example(self):
        f3 = ExtField(3)
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
            t = kloosterman(2, ExtField(p))
            grouped = complete_sum_g(F, t, (0, 0), p)
            direct = 0j
            for x in range(p):
                for y in range(p):
                    direct += t.values[F.eval_mod((x, y), p)]
            assert abs(grouped - direct) <= 1e-6 * max(1, abs(direct))

    def test_table_matches_pointwise(self):
        p = 7
        t = kloosterman(2, ExtField(p))
        table = complete_sum_table(F_QUADRIC, t.values, p)
        for u in ((0, 0, 0), (1, 2, 3), (6, 0, 5)):
            assert table[u] == pytest.approx(complete_sum_g(F_QUADRIC, t, u, p),
                                             abs=1e-9)

    def test_twisted_sum_python_loop_oracle(self):
        # pure-Python enumeration pins the phase conventions
        import cmath

        p = 5
        F = parse_multipoly("X0^2 + 2*X0*X1 + 3*X1^2")
        t = kloosterman(2, ExtField(p))
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
                               mult_char(ExtField(3), 2, 1),
                               mult_char(ExtField(5), 2, 1))
        assert rec["error"] <= 1e-9

    def test_constant_traces_exact(self):
        F = parse_multipoly("X0^2+X1^2")
        rec = crt_factor_check(F, (2, 3), 3, 7,
                               constant_trace(ExtField(3)),
                               constant_trace(ExtField(7)))
        assert rec["rel_error"] <= 1e-12

    def test_u_zero_reduces_componentwise(self):
        F = parse_multipoly("X0^2+X1^2")
        t3 = kloosterman(2, ExtField(3))
        t5 = kloosterman(2, ExtField(5))
        rec = crt_factor_check(F, (0, 0), 3, 5, t3, t5)
        g1 = complete_sum_g(F, t3, (0, 0), 3)
        g2 = complete_sum_g(F, t5.conj(), (0, 0), 5)
        assert rec["lhs"] == pytest.approx(g1 * g2, abs=1e-9)

    def test_equal_primes_rejected(self):
        F = parse_multipoly("X0^2+X1^2")
        t = constant_trace(ExtField(5))
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
                                   kloosterman(2, ExtField(p)),
                                   mult_char(ExtField(q), 2, 1))
            assert rec["rel_error"] <= 1e-6

    def test_plan_is_charged_before_the_pq_table(self):
        # N = pq = 10403: X0*X1 absorbs the s-sum, (N^2 + N) points for its one row,
        # and X2^2 gives one row of N; the table of t_p conj(t_q) alone is 16 N bytes
        F, N = parse_multipoly("X0*X1+X2^2"), 101 * 103
        t_p, t_q = trace_on("kl", 101), trace_on("kl", 103)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded, match=f"complete sums of {N * N + 2 * N} points"):
                crt_factor_check(F, (1, 2, 3), 101, 103, t_p, t_q, budget=N * N + 2 * N - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * N


class TestSmoothWeight:
    def test_center_value(self):
        assert SmoothWeight(10).weight_1d(0.0) == pytest.approx(math.exp(-1))

    def test_support_boundary(self):
        W = SmoothWeight(10)
        assert W.weight_1d(10.0) == 0.0
        assert np.prod(W.weight_1d([0.0, -10.0, 3.0])) == 0.0

    def test_poisson_identity_1d(self):
        # sum_m w(m/B) = sum_u B wh(B u) over the integers, the dual side cut at |u| <= 4 B
        W = SmoothWeight(10)
        direct = W.weight_1d(np.arange(-10, 11)).sum()
        dual = 10 * W.wh(10 * np.arange(-40, 41)).sum()
        assert abs(direct - dual) <= 1e-6 * abs(direct)

    def test_envelope_dominates(self):
        W = SmoothWeight(10)
        for xi in (0.5, 1.0, 2.0, 5.0, 12.0, 30.0):
            assert abs(W.wh(xi)) <= W.wh_bound(xi) + 1e-15

    def test_transform_is_product(self):
        W = SmoothWeight(5)
        v = np.array([0.3, 0.7])
        assert np.prod(5 * W.wh(5 * v)) == pytest.approx(
            (5 * W.wh(5 * 0.3)) * (5 * W.wh(5 * 0.7)))

    # ||w^(k)||_1 and wh(xi) to 40 digits (mpmath quadrature); ||w'||_1 = 2/e
    @pytest.mark.parametrize("k, norm", [(1, 0.73575888234288464), (2, 3.1937190073343982),
                                         (3, 35.647219909686182), (4, 1076.1291030400639),
                                         (6, 5316586.6635335847)])
    def test_derivative_norms_pinned_and_rounded_up(self, k, norm):
        assert norm <= _bump_derivative_l1(k) <= norm * (1 + 1e-12)

    def test_transform_pinned(self):
        xis = [0.0, 0.3, 2.7, 11.0, 40.0]
        want = [0.443993816168079438, 0.331034443337397083, 0.00284019872415586296,
                -2.40325283210146937e-5, -1.14992900384800257e-9]
        W = SmoothWeight(10)
        for xi, value in zip(xis, want):
            assert isinstance(W.wh(xi), float)
            assert abs(W.wh(xi) - value) <= 1e-15
        assert np.abs(W.wh(np.array(xis)) - want).max() <= 1e-15
        assert want[0] <= W.wh_bound(0.0) <= want[0] + W.wh_error(0.0)

    def test_node_count_follows_the_frequency(self):
        # 4096 fixed nodes would alias wh(2048) onto wh(0)
        W = SmoothWeight(10)
        assert abs(W.wh(2048)) <= W.wh_bound(2048) + W.wh_error(2048)
        assert W.wh_error(2048) < 1e-12


class TestPoissonCompare:
    def test_pure_identity_with_trivial_traces(self):
        rec = poisson_compare(F_QUADRIC, 3, 5,
                              constant_trace(ExtField(3)),
                              constant_trace(ExtField(5)),
                              B=10, u_cutoff=8)
        assert rec["error"] <= rec["tail_bound"] + 1e-6

    def test_legendre_agreement(self):
        rec = poisson_compare(F_QUADRIC, 3, 5,
                              mult_char(ExtField(3), 2, 1),
                              mult_char(ExtField(5), 2, 1),
                              B=10, u_cutoff=8)
        assert rec["error"] <= rec["tail_bound"] + 1e-6

    def test_auto_cutoff_targets_small_tail(self):
        t3 = mult_char(ExtField(3), 2, 1)
        t5 = mult_char(ExtField(5), 2, 1)
        rec = poisson_compare(F_QUADRIC, 3, 5, t3, t5, B=10)
        W = SmoothWeight(10)
        main_scale = (10 * W.wh(0.0)) ** 3  # sup bounds are 1 here
        assert rec["tail_bound"] <= 1e-4 * main_scale
        assert rec["error"] <= rec["tail_bound"] + 1e-6

    def test_box_values_overflow_guarded(self):
        F = parse_multipoly("2305843009213693952*X0^2+X1^2+X2^2")  # 2^61 X0^2
        with pytest.raises(OverflowError):
            poisson_compare(F, 3, 5, constant_trace(ExtField(3)),
                            constant_trace(ExtField(5)), B=2, u_cutoff=2)

    def test_cutoff_zero_semantics(self):
        t3 = mult_char(ExtField(3), 2, 1)
        t5 = mult_char(ExtField(5), 2, 1)
        rec = poisson_compare(F_QUADRIC, 3, 5, t3, t5, B=10, u_cutoff=0)
        W = SmoothWeight(10)
        g0 = complete_sum_g(F_QUADRIC, t3, (0, 0, 0), 3) \
            * complete_sum_g(F_QUADRIC, t5.conj(), (0, 0, 0), 5)
        expected = g0 * np.prod(10 * W.wh(10 * np.zeros(3))) / 15**3
        assert rec["poisson"] == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("p, q, B, cutoff, budget, cost", [
        (11, 13, 3 * 10**6, None, 10**8, 257 * 2**23),  # the auto search's window
        (3, 5, 100, 1000, 2000, 2001 * 2**14 + 594),     # the window past the box arrays
    ])
    def test_window_grid_is_charged_before_it_is_built(self, monkeypatch, p, q, B, cutoff,
                                                       budget, cost):
        # wh's trapezoid grid has len(xi) rows of N/2 nodes, N >= 4 max|xi| a power of two;
        # past it, 594 = grids 201 + 201, one cyclic fold of 15 cells (its 15 * 15 pairs
        # reach pq = 15), and the dual side's 15 pairs * 5 + 27 + 75
        monkeypatch.setattr(SmoothWeight, "wh", lambda *a: pytest.fail("built the window"))
        F = parse_multipoly("X0^2+X1^2")
        with pytest.raises(BudgetExceeded, match=f"Poisson arrays of {cost} points"):
            poisson_compare(F, p, q, trace_on("chi", p), trace_on("chi", q), B, cutoff, budget)


class TestSumBounds:
    def test_good_u_kloosterman_ratio_bounded(self):
        # quadric family, Kl_2, good frequencies: |g|/p^1.5 stays under 20
        rng = np.random.default_rng(31)
        worst = 0.0
        for p in primes_in(5, 61):
            t = kloosterman(2, ExtField(p))
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
            leg = mult_char(ExtField(p), 2, 1)
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

    @pytest.mark.parametrize("grid, match", [([1, 5], "B = 1"), ([5, 0], "B = 0"),
                                             ([5, -3], "B = -3"), ([], "empty")])
    def test_bad_grid_refused_before_any_count(self, grid, match, monkeypatch):
        # log B = 0 at B = 1 and is undefined below; an empty grid has no spread
        monkeypatch.setattr(boxes, "box_histogram", lambda *a: pytest.fail("counted"))
        with pytest.raises(ValueError, match=match):
            bound_ratio_scan(parse_unipoly("T^2"), F_QUADRIC, grid)

    def test_small_grid_fields(self):
        out = bound_ratio_scan(parse_unipoly("T^2"), F_QUADRIC, [10, 20])
        assert list(out["table"]) == ["B", "count", "ratio_main", "ratio_comparison"]
        assert all(len(column) == 2 for column in out["table"].values())
        assert out["spread"] <= 10


# separable, mixed, non-separable, an absent variable with a constant term
GROUPED_FORMS = ["X0^2+2*X1^2+3*X2^2", "X0^2+X0*X1+X2^3", "X0*X1+X1*X2+X2^2",
                 "X0^3+X2^2+5", "2*X0^2+X1^3+X0*X1+1", "X0^2+X1*X2+X1^3"]


def trace_on(kind, p):
    field = ExtField(p)
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
            direct += np.prod(W.weight_1d(x)) * t_p.values[v % p] * np.conj(t_q.values[v % q])
        assert abs(rec["direct"] - direct) <= 1e-9 * max(1, abs(direct))

    def test_diagonal_cubic_at_p_10007(self):
        p = 10007
        F = parse_multipoly("X0^3+X1^3+2*X2^3")
        u = (1, 2, 3)
        field = ExtField(p)
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

    @staticmethod
    def _traced(call):
        """call() and the traced peak of a second, warm call."""
        call()
        tracemalloc.start()
        try:
            return call(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_non_separable_twist_streams_its_grid(self):
        # one group of three variables and the twist <u, x> of degree 1: the pushforward
        # streams the p^3 grid in slabs (4.1 MiB traced), where one N^m table traced 287 MiB
        p, u = 211, (1, 2, 3)
        F = parse_multipoly("X0^2+X0*X1+X1*X2+X2^2")
        t = trace_on("chi", p)
        got, peak = self._traced(lambda: complete_sum_g(F, t, u, p))
        assert peak < 16 * 2**20
        want = complete_sum_slices(F, t.values, u, p)
        assert abs(got - want) <= 1e-9 * max(1, abs(want))

    def test_crt_left_side_streams_its_grid(self):
        # mod pq = 221 the cubic's 221^3 grid is streamed in slabs (5.6 MiB traced), where
        # one N^m table traced 330 MiB; the oracle sums it one slice of 221^2 at a time
        p, q, u = 13, 17, (1, 2, 3)
        F = parse_multipoly("X0^3+X1^3+X2^3+X0*X1*X2")
        t_p, t_q = trace_on("kl", p), trace_on("kl", q)
        rec, peak = self._traced(lambda: crt_factor_check(F, u, p, q, t_p, t_q))
        assert peak < 16 * 2**20
        v = np.arange(p * q)
        table = t_p.values[v % p] * np.conj(t_q.values[v % q])
        want = complete_sum_slices(F, table, u, p * q)
        assert abs(rec["lhs"] - want) <= 1e-9 * max(1, abs(want))
        assert rec["rel_error"] <= 1e-9

    def test_composite_modulus_takes_the_grid(self, monkeypatch):
        # mod 35 the twist vanishes on the group {X0, X1}: (X0*X1, 0) are forms of one degree,
        # yet Z/35 is no field, so scaling classes do not push the group forward
        F, p, q = parse_multipoly("X0*X1+X2^2"), 5, 7
        t_p, t_q = trace_on("kl", p), trace_on("kl", q)
        want = crt_lhs_grid(F, (0, 0, 1), p, q, t_p.values, t_q.values)
        for u in [(0, 0, 1), (35, 70, 1)]:
            got = crt_factor_check(F, u, p, q, t_p, t_q)["lhs"]
            assert abs(got - want) <= 1e-9 * max(1, abs(want)), u
        # with the guard lifted the class pass runs at 35: its coset labels of (Z/35)^* are
        # not the d + 1 rows it counts into
        monkeypatch.setattr(varieties, "is_prime", lambda n: True)
        with pytest.raises(ValueError):
            crt_factor_check(F, (0, 0, 1), p, q, t_p, t_q)

    def test_one_frequency_takes_no_window_spectra(self, monkeypatch):
        # complete_sums serves the Poisson window alone; one u, mod p or mod pq, is a twist
        calls, real = [], varieties.complete_sums

        def spy(F, t_values, N, *args):
            calls.append(N)
            return real(F, t_values, N, *args)

        for module in (boxes, varieties):
            monkeypatch.setattr(module, "complete_sums", spy)
        F, t5, t7 = parse_multipoly("X0*X1+X2^2"), trace_on("kl", 5), trace_on("kl", 7)
        complete_sum_g(F, t5, (1, 2, 3), 5)
        crt_factor_check(F, (1, 2, 3), 5, 7, t5, t7)
        assert calls == []
        poisson_compare(F, 5, 7, t5, t7, B=4, u_cutoff=2)
        assert sorted(calls) == [5, 7]

    def test_budget_charges_group_grids(self):
        p = 101
        t = kloosterman(2, ExtField(p))
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
                # grids 9^2 + 9; the fold's min(81, 35) * 9 pairs reach 35, so it is one
                # cyclic product of 35 cells; window pass 7 pairs * 7^2; X0*X1 absorbs
                # the s-sum, (5^2 + 5) * 5 and (7^2 + 7) * 7; X2^2 rows 5 * 5 and 7 * 7;
                # the window's trapezoid grid, 7 rows * 4096 / 2 nodes: 1084 + 14336
                poisson_compare(F, 5, 7, trace_on("kl", 5), trace_on("kl", 7), B=4,
                                u_cutoff=3, budget=15419)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16  # refused before any grid was built
        poisson_compare(F, 5, 7, trace_on("kl", 5), trace_on("kl", 7), B=4,
                        u_cutoff=3, budget=15420)

    def test_budget_bounds_the_fold_pairs(self, monkeypatch):
        # four groups of 121 points mod 143: 121 * 121 pairs reach 143 at the first fold,
        # so each fold is a cyclic product of 143 cells, none sorts pairs, and the charge
        # is the grids 4 * 121 and 3 * 143 cells, not the 121^4 points of the box, plus the
        # dual side: 9 pairs * 9^3, (11 + 11) * 9^3 + 3 * 11 * 9 and (13 + 13) * 9^3
        # + 3 * 13 * 9, and the window's 9 rows * 4096 / 2 nodes: 913 + 60633
        real = boxes._fold
        monkeypatch.setattr(boxes, "_fold", lambda a, b: pytest.fail("sorted the pairs"))
        F = parse_multipoly("X0^2+X1^2+X2^2+X3^2")
        args = F, 11, 13, trace_on("chi", 11), trace_on("chi", 13)
        with pytest.raises(BudgetExceeded, match="Poisson arrays of 61546 points"):
            poisson_compare(*args, B=60, u_cutoff=4, budget=61545)
        poisson_compare(*args, B=60, u_cutoff=4, budget=61546)
        # at pq near 10^6 and B = 3 the folds stay sorted pairs: four groups of 7 points,
        # 4 values each mod pq, 4, 10 and 19 sums so far, within min(points so far, pq) * 7
        pairs = []
        monkeypatch.setattr(boxes, "_fold",
                            lambda a, b: pairs.append(len(a[0]) * len(b[0])) or real(a, b))
        p, q = 997, 1009
        poisson_compare(F, p, q, trace_on("chi", p), trace_on("chi", q), B=3, u_cutoff=1)
        assert pairs == [16, 40, 76]
        assert all(n <= bound for n, bound in zip(pairs, [7 * 7, 49 * 7, 343 * 7]))

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


POISSON_FORMS = ["X0^2+X1^2", "X0*X1", "X0^2+2*X1^2-X2^2", "X0^3+X1^3+2*X2^3", "X0*X1+X2^2",
                 "X0^2+X0*X1+X1*X2-X2^2", "X0^2+X1^2+X2^2+X3^2", "X0*X1+X2*X3",
                 "X0^2+X1*X2*X3", "X0^4-X1^4+X2^2*X3^2"]


def forced_folds(mp, method):
    """Patch the fold choice of poisson_compare: "pairs" or "cyclic" for every fold,
    or None to leave it; a forced cyclic run may sort no pairs."""
    real = boxes._fold_pairs
    if method == "pairs":
        mp.setattr(boxes, "_fold_pairs",
                   lambda grids, N: [N if n is None else n for n in real(grids, N)])
    elif method == "cyclic":
        mp.setattr(boxes, "_fold_pairs", lambda grids, N: [None] * (len(grids) - 1))
        mp.setattr(boxes, "_fold", lambda a, b: pytest.fail("sorted the pairs"))


class TestPoissonBoxSide:
    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(POISSON_FORMS), st.sampled_from([(2, 3), (3, 5), (5, 7), (11, 13)]),
           st.integers(1, 4), st.sampled_from([None, "pairs", "cyclic"]),
           st.sampled_from(["kl", "chi", "psi"]))
    @example("X0^2+X1^2+X2^2+X3^2", (11, 13), 4, None, "kl")    # pairs, then cyclic
    @example("X0^2+2*X1^2-X2^2", (2, 3), 4, None, "chi")        # cyclic at once
    @example("X0*X1", (3, 5), 3, "cyclic", "kl")                # one group: no fold
    def test_direct_matches_the_point_sum(self, form, pq, B, method, kind):
        F = parse_multipoly(form)
        p, q = pq
        t_p, t_q = trace_on(kind, p), trace_on("kl", q)
        with pytest.MonkeyPatch.context() as mp:
            forced_folds(mp, method)
            rec = poisson_compare(F, p, q, t_p, t_q, B=B, u_cutoff=1)
        want = poisson_direct_grid(F, p, q, t_p.values, t_q.values, B)
        assert abs(rec["direct"] - want) <= 1e-9 * max(1, abs(want))

    def test_fold_choice_follows_the_pairs(self):
        # groups of 7, 7, 7 points mod 143: 7 * 7 pairs, then min(49, 143) * 7 = 343;
        # pairs that equal N go cyclic
        assert boxes._fold_pairs([7, 7, 7], 143) == [49, None]
        assert boxes._fold_pairs([5, 7], 35) == [None] and boxes._fold_pairs([5, 6], 35) == [30]
        assert boxes._fold_pairs([7] * 4, 997 * 1009) == [49, 343, 2401]
        assert boxes._fold_pairs([81], 35) == []

    # the parent's auto cutoffs, tail bounds and sums (kl:2 unless named)
    @pytest.mark.parametrize("form, p, q, B, kind, cutoff, tail, poisson", [
        ("X0^2+X1^2+X2^2", 3, 5, 10, "kl", 68, 0.03230003208079779,
         5.74388730913382 - 2.47485017228997e-15j),
        ("X0^2+X0*X1+X2^2", 5, 7, 60, "chi", 16, 1.7732953154845745,
         395.53585041845975 + 2.7679576880237095e-15j),
        ("X0^2+2*X1^2+X2^2", 11, 13, 30, "kl", 128, 169.34563099732623,
         35.99154342319029 + 6.911513199168608e-15j),
        ("X0^2+X1^2+X2^2+X3^2", 5, 7, 12, "psi", 128, 2.9940055515107815,
         0.32715372804111426 + 0.1798922663808976j),
    ])
    def test_auto_cutoff_is_pinned(self, form, p, q, B, kind, cutoff, tail, poisson):
        rec = poisson_compare(parse_multipoly(form), p, q, trace_on(kind, p), trace_on(kind, q), B)
        assert rec["u_cutoff"] == cutoff
        assert abs(rec["tail_bound"] - tail) <= 1e-12 * tail
        assert abs(rec["poisson"] - poisson) <= 1e-12 * abs(poisson)

    @pytest.mark.parametrize("B, N, c", [(30, 143, 128), (10, 15, 8), (1000, 10403, 40)])
    def test_window_is_wh_at_each_frequency(self, B, N, c):
        # one trapezoid sum per |u|, and the node count of the widest frequency throughout
        W = SmoothWeight(B)
        xi = B * np.arange(-c, c + 1) / N
        window = W.wh(xi)
        assert window.shape == xi.shape and np.array_equal(window, window[::-1])
        assert all(abs(w - W.wh(x)) <= 1e-15 for w, x in zip(window, xi))
