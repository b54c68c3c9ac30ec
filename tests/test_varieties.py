import itertools
import time
import tracemalloc
from functools import lru_cache, reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polysieve import convolve, polynomials, varieties
from polysieve.convolve import fold, wrap
from polysieve.errors import BudgetExceeded, InvariantViolation
from polysieve.fields import cached_field, mult_char, primes_in
from polysieve.polynomials import MultiPoly, parse_multipoly
from polysieve.varieties import (DEFAULT_BUDGET, ScanResult, UClass, Witness, _certify,
                                 _kernel_basis, _smoothness_walk, classify_u, complete_sums,
                                 diagonal_u_classes, diagonal_witness_degree, dual_polynomial,
                                 fiber_histogram, group_pushforwards, mixed_sum,
                                 smoothness_scan)

from _oracles import (TupleField, classify_u_direct, complete_sum_table,
                      complete_sums_one_pass, diagonal_dual_oracle, fiber_histogram_direct, mixsum_grid,
                      pair_fiber_histogram_grid, smoothness_scan_direct)

REDUCIBLE_QUARTIC = ("3*X0*X2^3+2*X0*X1*X2^2-3*X0*X1^2*X2+2*X0*X1^3+2*X0^2*X2^2+2*X0^3*X2"
                     "+X0^3*X1")


class TestFiberCounts:
    def test_spec_examples(self):
        assert fiber_histogram(parse_multipoly("X0^2+X1^2"), 5)[0] == 9
        assert fiber_histogram(parse_multipoly("X0", n_vars=1), 7)[3] == 1

    def test_pair_marginal_identity_all_fibers(self):
        F = parse_multipoly("X0^2+X1^2+X2^2")
        G = parse_multipoly("X0*X1", n_vars=3)
        pair = fiber_histogram(F, 7, G)
        single = fiber_histogram(F, 7)
        assert pair.shape == (7, 7)
        assert np.array_equal(pair.sum(axis=1), single)

    def test_histogram_total(self):
        F = parse_multipoly("X0^3+X1^3+X2^3")
        for p in (5, 7, 11):
            assert fiber_histogram(F, p).sum() == p**3

    def test_budget(self):
        # one group: its p^3 grid is past the budget
        with pytest.raises(BudgetExceeded):
            fiber_histogram(parse_multipoly("X0*X1+X1*X2"), 101, budget=10**4)
        # three groups: their p-point grids, the p cells of each group's bincount
        # (a pair charges its p^2 cells per block), and two folds of
        # 2p - 1 = 201 cells, each padded to the 5-smooth 216 = 2^3 3^3
        F, p = parse_multipoly("X0^2+X1^2+X2^2"), 101
        cost = 3 * (p + p) + 2 * 216
        assert fiber_histogram(F, p, budget=cost).sum() == p**3
        with pytest.raises(BudgetExceeded, match=f" {cost} points"):
            fiber_histogram(F, p, budget=cost - 1)

    def test_ternary_quadric_at_a_large_prime(self):
        # N(0) = p^2 and N(a) = p^2 + p eta(-a) for a != 0, eta the Legendre symbol
        p = 100003
        start = time.perf_counter()
        hist = fiber_histogram(parse_multipoly("X0^2+X1^2+X2^2"), p)
        assert time.perf_counter() - start < 1.0
        square = np.zeros(p, dtype=bool)
        square[np.arange(1, p) ** 2 % p] = True
        want = p * p + p * np.where(square[-np.arange(p) % p], 1, -1)
        want[0] = p * p
        assert np.array_equal(hist, want)

    def test_deviation_scale_stable_over_primes(self):
        # normalized deviations stay bounded and do not drift upward
        for F in (parse_multipoly("X0^2+X1^2+X2^2"),
                  parse_multipoly("X0^3+X1^3+X2^3")):
            by_prime = {}
            for p in primes_in(5, 97):
                hist = fiber_histogram(F, p)
                devs = np.abs(hist[1:] - p**2)  # a != 0: smooth closures
                by_prime[p] = devs.max() / p
            small = max(v for pp, v in by_prime.items() if pp <= 47)
            large = max(v for pp, v in by_prime.items() if pp > 47)
            assert large <= small + 1.0
            assert max(by_prime.values()) <= 10


@st.composite
def fiber_inputs(draw):
    """(F, p) with p <= 13, at most 3 variables; diagonal or free-form F."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    m = draw(st.integers(1, 3))
    coeff = st.integers(-4, 4).filter(bool)
    if draw(st.booleans()):
        d = draw(st.integers(1, 4))
        terms = {tuple(d if j == i else 0 for j in range(m)): draw(coeff)
                 for i in range(m)}
    else:
        # free monomials: separable, partly separable or not, with
        # absent variables and constant terms all reachable
        every = list(itertools.product(range(4), repeat=m))
        monos = draw(st.lists(st.sampled_from(every), min_size=1, max_size=4,
                              unique=True))
        terms = {e: draw(coeff) for e in monos}
    return MultiPoly(m, terms), p


class TestFiberHistogramProperty:
    @settings(max_examples=120)
    @given(fiber_inputs())
    @example((parse_multipoly("X0^2+2*X1^2+3*X2^2"), 13))
    @example((parse_multipoly("X0*X1+X2^2"), 7))
    @example((parse_multipoly("X0*X1+X1*X2+X0^2*X2"), 5))
    @example((parse_multipoly("X0^2+X2^3"), 11))  # X1 absent
    @example((parse_multipoly("X0*X1+3"), 5))
    @example((parse_multipoly("X0^2+X1^2+X2^2"), 2))
    def test_grouped_matches_nested_loops(self, case):
        F, p = case
        hist = fiber_histogram(F, p)
        assert hist.dtype == np.int64
        assert hist.tolist() == fiber_histogram_direct(F.terms, F.n_vars, p)

    @pytest.mark.parametrize("form, N, freqs", [
        ("X0*X1+2*X1^2+1", 5, [[0, 7, -3], [2]]),           # 3 rows <= N
        ("X0*X1+2*X1^2+1", 5, [[0, 1, 2, 3], [4, -1, 0]]),  # 12 distinct rows > N
        ("X0^3", 7, [[-2, -1, 0, 1, 2, 5]]),                # repeated residues
        ("3*X0^2+X0", 6, [[1, 2, 3, 4, 5, 0, 1]]),          # composite N, 7 > 6 rows
    ])
    def test_group_pushforwards_match_loops(self, form, N, freqs):
        sub = parse_multipoly(form)
        got = group_pushforwards(sub, freqs, N)
        rows = list(itertools.product(*freqs))
        assert got.shape == (len(rows), N)
        for j, u in enumerate(rows):
            want = np.zeros(N, dtype=complex)
            for a in itertools.product(range(N), repeat=sub.n_vars):
                phase = np.exp(2j * np.pi * sum(x * y for x, y in zip(u, a)) / N)
                want[sub.eval_mod(a, N)] += phase
            assert np.abs(got[j] - want).max() < 1e-9, u

    def test_counts_past_int64_rejected(self):
        # 2^62 points: refused before any grid is built
        F = MultiPoly(62, {tuple(int(j == i) for j in range(62)): 1
                           for i in range(62)})
        with pytest.raises(OverflowError):
            fiber_histogram(F, 2, budget=2**63)


class TestCompleteSums:
    @settings(max_examples=40)
    @given(st.sampled_from(["X0*X1+X2^2+X3^3", "X0^2+X1*X2*X3+1", "X0^3+X1^2+2*X2^2+X0*X3",
                            "X0^2+2*X1^2+X2*X3", "X1*X3+X2", "X0*X1*X2*X3"]),
           st.sampled_from([2, 3, 5]),
           st.lists(st.lists(st.integers(-9, 9), min_size=1, max_size=4),
                    min_size=4, max_size=4),
           st.integers(0, 2**32 - 1))
    def test_matches_full_table_on_any_residue_grid(self, form, p, freqs, seed):
        # axes of different lengths pin the variable order of the result
        F = parse_multipoly(form, n_vars=4)
        rng = np.random.default_rng(seed)
        t = rng.normal(size=p) + 1j * rng.normal(size=p)
        got = complete_sums(F, t, p, freqs)
        want = complete_sum_table(F, t, p)[np.ix_(*[np.asarray(f) % p for f in freqs])]
        assert got.shape == tuple(len(f) for f in freqs)
        assert np.abs(got - want).max() <= 1e-9 * max(1, np.abs(want).max())

    @pytest.mark.parametrize("form, N", [
        ("X0^2+X0*X1+X1*X2+X2^2", 101),   # one group: 8 slabs of up to 13 rows
        ("X0^2+X0*X1+X2^3", 101),         # a pair and a single
        ("X0^2+2*X1^2+3*X2^2", 211),      # separable: the top group is one variable
        ("X0^3+X1^3+X2^3+X0*X1*X2", 31),  # one slab
    ])
    def test_slabs_match_the_one_pass_table(self, form, N):
        F = parse_multipoly(form)
        rng = np.random.default_rng(N)
        t = rng.normal(size=N) + 1j * rng.normal(size=N)
        freqs = [rng.choice(N, size=17, replace=False).tolist() for _ in range(F.n_vars)]
        got = complete_sums(F, t, N, freqs)
        want = complete_sums_one_pass(F, t, N, freqs)
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()

    def test_top_group_is_streamed(self):
        # the one-pass N^3 table at N = 211 traces about 300 MiB
        F = parse_multipoly("X0^2+X0*X1+X1*X2+X2^2")
        freqs = [list(range(-8, 9))] * 3
        tracemalloc.start()
        try:
            complete_sums(F, mult_char(cached_field(211), 2, 1).values, 211, freqs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


@st.composite
def pair_inputs(draw):
    """(F, G, p): p <= 11, at most 4 variables; G free-form, linear or constant."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    m = draw(st.integers(1, 4))
    coeff = st.integers(-4, 4).filter(bool)
    every = list(itertools.product(range(3), repeat=m))

    def free():  # separable or not, absent variables and constants reachable
        monos = draw(st.lists(st.sampled_from(every), min_size=1, max_size=4, unique=True))
        return MultiPoly(m, {e: draw(coeff) for e in monos})

    kind = draw(st.sampled_from(["free", "linear", "constant"]))
    if kind == "free":
        G = free()
    elif kind == "linear":
        G = MultiPoly(m, {tuple(int(j == i) for j in range(m)): draw(coeff)
                          for i in draw(st.sets(st.integers(0, m - 1), min_size=1))})
    else:
        c = draw(st.integers(-4, 4))
        G = MultiPoly(m, {(0,) * m: c} if c else {})
    return free(), G, p


def _pair(F, G, m=None):
    F = parse_multipoly(F, n_vars=m)
    return F, parse_multipoly(G, n_vars=F.n_vars)


class TestPairHistogramsAndMixedSums:
    @settings(max_examples=150)
    @given(pair_inputs(), st.integers(0, 2**32 - 1))
    @example((*_pair("X0^2+X1^2+X2^2", "X0-X1"), 7), 0)          # G merges two groups: fold
    @example((*_pair("X0^2+X1^2+X2^2+X3^2", "X0+2*X2"), 5), 1)   # linear G, two blocks
    @example((*_pair("X0*X1+X2^2", "X0*X2+X1"), 5), 2)            # one joint group, no fold
    @example((*_pair("X0^2+X1^2", "X0*X1"), 11), 3)               # two variables: one block
    @example((*_pair("X0^2+X2^3+1", "X0+3", 4), 7), 4)             # absent X1 and X3, constants
    @example((*_pair("X0^3+X1*X2", "0"), 11), 5)                   # zero G
    @example((*_pair("X0^2+X1^2+X2^2+X3^2+X4^2+X5^2", "X0*X1+2"), 3), 6)  # three blocks
    # forms of one degree e mod p: one pass over the classes of P^(k-1), d = gcd(e, p - 1)
    @example((*_pair("X0^2+2*X1^2", "X0*X1"), 11), 7)             # e = 2, d = 2
    @example((*_pair("X0^3+X1^3", "X0*X1^2"), 7), 8)              # e = 3, d = 3
    @example((*_pair("X0^3+2*X1^3+X0*X1^2", "X0^2*X1"), 13), 9)   # e = 3, d = 3
    @example((*_pair("X0^4+X0*X1^3+3*X1^4", "X0^2*X1^2"), 13), 10)  # e = 4, d = 4
    @example((*_pair("X0^2+X1^2", "X0*X1"), 2), 11)               # p = 2: d = 1
    @example((*_pair("X0^3+X1^3+X0*X1^2", "X0^2*X1"), 3), 12)     # e = 3 at 3: d = 1
    @example((*_pair("X0^2+X1^2", "7*X0*X1"), 7), 13)             # twist zero mod p
    @example((*_pair("7*X0^2+7*X1^2", "X0*X1"), 7), 14)           # F zero mod p: the grid
    @example((*_pair("X0*X1", "X0^2+3*X1^2"), 11), 15)            # F(y) = 0 on two classes
    @example((*_pair("X0^2+X1*X2", "X0*X2"), 7), 16)              # a ternary group
    @example((*_pair("X0*X1+X2*X3", "X0*X3+X1*X2"), 5), 17)       # a quaternary group
    @example((*_pair("7*X0^3+X0*X1", "X1^2"), 7), 18)             # homogeneous only mod 7
    def test_match_full_grid(self, case, seed):
        F, G, p = case
        hist = fiber_histogram(F, p, G)
        assert hist.dtype == np.int64
        assert np.array_equal(hist, pair_fiber_histogram_grid(F, G, p))
        rng = np.random.default_rng(seed)
        t = rng.normal(size=p) + 1j * rng.normal(size=p)
        want = mixsum_grid(F, G, t, p)
        assert abs(mixed_sum(F, G, t, p) - want) <= 1e-9 * max(1.0, abs(want))

    @pytest.mark.parametrize("F, G, p, classes", [
        ("X0^2+2*X1^2", "X0*X1", 11, True),
        ("X0^2+X1^2", "7*X0*X1", 7, True),        # G zero mod p
        ("7*X0^3+X0*X1", "X1^2", 7, True),        # degree 2 mod 7
        ("X0*X1+X2*X3", "X0*X3+X1*X2", 5, True),
        ("7*X0^2+7*X1^2", "X0*X1", 7, False),     # F zero mod p
        ("X0^2+X1^2", "X0*X1+X0", 7, False),      # G not a form
        ("X0^2+X1^2", "X0^2*X1", 7, False),       # degrees 2 and 3
        ("X0^2+X1^3", "X0*X1", 7, False),         # F not a form
        ("X0^2+X1^2", "X0+X1", 7, False),         # groups of one variable
    ])
    def test_class_pass_takes_the_forms_of_one_degree(self, F, G, p, classes, monkeypatch):
        taken = "group_pushforwards" if classes else "_scaling_pushforward"
        monkeypatch.setattr(varieties, taken, lambda *a: pytest.fail(f"{taken} ran"))
        F, G = _pair(F, G)
        t = np.random.default_rng(p).normal(size=p)
        want = mixsum_grid(F, G, t, p)
        assert abs(mixed_sum(F, G, t, p) - want) <= 1e-9 * max(1.0, abs(want))

    def test_modulus_checked_before_any_build(self):
        F, G = _pair("X0^2+X1^2", "X0*X1")
        with pytest.raises(ValueError, match="9 is not prime"):
            mixed_sum(F, G, np.ones(9), 9)
        # past 2^31 residue products overflow int64, while p + 1 classes fit a large budget
        with pytest.raises(OverflowError, match="64-bit"):
            mixed_sum(F, G, np.ones(1), 2**31 + 11, budget=10**12)  # 2^31 + 11 is prime

    def test_linear_twist_is_the_complete_sum(self):
        # sum t(F(x)) e(<u, x>/p) two ways at p = 1009, where the grid has p^3 points
        p, (F, G) = 1009, _pair("X0^2+X1^2+X2^2", "X0+X1")
        t = np.random.default_rng(0).normal(size=p)
        tracemalloc.start()
        try:
            got = mixed_sum(F, G, t, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want = complete_sums(F, t, p, [[1], [1], [0]]).item()
        assert abs(got - want) <= 1e-9 * abs(want)
        assert peak < 2**20

    def test_separable_ternary_pair_builds_no_cube(self):
        p, (F, G) = 1009, _pair("X0^2+X1^2+2*X2^2", "X0-X1")
        tracemalloc.start()
        try:
            hist = fiber_histogram(F, p, G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20  # a p^3 int64 grid is 8 GB
        assert np.array_equal(hist.sum(axis=1), fiber_histogram(F, p, budget=p**3))
        assert (hist.sum(axis=0) == p**2).all()

    def test_one_group_twist_traces_no_more_than_the_grid(self):
        # the full-grid sum traced 47.7 MiB here, one pass over the p^2 grid 31.9 MiB,
        # slabs of about 2^17 points 5.1 MiB; the p + 1 classes of P^1 trace 0.15 MiB
        p, (F, G) = 1021, _pair("X0^2+2*X1^2", "X0*X1")
        t = mult_char(cached_field(p), 2, 1).values
        mixed_sum(F, G, t, p)
        tracemalloc.start()
        try:
            got = mixed_sum(F, G, t, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**19
        assert abs(got - mixsum_grid(F, G, t, p)) <= 1e-9 * max(1.0, abs(got))

    def test_one_group_twist_at_a_larger_prime_traces_a_few_slabs(self):
        # one pass over the p^2 grid traced 275 MiB at p = 3001, its slabs 5.3 MiB,
        # the p + 1 classes of P^1 0.44 MiB
        p, (F, G) = 3001, _pair("X0^2+2*X1^2", "X0*X1")
        t = mult_char(cached_field(p), 2, 1).values
        tracemalloc.start()
        try:
            got = mixed_sum(F, G, t, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        want = 414.29886268064445 + 1.890137957088789e-09j  # the one-pass sum
        assert abs(got - want) <= 1e-9 * abs(want)

    def test_budget_charges_group_grids_and_blocks(self):
        def pair_histogram(F, G, p, budget):
            return fiber_histogram(F, p, G, budget)

        p, t = 7, np.ones(7)
        cases = [
            (mixed_sum, _pair("X0^2+X1^2+X2^2", "X0+X1"), 3 * p + p, (t, p)),  # groups of 1
            # one group of forms of degree 2, d = gcd(2, p - 1) = 2: its p + 1 classes,
            # (d + 1) p cells and two length-p tables, then the sum
            (mixed_sum, _pair("X0^2+X1^2", "X0*X1"), (p + 1) + (2 + 3) * p + p, (t, p)),
            (pair_histogram, _pair("X0^2+X1^2", "X0*X1"), 2 * p**2, (p,)),
            # blocks {X0, X1} and {X2}: their grids, p^2 cells each, and one fold of
            # (2p - 1)^2 cells padded to 15^2
            (pair_histogram, _pair("X0^2+X1^2+X2^2", "X0-X1"),
             p**2 + p + 2 * p**2 + 15**2, (p,)),
        ]
        for fn, (F, G), cost, args in cases:
            fn(F, G, *args, budget=cost)
            with pytest.raises(BudgetExceeded, match=f" {cost} points"):
                fn(F, G, *args, budget=cost - 1)

    def test_fold_certificate_catches_a_wrong_cell(self, monkeypatch):
        F, G = _pair("X0^2+X1^2+X2^2", "X0-X1")
        real = np.fft.irfftn
        monkeypatch.setattr(convolve, "_CELL_COST", 0)  # the FFT path: shifted sums never cheaper

        def off(*shifts):
            def irfftn(*args, **kwargs):
                out = real(*args, **kwargs)
                for cell, d in shifts:
                    out[cell] += d
                return out
            return irfftn

        monkeypatch.setattr(np.fft, "irfftn", off(((1, 2), 1)))
        with pytest.raises(InvariantViolation, match="total"):
            fiber_histogram(F, 5, G)
        # the total still holds: only the checksum sees it
        monkeypatch.setattr(np.fft, "irfftn", off(((1, 2), 1), ((3, 0), -1)))
        with pytest.raises(InvariantViolation, match="checksum"):
            fiber_histogram(F, 5, G)

    @pytest.mark.parametrize("shape", [(7,), (2, 2), (5, 3), (4, 4, 2)])
    def test_cyclic_fold_matches_direct(self, shape):
        # the linear fold, wrapped mod each axis's length, is the cyclic product
        rng = np.random.default_rng(len(shape))
        parts = [rng.integers(0, 50, shape) for _ in range(3)]
        want = parts[0]
        for h in parts[1:]:
            acc = np.zeros(shape, dtype=np.int64)
            for idx in np.ndindex(shape):
                acc += h[idx] * np.roll(want, idx, axis=tuple(range(len(shape))))
            want = acc
        got = fold(parts)
        for ax, n in enumerate(shape):
            got = np.apply_along_axis(wrap, ax, got, n)
        assert np.array_equal(got, want)

    def test_fold_past_its_error_bound_refused(self, monkeypatch):
        # five separable variables at p = 1009: the last fold, of mass p^5, runs in limbs
        p, (F, G) = 1009, _pair("X0^2+X1^2+X2^2+X3^2+X4^2", "X0")
        hist = fiber_histogram(F, p, G)
        assert np.array_equal(hist.sum(axis=1), fiber_histogram(F, p))
        assert np.array_equal(hist.sum(axis=0), fiber_histogram(G, p))
        # 0/1 parts have no limbs: 3*10^6 cells of ones are refused before any transform
        monkeypatch.setattr(np.fft, "rfftn", lambda *args: pytest.fail("transform"))
        with pytest.raises(OverflowError, match="0/1 parts"):
            fold([np.ones(3 * 10**6, dtype=np.int64)] * 2)
        with pytest.raises(OverflowError, match="64-bit"):
            fold([np.full(2, 2**62)] * 2)


class TestSlabs:
    """The streamed kernels against the full-grid oracles, in slabs of a few points."""

    @settings(max_examples=120)
    @given(pair_inputs(), st.integers(1, 300), st.integers(0, 2**32 - 1))
    @example((*_pair("X0*X1+X1*X2", "X0+X2"), 7), 98, 0)  # rows 2, 2, 2 and 1 per slab
    @example((*_pair("X0*X1*X2", "X1*X2"), 7), 280, 1)    # rows 6 and 1
    @example((*_pair("X0*X1+X2*X3", "X1"), 5), 1, 2)       # one row per slab, blocks of 2
    # class-pass slabs hold at least the (d + 1) p cells, so only classes with two or more
    # free axes (k - 1 - lead >= 2) span several
    @example((*_pair("X0^2+X1*X2", "X0*X2"), 7), 1, 3)               # d = 2, 3 rows a slab
    @example((*_pair("X0^3+X1*X2^2", "X0*X1*X2"), 7), 5, 4)          # d = 3
    @example((*_pair("X0^3+X1^2*X2+X2^3", "X0^2*X2"), 13), 1, 5)     # d = 3
    @example((*_pair("X0^4+X1^3*X2+X2^4", "X0^2*X1*X2"), 13), 1, 6)  # d = 4
    @example((*_pair("X0^2+X1*X2", "X0*X1"), 2), 1, 7)               # p = 2: d = 1
    @example((*_pair("X0^3+X1^2*X2", "X0*X1*X2"), 3), 1, 8)          # e = 3 at 3: d = 1
    @example((*_pair("X0^2+X1*X2", "7*X0*X2"), 7), 1, 9)             # twist zero mod p
    @example((*_pair("7*X0^2+7*X1*X2", "X0*X2"), 7), 1, 10)          # F zero mod p: the grid
    @example((*_pair("X0*X1+X1*X2", "X0^2+X2^2"), 11), 1, 11)        # many zeros
    @example((*_pair("X0*X1+X2*X3", "X0*X3+X1*X2"), 5), 1, 12)       # a quaternary group
    @example((*_pair("7*X0^3+X0*X1+X2^2", "X1*X2"), 7), 1, 13)       # homogeneous only mod 7
    def test_fibers_and_mixed_sums_match_the_full_grid(self, case, slab, seed):
        F, G, p = case
        t = np.random.default_rng(seed).normal(size=p) + 0.5j
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(polynomials, "SLAB_POINTS", slab)
            single, pair, total = fiber_histogram(F, p), fiber_histogram(F, p, G), \
                mixed_sum(F, G, t, p)
        assert single.tolist() == fiber_histogram_direct(F.terms, F.n_vars, p)
        assert np.array_equal(pair, pair_fiber_histogram_grid(F, G, p))
        want = mixsum_grid(F, G, t, p)
        assert abs(total - want) <= 1e-9 * max(1.0, abs(want))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([
        ("4", "1", 5, []),                                           # no variables: one row
        ("X0^3+2*X0", "X0^2", 7, [[0, 1, 5, -1]]),                   # one variable, 4 rows
        ("X0*X1+X1*X2^2+X2", "X0*X2+X1", 5, [[0, 1], [2], [3, 4]]),  # three variables, 4 rows
        ("X0^2+X1*X2", "0", 6, [[1, 5], [0], [2, 3, 4]]),            # composite N, 6 rows
    ]), st.integers(1, 400))
    def test_group_pushforwards_match_a_direct_sum(self, case, slab):
        form, twist, N, freqs = case
        sub, tw = (parse_multipoly(x, n_vars=len(freqs)) for x in (form, twist))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(polynomials, "SLAB_POINTS", slab)
            got = group_pushforwards(sub, freqs, N, tw)
        rows = list(itertools.product(*freqs))
        assert got.shape == (len(rows), N)
        for j, u in enumerate(rows):
            want = np.zeros(N, dtype=complex)
            for a in itertools.product(range(N), repeat=sub.n_vars):
                expo = sum(x * y for x, y in zip(u, a)) + tw.eval_mod(a, N)
                want[sub.eval_mod(a, N)] += np.exp(2j * np.pi * expo / N)
            assert np.abs(got[j] - want).max() < 1e-9, u

    def test_slabs_are_whole_rows_with_a_shorter_last(self):
        def rows(*args):
            return [np.broadcast(*g).shape[0] for g in polynomials.grid_slabs(*args)]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(polynomials, "SLAB_POINTS", 21)
            assert [np.broadcast(*g).shape for g in polynomials.grid_slabs(7, 3)] \
                == [(1, 7, 7)] * 7
            # the fewest rows whose points, times width values each, reach
            # max(SLAB_POINTS, cells)
            assert rows(7, 2) == [3, 3, 1]
            assert rows(7, 2, 28) == [4, 3]
            assert rows(7, 2, 0, 2) == [2, 2, 2, 1]
            assert rows(7, 1) == [7]
            assert [len(g) for g in polynomials.grid_slabs(7, 0)] == [0]

    def test_ternary_fiber_histogram_traces_a_few_slabs(self):
        # one pass over the 211^3 grid traced 72.4 MiB
        F, p = parse_multipoly("X0^2+X0*X1+X1*X2+X2^2"), 211
        tracemalloc.start()
        try:
            hist = fiber_histogram(F, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert hist.sum() == p**3


class TestSmoothness:
    def test_smooth_quadric(self):
        res = smoothness_scan(parse_multipoly("X0^2+X1^2+X2^2"), 7, k_max=2)
        assert res.smooth and res.witness is None

    def test_nonreduced_is_singular(self):
        res = smoothness_scan(parse_multipoly("X0^2", n_vars=3), 5, k_max=1)
        assert not res.smooth
        x = res.witness.point
        assert x[0] == 0 and any(x)

    def test_char_divides_degree(self):
        with pytest.warns(UserWarning):
            res = smoothness_scan(parse_multipoly("X0^3+X1^3+X2^3"), 3, k_max=1)
        assert not res.smooth

    def test_requires_homogeneous(self):
        with pytest.raises(ValueError):
            smoothness_scan(parse_multipoly("X0^2+X1"), 5)

    def test_witness_only_in_extension(self):
        # x^2 - 2y^2 + ... : conic with no F_5 tangency issue; use a form
        # whose singular locus appears over F_25 only: (X0^2 - 2*X1^2)^2
        F = parse_multipoly("X0^4 - 4*X0^2*X1^2 + 4*X1^4 + 0*X2", n_vars=3)
        # = (X0^2 - 2 X1^2)^2, non-reduced along a conic split over F_25
        res1 = smoothness_scan(F, 5, k_max=1)
        res2 = smoothness_scan(F, 5, k_max=2)
        assert not res2.smooth
        assert res2.witness.ext_degree == 2 or not res1.smooth

    @pytest.mark.parametrize("k_max", [0, -1, 5, 6])
    def test_scans_reject_k_max_below_one(self, k_max, monkeypatch):
        # F_{p^5} has no tables: a cap past 4 is refused before any walk, like one below 1
        monkeypatch.setattr(varieties, "_smoothness_walk", lambda *a, **k: pytest.fail("walked"))
        F = parse_multipoly("X0^2+X1^2+X2^2")
        with pytest.raises(ValueError, match="k_max must be at least 1"):
            smoothness_scan(F, 5, k_max=k_max)
        with pytest.raises(ValueError, match="k_max must be at least 1"):
            classify_u(F, (1, 0, 0), 5, k_max=k_max)
        with pytest.raises(ValueError, match="k_max must be at least 1"):
            classify_u(F, (0, 0, 0), 5, k_max=k_max)  # the zero class too

    def test_proven_singularity_is_not_smooth(self):
        # F = X0 * cubic is singular where X0 = 0 = cubic; at these primes those points lie
        # past F_{p^2}, so the walk to k_max = 2 finds none, but at level 2 det M = 0 while
        # det A != 0, which proves Res = 0 mod p (and p does not divide deg F = 4)
        F = parse_multipoly(REDUCIBLE_QUARTIC)
        for p in (31, 43, 67, 79):
            assert [_certify(F.reduce_mod(p), p, j, 2)[0] for j in (1, 2)] == [None, False]
        for p in (31, 43):
            assert _smoothness_walk(F.reduce_mod(p), p, 2) == ScanResult(True, 2)
            assert smoothness_scan(F, p) == ScanResult(False, 2)
        # its section by X3 = 0 is F itself: bad, with no witness to report
        G = parse_multipoly(REDUCIBLE_QUARTIC + "+X3^4")
        assert classify_u(G, (0, 0, 0, 1), 31) == UClass("bad", k_max=2)
        with pytest.raises(ValueError, match="only a bad classification carries a witness"):
            UClass("good", Witness(1, (0, 0, 1)))


class TestClassifyU:
    def test_zero_type(self):
        F = parse_multipoly("X0^2+X1^2+X2^2")
        assert classify_u(F, (5, 10, 0), 5).kind == "zero"

    def test_bad_with_witness(self):
        F = parse_multipoly("X0^2+X1^2+X2^2")
        cls = classify_u(F, (1, 2, 0), 5)
        assert cls.kind == "bad"
        x = cls.witness.point
        assert F.eval_mod(x, 5) == 0
        # gradient parallel to u at the witness
        grads = [g.eval_mod(x, 5) for g in F.gradient()]
        u = (1, 2, 0)
        for i, j in itertools.combinations(range(3), 2):
            assert (grads[i] * u[j] - grads[j] * u[i]) % 5 == 0

    def test_good(self):
        F = parse_multipoly("X0^2+X1^2+X2^2")
        assert classify_u(F, (1, 0, 0), 5).kind == "good"


def projective_grid(p, k_max, dim):
    """Points of P^dim(F_{p^j}) summed over j <= k_max: the F evaluations of a scan."""
    return sum(sum(p**(j * e) for e in range(dim + 1)) for j in range(1, k_max + 1))


@lru_cache(maxsize=None)
def tuple_field(p, j):
    return TupleField.like(cached_field(p, j))


def section_walk(F, u, p, k_max, budget=DEFAULT_BUDGET):
    """classify_u without the certificate: the plain walk of the section
    F(sum s_r b_r) by <x, u> = 0, its witness s read back as x = sum s_r b_r
    in the tuple model of the field."""
    basis = _kernel_basis(u, p)
    res = _smoothness_walk(F.reduce_mod(p).substitute(basis), p, k_max, budget)
    if res.smooth:
        return UClass("good", k_max=k_max)
    tf = tuple_field(p, res.witness.ext_degree)
    x = [reduce(tf.add, [tf.mul(s, b[i]) for s, b in zip(res.witness.point, basis)], 0)
         for i in range(F.n_vars)]
    return UClass("bad", Witness(res.witness.ext_degree, tuple(x)), k_max)


class TestScanBudget:
    """Scans charge the walked form per grid point and each partial per survivor.

    A budget of twice the grid lies below the old charge of (1 + m) or
    (2 + m(m-1)/2) evaluations per grid point, so it used to be refused.
    The smooth and good cases run the grid walk itself: the public scans
    certify them by Macaulay's determinant before any grid is built.
    """

    @pytest.mark.parametrize("text, p, scan", [
        # smooth: both levels in full
        pytest.param("X0^2+X1^2+X2^2", 7, _smoothness_walk, id="X0^2+X1^2+X2^2-7"),
        # singular over F_9 only
        pytest.param("X0^2*X2-2*X1^2*X2+X2^3", 3, smoothness_scan, id="X0^2*X2-2*X1^2*X2+X2^3-3"),
    ])
    @pytest.mark.filterwarnings("ignore:p=")
    def test_smoothness_scan(self, text, p, scan):
        F = parse_multipoly(text)
        grid = projective_grid(p, 2, F.n_vars - 1)
        assert 2 * grid < (1 + F.n_vars) * grid
        assert scan(F, p, 2, budget=2 * grid) == scan(F, p, 2)
        with pytest.raises(BudgetExceeded):
            scan(F, p, 2, budget=grid - 1)

    @pytest.mark.parametrize("text, u, p, scan", [
        pytest.param("X0^2+X1^2+X2^2", (1, 0, 0), 7, section_walk,              # good
                     id="X0^2+X1^2+X2^2-u0-7"),
        pytest.param("X0^3+X1^3+X2^3+X3^3", (-2, -2, -1, -1), 5, classify_u,     # bad over F_25 only
                     id="X0^3+X1^3+X2^3+X3^3-u1-5"),
    ])
    def test_classify_u(self, text, u, p, scan):
        F = parse_multipoly(text)
        m = F.n_vars
        grid = projective_grid(p, 2, m - 2)
        assert 2 * grid < sum((p**j) ** (m - 2) * m for j in (1, 2)) * (2 + m * (m - 1) // 2)
        want = scan(F, u, p, 2)
        assert want.kind != "zero"
        assert scan(F, u, p, 2, budget=2 * grid) == want
        with pytest.raises(BudgetExceeded):
            scan(F, u, p, 2, budget=grid - 1)

    def test_least_budget_of_a_tangency_over_F_25_only(self):
        # the section is a plane cubic: P^2(F_5) and P^2(F_25) cost 682, too few
        # for a 15^3 elimination, and the three section partials on the zeros
        # of the section 94 more
        H = parse_multipoly("X0^3+X1^3+X2^3+X3^3")
        u = (-2, -2, -1, -1)
        want = classify_u(H, u, 5, 2)
        assert want.kind == "bad" and want.witness.ext_degree == 2
        assert classify_u(H, u, 5, 1) == UClass("good", k_max=1)
        least = least_budget(lambda b: classify_u(H, u, 5, 2, b), 10**4)
        assert least == 776 == projective_grid(5, 2, 2) + 94
        assert classify_u(H, u, 5, 2, budget=least) == want

    def test_level_charged_before_its_field_is_built(self, monkeypatch):
        # P^2(F_529) has 280,371 classes: a budget of 5000 refuses level 2
        # before F_{23^2} and its tables are built
        asked = []
        monkeypatch.setattr("polysieve.varieties.cached_field",
                            lambda p, k=1: asked.append((p, k)) or cached_field(p, k))
        form = parse_multipoly("X0^2+X1^2+X2^2").reduce_mod(23)
        with pytest.raises(BudgetExceeded):
            _smoothness_walk(form, 23, 2, budget=5000)
        assert asked == [(23, 1)]
        assert projective_grid(23, 1, 2) < 5000 < projective_grid(23, 2, 2)

    def test_certificate_matrix_charged_before_it_is_built(self):
        # a plane cubic has a 15 x 15 Macaulay matrix; P^2(F_101) has more than
        # 15^3 points, so the matrix comes before level 1 (the walk would need
        # about 10^8 evaluations up to F_{101^2})
        F = parse_multipoly("X0^3+X1^3+X2^3")
        assert projective_grid(101, 1, 2) > 15**3
        assert smoothness_scan(F, 101, 2, budget=15**2) == ScanResult(True, 2)
        with pytest.raises(BudgetExceeded):
            smoothness_scan(F, 101, 2, budget=15**2 - 1)
        # the section of X0*X1 + X2*X3 by <x, u> = 0 is a ternary quadric: 3 x 3
        G = parse_multipoly("X0*X1+X2*X3")
        assert classify_u(G, (2, -1, 1, 3), 10007, 2, budget=3**2) == UClass("good", k_max=2)
        with pytest.raises(BudgetExceeded):
            classify_u(G, (2, -1, 1, 3), 10007, 2, budget=3**2 - 1)
        # P^2(F_13) has 183 points, fewer than 15^3, but walking its three
        # classes costs more than one 15 x 15 elimination, so the cubic
        # section is certified before level 1 as well
        H = parse_multipoly("X0^3+X1^3+X2^3+X3^3")
        assert classify_u(H, (1, 2, 3, 4), 13, 2, budget=15**2) == UClass("good", k_max=2)

    def test_matrix_after_a_cheaper_first_level(self):
        # a cubic surface has a 56 x 56 matrix, 56^3 steps: more than a walk of
        # P^3(F_13), so level 1 is walked first, a witness there costs what the
        # walk alone does, and a smooth surface pays level 1 and then one matrix
        cone = parse_multipoly("X0^3+X1^3+X2^3+X0*X1*X3")  # singular at (0, 0, 0, 1)
        least = least_budget(lambda b: _smoothness_walk(cone, 13, 2, b), 10**4)
        want = _smoothness_walk(cone, 13, 2)
        assert want.witness.point == (0, 0, 0, 1)
        assert smoothness_scan(cone, 13, 2, budget=least) == want
        with pytest.raises(BudgetExceeded):
            smoothness_scan(cone, 13, 2, budget=least - 1)
        F = parse_multipoly("X0^3+X1^3+X2^3+X3^3")
        level_1 = least_budget(lambda b: _smoothness_walk(F, 13, 1, b), 4000)
        assert smoothness_scan(F, 13, 2, budget=level_1 + 56**2) == ScanResult(True, 2)
        with pytest.raises(BudgetExceeded):
            smoothness_scan(F, 13, 2, budget=level_1 + 56**2 - 1)

    def test_tries_limited_by_the_grid_they_skip(self):
        # this cubic mod 59 is certified by the first change of coordinates;
        # P^2(F_59) has 3541 points, room for one 15^3 try but not two
        F = parse_multipoly("X0^2*X1+X1^2*X2+X2^3").reduce_mod(59)
        assert 15**3 <= projective_grid(59, 1, 2) < 2 * 15**3
        assert _certify(F, 59, 1, 2) == (True, 2 * 15**2)
        assert _certify(F, 59, 1, 1) == (None, 15**2)  # undecided: one try, not certified
        # a singular quadric: det M = 0 and det A = 1 (A is empty), so Res = 0
        # mod p, proven singular, and no change of coordinates is tried
        assert _certify(parse_multipoly("X0*X1+X1^2", 3).reduce_mod(101), 101, 1, 2) == (False, 3**2)
        assert smoothness_scan(F, 59, 1) == _smoothness_walk(F, 59, 1) == ScanResult(True, 1)

    def test_no_matrix_past_the_grid(self):
        # at p = 2 the grid up to F_4 (28 points) is below 15^3: only the walk is charged
        F = parse_multipoly("X0^3+X1^3+X2^3")
        for budget in range(projective_grid(2, 2, 2) - 1, 200):
            try:
                want = _smoothness_walk(F, 2, 2, budget)
            except BudgetExceeded:
                with pytest.raises(BudgetExceeded):
                    smoothness_scan(F, 2, 2, budget)
            else:
                assert smoothness_scan(F, 2, 2, budget) == want


def least_budget(run, hi):
    """The least budget at most hi under which run(budget) raises no BudgetExceeded."""
    lo = 0
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            run(mid)
        except BudgetExceeded:
            lo = mid + 1
        else:
            hi = mid
    return lo


def tuple_fields(p, k_max):
    return [TupleField.like(cached_field(p, j)) for j in range(1, k_max + 1)]


@st.composite
def scan_inputs(draw, primes=(2, 3, 5, 7), side=49):
    """(F, p, k_max, u): a form in m <= 4 variables over F_p, p in primes.

    The projective space scanned at the top level, (p^k_max)^(m-1)
    points, is kept at most side^2 so the nested-loop oracle stays quick.
    Products of linear forms, and a quadric times a linear form (whose
    common zeros may lie in F_{p^2} only), make singular and tangent
    cases common.
    """
    m = draw(st.integers(2, 4))
    k_max = draw(st.integers(1, 2))
    p = draw(st.sampled_from([p for p in primes if (p**k_max)**(m - 1) <= side**2]))
    coeff = st.integers(-4, 4).filter(bool)

    def form(d):
        every = [e for e in itertools.product(range(d + 1), repeat=m) if sum(e) == d]
        monos = draw(st.lists(st.sampled_from(every), min_size=1, max_size=4, unique=True))
        return MultiPoly(m, {e: draw(coeff) for e in monos})

    def product(A, B):  # the constructor sums the terms that share an exponent
        return MultiPoly(m, [(tuple(a + b for a, b in zip(ea, eb)), ca * cb)
                             for ea, ca in A.terms.items() for eb, cb in B.terms.items()])

    shape = draw(st.sampled_from(["free", "linear^2", "linear*linear", "quadric*linear"]))
    if shape == "free":
        F = form(draw(st.integers(1, 3)))
    elif shape == "linear^2":
        L = form(1)
        F = product(L, L)
    else:
        F = product(form(2 if shape == "quadric*linear" else 1), form(1))
    u = tuple(draw(st.integers(-3, 3)) for _ in range(m))
    return F, p, k_max, u


class TestScanMemory:
    def test_smoothness_scan_peak_under_three_and_a_half_grids(self):
        # the lead class of P^2(F_529) is a 529 x 529 grid: 2.14 MiB as int64;
        # smoothness_scan certifies this quadric without a grid, so the walk runs alone
        F = parse_multipoly("X0^2+X1^2+X1*X2+X2^2").reduce_mod(23)
        want = _smoothness_walk(F, 23, 2)  # builds the field and its tables
        tracemalloc.start()
        try:
            assert _smoothness_walk(F, 23, 2) == want
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert want.smooth
        assert peak < 3.5 * 529**2 * 8

    def test_tangency_over_F_2209_traces_a_few_slabs(self):
        # the section is a plane cubic whose tangency lies over F_{47^2} only; walking each
        # 2209^2-point class of P^2 whole traced 112 MiB, its slabs of 2^17 points 3.2 MiB
        F = parse_multipoly("X0^3+X1^3+X2^3+X3^3")
        want = UClass("bad", Witness(2, (46, 1, 188, 2021)), 2)
        assert classify_u(F, (-3, -3, 1, 1), 47) == want  # builds the field and its tables
        tracemalloc.start()
        try:
            assert classify_u(F, (-3, -3, 1, 1), 47) == want
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def in_slabs(scan):
    """scan() with each walk slab one point or one row of its class, a few rows, and the
    default (a class a slab here): the first witness of the first slab holding one must be
    the first a full scan of the class meets, so every result is the same."""
    results = []
    for slab in (1, 64, polynomials.SLAB_POINTS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(polynomials, "SLAB_POINTS", slab)
            results.append(scan())
    assert results[1:] == results[:-1], results
    return results[0]


class TestScansAgainstNestedLoops:
    @settings(max_examples=120)
    @given(scan_inputs())
    @example((parse_multipoly("X0^2+X1^2+X2^2"), 5, 2, (1, 2, 0)))
    @example((parse_multipoly("X0^4-4*X0^2*X1^2+4*X1^4+0*X2", n_vars=3), 5, 2, (0, 0, 1)))
    @example((parse_multipoly("X0*X1+X2*X3"), 3, 2, (1, 1, 1, 1)))
    @example((parse_multipoly("X0^3+X1^3+X2^3"), 2, 2, (1, 1, 0)))
    # witnesses over F_{p^2} only: a singular point, then a tangency
    @example((parse_multipoly("X0^2*X2-2*X1^2*X2+X2^3"), 3, 2, (1, 1, 0)))
    @example((parse_multipoly("X0^3+X1^3+X2^3+X3^3"), 5, 2, (-2, -2, -1, -1)))
    # six-term quadrics, a product of two lines (singular) and a general one, mod 5 and 7
    @example((parse_multipoly("X0^2+3*X0*X1+4*X0*X2+2*X1^2+7*X1*X2+3*X2^2"), 5, 2, (1, 2, 3)))
    @example((parse_multipoly("X0^2+3*X0*X1+5*X0*X2+2*X1^2+6*X1*X2+4*X2^2"), 7, 2, (1, 2, 3)))
    @example((parse_multipoly("X0^2+X0*X1+2*X1^2+3*X0*X2+X1*X2+4*X2^2"), 5, 2, (2, 1, 1)))
    @example((parse_multipoly("X0^2+X0*X1+2*X1^2+3*X0*X2+X1*X2+4*X2^2"), 7, 2, (2, 1, 1)))
    # cubics with cross terms: a nodal one and one with six terms
    @example((parse_multipoly("X0^3+X1^3+X0*X1*X2"), 5, 2, (1, 1, 0)))
    @example((parse_multipoly("X0^3+X1^3+X0*X1*X2"), 7, 2, (0, 0, 1)))
    @example((parse_multipoly("X0^3+2*X0^2*X1+X0*X1*X2+3*X1^2*X2+X2^3+4*X0*X2^2"), 5, 2,
              (1, 2, 3)))
    @example((parse_multipoly("X0^3+2*X0^2*X1+X0*X1*X2+3*X1^2*X2+X2^3+4*X0*X2^2"), 7, 2,
              (1, -1, 2)))
    @pytest.mark.filterwarnings("ignore:p=")
    def test_verdicts_and_witnesses(self, case):
        F, p, k_max, u = case
        if not F.terms or not F.is_homogeneous():
            return
        fields = tuple_fields(p, k_max)
        smooth, j, pt = smoothness_scan_direct(F.terms, F.n_vars, fields)
        res = in_slabs(lambda: smoothness_scan(F, p, k_max=k_max))
        assert res.smooth == smooth
        assert (res.witness is None) == smooth
        if not smooth:
            assert (res.witness.ext_degree, res.witness.point) == (j, pt)
        kind, j, pt = classify_u_direct(F.terms, F.n_vars, u, fields)
        cls = in_slabs(lambda: classify_u(F, u, p, k_max=k_max))
        assert cls.kind == kind
        if kind == "bad":
            assert (cls.witness.ext_degree, cls.witness.point) == (j, pt)


@st.composite
def plane_forms(draw):
    """(F, p, u): a plane quadric or cubic with 1 to 6 terms over F_p, p <= 5."""
    d = draw(st.integers(2, 3))
    every = [e for e in itertools.product(range(d + 1), repeat=3) if sum(e) == d]
    monos = draw(st.lists(st.sampled_from(every), min_size=1, max_size=6, unique=True))
    F = MultiPoly(3, {e: draw(st.integers(-3, 3).filter(bool)) for e in monos})
    return F, draw(st.sampled_from([2, 3, 5])), tuple(draw(st.integers(-3, 3)) for _ in range(3))


def certified(form, p):
    """_certify before level 1 or 2, whichever is due, with a cap whose grid
    admits every try for any plane cubic or quaternary quadric at p >= 2."""
    return any(_certify(form.reduce_mod(p), p, j, 8)[0] for j in (1, 2))


class TestMacaulayCertificate:
    KLEIN = parse_multipoly("X0^2*X1+X1^2*X2+X2^2*X0")

    @settings(max_examples=60)
    @given(plane_forms())
    @example((KLEIN, 5, (1, 1, 1)))
    @example((parse_multipoly("X0^3+X1^3+X2^3+X0*X1*X2"), 5, (1, 2, 0)))
    @example((parse_multipoly("X0^2+X1^2+X2^2"), 3, (1, 1, 0)))
    @example((parse_multipoly("X0^3+2*X1^3+X2^3+X0*X1*X2"), 2, (1, 0, 0)))
    def test_certificate_implies_no_witness_over_cubic_extensions(self, case):
        F, p, u = case
        fields = tuple_fields(p, 3)
        if certified(F, p):
            assert smoothness_scan_direct(F.terms, 3, fields)[0]
        if any(c % p for c in u) and certified(F.reduce_mod(p).substitute(_kernel_basis(u, p)), p):
            assert classify_u_direct(F.terms, 3, u, fields)[0] == "good"

    @settings(max_examples=80)
    @given(st.integers(2, 4).flatmap(lambda m: st.tuples(
        st.dictionaries(st.sampled_from([e for e in itertools.product(range(3), repeat=m)
                                         if sum(e) == 2]), st.integers(-3, 3), min_size=1),
        st.sampled_from([3, 5, 7]))))
    def test_quadrics_at_odd_p_certified_exactly_when_smooth(self, case):
        # det M is the Hessian determinant; a singular quadric has a singular
        # point in the Hessian's kernel over F_p itself
        terms, p = case
        F = MultiPoly(len(next(iter(terms))), terms)
        smooth = smoothness_scan_direct(F.reduce_mod(p).terms, F.n_vars, tuple_fields(p, 1))[0]
        assert certified(F, p) == smooth

    @pytest.mark.parametrize("p", [10005, 15, 1])
    def test_composite_modulus_refused_before_the_certificate(self, p):
        # mod 10005 the matrices below are invertible, but inverses mod a
        # composite p are not inverses, so no verdict may come from them
        with pytest.raises(ValueError, match="is not prime"):
            smoothness_scan(parse_multipoly("X0^2+X0*X1+X2^2"), p, 2)
        with pytest.raises(ValueError, match="is not prime"):
            classify_u(parse_multipoly("X0*X1+X2*X3"), (2, -1, 1, 3), p, 2)

    def test_sparse_cubic_certified_after_a_change_of_coordinates(self):
        F = self.KLEIN.reduce_mod(5)
        ok, spent = _certify(F, 5, 1, 3)
        assert ok and spent == 2 * 15**2  # det M = 0 mod 5 in the given coordinates
        assert smoothness_scan(F, 5, 3) == ScanResult(True, 3)
        assert smoothness_scan_direct(F.terms, 3, tuple_fields(5, 3))[0]

    @settings(max_examples=120)
    @given(scan_inputs(primes=(2, 3, 5, 7, 11, 13), side=169))
    @example((KLEIN, 13, 2, (1, 1, 1)))
    @example((parse_multipoly("X0^3+X1^3+X2^3+X0*X1*X2"), 11, 2, (1, 2, 0)))
    @example((parse_multipoly("X0^2+X1^2+5*X1*X2+X2^2"), 7, 2, (1, 2, 3)))
    @example((parse_multipoly("X0*X1+X2*X3"), 13, 1, (2, -1, 1, 3)))
    @pytest.mark.filterwarnings("ignore:p=")
    def test_public_scans_match_the_walk(self, case):
        F, p, k_max, u = case
        if not F.terms or not F.is_homogeneous():
            return
        assert smoothness_scan(F, p, k_max) == _smoothness_walk(F, p, k_max)
        if any(c % p for c in u):
            assert classify_u(F, u, p, k_max) == section_walk(F, u, p, k_max)


@st.composite
def witness_degree_cases(draw):
    """(coeffs, d, rows, p): m in 2..4, d in 2..5, p <= 23 prime to d (d - 1) and every c_i."""
    m, d = draw(st.integers(2, 4)), draw(st.integers(2, 5))
    p = draw(st.sampled_from([q for q in primes_in(2, 23) if d * (d - 1) % q]))
    coeffs = draw(st.lists(st.integers(-40, 40).filter(lambda c: c % p), min_size=m, max_size=m))
    rows = draw(st.lists(st.lists(st.integers(-60, 60), min_size=m, max_size=m),
                         min_size=1, max_size=12))
    return coeffs, d, rows, p


class TestDiagonalOracle:
    def test_spec_examples(self):
        assert diagonal_dual_oracle([1, 1, 1], 2, (1, 2, 0), 5).kind == "bad"
        assert diagonal_dual_oracle([1, 1, 1], 2, (1, 0, 0), 5).kind == "good"
        assert diagonal_dual_oracle([1, 1, 1], 2, (5, 10, 15), 5).kind == "zero"

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            diagonal_dual_oracle([1, 5, 1], 2, (1, 1, 1), 5)

    def test_quadric_witness_verifies(self):
        cls = diagonal_dual_oracle([1, 2, 3], 2, (1, 1, 1), 7)
        if cls.kind == "bad":
            F = MultiPoly(3, {(2, 0, 0): 1, (0, 2, 0): 2, (0, 0, 2): 3})
            assert F.eval_mod(cls.witness.point, 7) == 0

    def test_agreement_with_scan(self):
        # full sweep: u in [-3,3]^3, every usable prime up to 31, d in {2,3}
        for d in (2, 3):
            F = MultiPoly(3, {(d, 0, 0): 1, (0, d, 0): 1, (0, 0, d): 1})
            for p in primes_in(3, 31):
                if d % p == 0:
                    continue
                seen = set()
                for u in itertools.product(range(-3, 4), repeat=3):
                    ured = tuple(c % p for c in u)
                    if ured in seen or all(c == 0 for c in ured):
                        continue
                    seen.add(ured)
                    scan = in_slabs(lambda: classify_u(F, u, p, k_max=2))
                    oracle = diagonal_dual_oracle([1, 1, 1], d, u, p)
                    assert scan.kind == oracle.kind, (d, p, u)

    def test_agreement_general_coefficients(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            p = int(rng.choice([5, 7, 11, 13]))
            d = int(rng.choice([2, 3]))
            coeffs = [int(c) for c in rng.integers(1, p, size=3)]
            F = MultiPoly(3, {(d, 0, 0): coeffs[0], (0, d, 0): coeffs[1],
                              (0, 0, d): coeffs[2]})
            u = [int(c) for c in rng.integers(0, p, size=3)]
            if all(c % p == 0 for c in u):
                continue
            scan = in_slabs(lambda: classify_u(F, u, p, k_max=2))
            oracle = diagonal_dual_oracle(coeffs, d, u, p)
            assert scan.kind == oracle.kind, (p, d, coeffs, u)

    @settings(max_examples=120, deadline=None)
    @given(witness_degree_cases())
    @example(([1, 1, 1, 1], 3, [[-2, -2, -1, -1]], 5))  # the witness lies over F_25 only
    @example(([1, 1, 1, 1, 1], 5, [[1, 2, 3, 4, 5], [1, 1, 1, 1, 3]], 3))
    def test_witness_degree_equals_the_oracle(self, case):
        coeffs, d, rows, p = case
        for u in rows:
            cls = diagonal_dual_oracle(coeffs, d, u, p)
            if cls.kind == "bad":
                assert diagonal_witness_degree(coeffs, d, u, p) == cls.witness.ext_degree

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([(3, 2), (4, 3), (5, 2), (7, 2), (7, 3)]),
           st.lists(st.integers(-20, 20), min_size=3, max_size=3),
           st.lists(st.integers(-20, 20), min_size=3, max_size=3))
    @example((7, 2), [1, 1, 1], [1, 1, 1])  # x^6 = 1 means x^3 = 1: F_4
    @example((7, 3), [1, 1, 1], [1, 1, -1])
    def test_witness_degree_where_p_divides_d_minus_1(self, dp, coeffs, u):
        # the oracle refuses p | d - 1; a walk capped at the rule's degree finds a witness
        d, p = dp
        if any(c % p == 0 for c in coeffs) or diagonal_u_classes(coeffs, d, [u], p)[0] != "bad":
            return
        r = diagonal_witness_degree(coeffs, d, u, p)
        assert r <= 4
        F = MultiPoly(3, {tuple(d * (i == j) for j in range(3)): c for i, c in enumerate(coeffs)})
        assert classify_u(F, u, p, k_max=r).kind == "bad"

    @pytest.mark.parametrize("coeffs, d, u, p, r", [
        ([1, 1, 1], 2, (1, 2, 0), 5, 1),        # a quadric's witness is F_p-rational
        ([1, 1, 1, 1], 3, (-2, -2, -1, -1), 5, 2),
        ([1, 1, 1], 7, (1, 1, 1), 2, 2),        # e = 6 = 2 * 3: x^3 = 1 needs F_4
        ([1, 1, 1], 4, (1, 1, 1), 3, 1),        # e = 3 = p: x^3 = 1 has the one root 1
    ])
    def test_witness_degree_examples(self, coeffs, d, u, p, r):
        assert diagonal_witness_degree(coeffs, d, u, p) == r

    @pytest.mark.parametrize("coeffs, d, u, p", [
        ([1, 5, 1], 2, (1, 1, 1), 5), ([1, 1, 1], 3, (1, 1, 1), 3), ([1, 1, 1], 3, (1, 1, 1), 4),
        ([1, 1, 1], 1, (1, 1, 1), 5), ([1, 1, 1], 3, (1, 1), 5), ([1, 1, 1], 3, (5, 0, 10), 5),
    ])
    def test_witness_degree_refuses(self, coeffs, d, u, p):
        with pytest.raises(ValueError):
            diagonal_witness_degree(coeffs, d, u, p)


@st.composite
def diagonal_cases(draw):
    """(coeffs, d, rows, p): m in 2..4, d in 2..4, p <= 23 coprime to d and every c_i."""
    m, d = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    p = draw(st.sampled_from([q for q in primes_in(2, 23) if d % q]))
    coeffs = draw(st.lists(st.integers(-40, 40).filter(lambda c: c % p), min_size=m, max_size=m))
    rows = draw(st.lists(st.lists(st.integers(-60, 60), min_size=m, max_size=m),
                         min_size=1, max_size=6))
    return coeffs, d, rows, p


class TestDualPolynomial:
    @settings(max_examples=150, deadline=None)
    @given(diagonal_cases())
    @example(([1, 1, 1], 3, [[1, 1, 0], [1, 2, 3], [0, 0, 0]], 2))  # p | d - 1
    @example(([1, 2, 1, 1], 4, [[1, 1, 1, 0], [1, 2, 2, 1]], 3))  # p | d - 1
    @example(([1, 1, 1, 1], 3, [[-2, -2, -1, -1]], 5))  # the witness lies over F_25 only
    def test_kernel_equals_the_oracle(self, case):
        coeffs, d, rows, p = case
        if (d - 1) % p:
            want = [diagonal_dual_oracle(coeffs, d, u, p).kind for u in rows]
        else:  # the oracle needs p prime to d - 1; here d - 1 = p, and x -> x^p is onto
            # each field, so a tangency point is F_p-rational and the scan of P(F_p) decides
            F = MultiPoly(len(coeffs), {tuple(d * (i == j) for j in range(len(coeffs))): c
                                        for i, c in enumerate(coeffs)})
            want = [classify_u_direct(F.terms, F.n_vars, u, tuple_fields(p, 1))[0] for u in rows]
        assert diagonal_u_classes(coeffs, d, rows, p).tolist() == want

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_quadric_dual_is_the_sum(self, m):
        assert dual_polynomial(m, 2) == MultiPoly(m, {tuple(int(i == j) for j in range(m)): 1
                                                      for i in range(m)})

    def test_ternary_cubic_dual(self):
        want = parse_multipoly("X0^2+X1^2+X2^2-2*X0*X1-2*X0*X2-2*X1*X2")
        assert dual_polynomial(3, 3) == want
        D = dual_polynomial(4, 4)  # degree e^(m-2) = 9 in four variables
        assert (len(D.terms), D.total_degree, D.height()) == (220, 9, 120312)

    @pytest.mark.parametrize("coeffs, d, p", [([1, 5, 1], 2, 5), ([1, 1, 1], 3, 3),
                                              ([2, 1, 1], 4, 2)])
    def test_refuses_what_the_oracle_refuses(self, coeffs, d, p):
        with pytest.raises(ValueError, match="need p coprime to d and to every coefficient"):
            diagonal_dual_oracle(coeffs, d, (1, 1, 1), p)
        with pytest.raises(ValueError, match="need p coprime to d and to every coefficient"):
            diagonal_u_classes(coeffs, d, [[1, 1, 1]], p)

    def test_a_lone_row_takes_any_prime(self):
        p = 2147483659  # p^2 passes int64: only the Python-int path can take it
        for u, kind in [((1, 1, 2), "bad"), ((1, 1, 1), "good")]:
            assert diagonal_dual_oracle([1, 1, -2], 2, u, p).kind == kind
            assert diagonal_u_classes([1, 1, -2], 2, [u], p).tolist() == [kind]
        with pytest.raises(OverflowError):
            diagonal_u_classes([1, 1, -2], 2, [(1, 1, 2), (1, 1, 1)], p)

    def test_budget_is_charged_before_the_build(self, monkeypatch):
        # D_{4,4}: 27 factors, 4 passes, 3 * 28^3 cells
        build = 27 * 4 * 3 * 28**3
        monkeypatch.setattr("polysieve.varieties.dual_polynomial",
                            lambda m, d: pytest.fail("built past the budget"))
        with pytest.raises(BudgetExceeded):
            diagonal_u_classes([1, 1, 1, 1], 4, [[1, 2, 3, 4]], 5, budget=build - 1)

    def test_budget_is_charged_before_the_evaluation(self):
        rows = np.random.default_rng(1).integers(0, 7, size=(10**4, 4))
        build, cells = 27 * 4 * 3 * 28**3, 220 * 10**4  # (monomials, rows) int64: 17.6 MB
        diagonal_u_classes([1, 1, 1, 1], 4, rows[:1], 7, budget=build + 220)  # D built once
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceeded):
                diagonal_u_classes([1, 1, 1, 1], 4, rows, 7, budget=build + cells - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert len(diagonal_u_classes([1, 1, 1, 1], 4, rows, 7, budget=build + cells)) == 10**4

