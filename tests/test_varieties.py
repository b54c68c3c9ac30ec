import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polysieve.errors import BudgetExceeded
from polysieve.fields import cached_field, primes_in
from polysieve.polynomials import MultiPoly, parse_multipoly
from polysieve.varieties import (classify_u, complete_sums, count_affine_fiber,
                                 diagonal_dual_oracle, fiber_histogram,
                                 group_pushforwards, pair_fiber_histogram,
                                 singular_fiber_scan, smoothness_scan)

from _oracles import (TupleField, classify_u_direct, complete_sum_table,
                      fiber_histogram_direct, smoothness_scan_direct)


class TestFiberCounts:
    def test_spec_examples(self):
        rec = count_affine_fiber(parse_multipoly("X0^2+X1^2"), 0, 5)
        assert rec.count == 9
        assert rec.deviation == 4
        assert count_affine_fiber(parse_multipoly("X0", n_vars=1), 3, 7).count == 1

    def test_pair_marginal_identity_all_fibers(self):
        F = parse_multipoly("X0^2+X1^2+X2^2")
        G = parse_multipoly("X0*X1", n_vars=3)
        pair = pair_fiber_histogram(F, G, 7)
        single = fiber_histogram(F, 7)
        assert np.array_equal(pair.sum(axis=1), single)
        rec = count_affine_fiber(F, 1, 7, G=G, b=2)
        assert rec.count == int(pair[1, 2])

    def test_histogram_total(self):
        F = parse_multipoly("X0^3+X1^3+X2^3")
        for p in (5, 7, 11):
            assert fiber_histogram(F, p).sum() == p**3

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            fiber_histogram(parse_multipoly("X0^2+X1^2+X2^2"), 101, budget=10**4)

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


class TestScanBudget:
    """Scans charge F per grid point and each partial or minor per survivor.

    A budget of twice the grid lies below the old charge of (1 + m) or
    (2 + m(m-1)/2) evaluations per grid point, so it used to be refused.
    """

    @pytest.mark.parametrize("text, p", [
        ("X0^2+X1^2+X2^2", 7),                 # smooth: both levels in full
        ("X0^2*X2-2*X1^2*X2+X2^3", 3),         # singular over F_9 only
    ])
    @pytest.mark.filterwarnings("ignore:p=")
    def test_smoothness_scan(self, text, p):
        F = parse_multipoly(text)
        grid = projective_grid(p, 2, F.n_vars - 1)
        assert 2 * grid < (1 + F.n_vars) * grid
        assert smoothness_scan(F, p, 2, budget=2 * grid) == smoothness_scan(F, p, 2)
        with pytest.raises(BudgetExceeded):
            smoothness_scan(F, p, 2, budget=grid - 1)

    @pytest.mark.parametrize("text, u, p", [
        ("X0^2+X1^2+X2^2", (1, 0, 0), 7),                 # good
        ("X0^3+X1^3+X2^3+X3^3", (-2, -2, -1, -1), 5),     # bad over F_25 only
    ])
    def test_classify_u(self, text, u, p):
        F = parse_multipoly(text)
        m = F.n_vars
        grid = projective_grid(p, 2, m - 2)
        assert 2 * grid < sum((p**j) ** (m - 2) * m for j in (1, 2)) * (2 + m * (m - 1) // 2)
        want = classify_u(F, u, p, 2)
        assert want.kind != "zero"
        assert classify_u(F, u, p, 2, budget=2 * grid) == want
        with pytest.raises(BudgetExceeded):
            classify_u(F, u, p, 2, budget=grid - 1)


def tuple_fields(p, k_max):
    return [TupleField.like(cached_field(p, j)) for j in range(1, k_max + 1)]


@st.composite
def scan_inputs(draw):
    """(F, p, k_max, u): a form in m <= 4 variables over F_p, p <= 7.

    The projective space scanned at the top level, (p^k_max)^(m-1)
    points, is kept at most 49^2 so the nested-loop oracle stays quick.
    Products of linear forms, and a quadric times a linear form (whose
    common zeros may lie in F_{p^2} only), make singular and tangent
    cases common.
    """
    m = draw(st.integers(2, 4))
    k_max = draw(st.integers(1, 2))
    p = draw(st.sampled_from([p for p in (2, 3, 5, 7) if (p**k_max)**(m - 1) <= 49**2]))
    coeff = st.integers(-4, 4).filter(bool)

    def form(d):
        every = [e for e in itertools.product(range(d + 1), repeat=m) if sum(e) == d]
        monos = draw(st.lists(st.sampled_from(every), min_size=1, max_size=4, unique=True))
        return MultiPoly(m, {e: draw(coeff) for e in monos})

    shape = draw(st.sampled_from(["free", "linear^2", "linear*linear", "quadric*linear"]))
    if shape == "free":
        F = form(draw(st.integers(1, 3)))
    elif shape == "linear^2":
        L = form(1)
        F = L * L
    else:
        F = form(2 if shape == "quadric*linear" else 1) * form(1)
    u = tuple(draw(st.integers(-3, 3)) for _ in range(m))
    return F, p, k_max, u


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
    @pytest.mark.filterwarnings("ignore:p=")
    def test_verdicts_and_witnesses(self, case):
        F, p, k_max, u = case
        if F.is_zero() or not F.is_homogeneous():
            return
        fields = tuple_fields(p, k_max)
        smooth, j, pt = smoothness_scan_direct(F.terms, F.n_vars, fields)
        res = smoothness_scan(F, p, k_max=k_max)
        assert res.smooth == smooth
        assert (res.witness is None) == smooth
        if not smooth:
            assert (res.witness.ext_degree, res.witness.point) == (j, pt)
        kind, j, pt = classify_u_direct(F.terms, F.n_vars, u, fields)
        cls = classify_u(F, u, p, k_max=k_max)
        assert cls.kind == kind
        if kind == "bad":
            assert (cls.witness.ext_degree, cls.witness.point) == (j, pt)


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
                    scan = classify_u(F, u, p, k_max=2)
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
            scan = classify_u(F, u, p, k_max=2)
            oracle = diagonal_dual_oracle(coeffs, d, u, p)
            assert scan.kind == oracle.kind, (p, d, coeffs, u)


class TestSingularFiberScan:
    def test_plane_curve(self):
        out = singular_fiber_scan(parse_multipoly("X0^2+X1^2"), p=5, k_max=2)
        assert set(out) == {0}

    def test_linear_no_critical_points(self):
        out = singular_fiber_scan(parse_multipoly("X0", n_vars=1), p=7, k_max=2)
        assert out == {}

    def test_with_hyperplane_section(self):
        f = parse_multipoly("X0^2+X1^2+X2^2")
        g = parse_multipoly("X0", n_vars=3)
        out = singular_fiber_scan(f, g, p=5, k_max=2)
        assert set(out) == {0}

    def test_witness_is_singular_point(self):
        f = parse_multipoly("X0^3 - 3*X0 + X1^2")
        out = singular_fiber_scan(f, p=7, k_max=1)
        for lam, wit in out.items():
            assert f.eval_mod(wit.point, 7) == lam
            for g in f.gradient():
                assert g.eval_mod(wit.point, 7) == 0
