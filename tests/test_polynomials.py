import itertools
import random
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polysieve import polynomials
from polysieve.errors import PolyParseError
from polysieve.fields import cached_field
from polysieve.polynomials import (MultiPoly, UniPoly, broadcast_grid,
                                   critical_value_poly, parse_multipoly,
                                   parse_unipoly, resultant_uni)

from _oracles import (TupleField, coeffs_from_roots, eval_field_direct, parse_terms_loop,
                      poly_eval_everywhere, poly_eval_in_field, poly_text_loop,
                      resultant_from_roots, substitute_loop, tokenize_scan)


# pieces of polynomial text, well formed and not: whitespace, X with and without an index,
# T, ^ with and without an exponent, dangling signs and '*', parentheses, foreign characters
_PIECES = st.sampled_from([" ", "\t", "\n", "X", "X0", "X1", "X12", "X007", "T", "^", "^2", "^0",
                           "2", "0", "17", "123456789012345678901", "+", "-", "*", "(", ")",
                           "~", "x", "é", "٣", "\u00a0", "**", "--"])
_TEXT = st.lists(_PIECES, max_size=12).map("".join)


def _outcome(parse, text):
    """parse(text), or the message and offset of its PolyParseError."""
    try:
        return parse(text)
    except PolyParseError as err:
        return str(err), err.pos


@st.composite
def multipolys(draw, max_vars=4, max_exp=6):
    n = draw(st.integers(1, max_vars))
    terms = draw(st.dictionaries(st.tuples(*[st.integers(0, max_exp)] * n),
                                 st.integers(-10**6, 10**6), max_size=8))
    return MultiPoly(n, terms)


class TestParsing:
    def test_roundtrip(self):
        for text in ("T^2", "2*T^3+1", "T^4+T", "X1^2 + 3*X2^2 - 1",
                     "X0^2+X1^2+X2^2", "-X0^3 - 2*X1*X2 + 7"):
            if "T" in text:
                poly = parse_unipoly(text)
                again = parse_unipoly(poly.to_text())
                assert poly == again
            else:
                poly = parse_multipoly(text)
                again = parse_multipoly(poly.to_text(), n_vars=poly.n_vars)
                assert poly == again

    def test_one_indexed_names_compact(self):
        # X1..X3 with no X0 means a 3-variable form
        poly = parse_multipoly("X1^3+X2^3+X3^3")
        assert poly.n_vars == 3
        assert poly == parse_multipoly("X0^3+X1^3+X2^3")

    def test_error_carries_offset(self):
        with pytest.raises(PolyParseError) as err:
            parse_multipoly("X1^^2")
        assert err.value.pos == 2

    def test_rejects_garbage(self):
        for bad in ("", "X", "T +", "3**T", "X1 ~ 2"):
            with pytest.raises(PolyParseError):
                parse_unipoly(bad)


    @settings(max_examples=3000, deadline=None)
    @given(_TEXT)
    @example("3 X0 X1^2 - -X2 * 4")
    @example("X1 2 + T^")
    def test_parse_terms_matches_the_scanner_oracle(self, text):
        # the same (token, offset) pairs, and the same terms or the same message and offset
        assert _outcome(polynomials._tokenize, text) == _outcome(tokenize_scan, text)
        assert _outcome(polynomials._parse_terms, text) == _outcome(parse_terms_loop, text)

    def test_grammar_of_the_module_docstring(self):
        # signs repeat, adjacent factors multiply, X needs an index, errors name the offset
        assert parse_multipoly("--X0 + -+-3") == parse_multipoly("X0 + 3")
        assert parse_multipoly("2 X0") == parse_multipoly("2*X0")
        assert parse_multipoly("X1 2", n_vars=2) == parse_multipoly("2*X1", n_vars=2)
        for text, message, pos in (("X0 + X", "variable X needs an index", 5),
                                   ("X0 +", "dangling sign", 3), ("X0 *", "dangling '*'", 3),
                                   ("X0 ^ -1", "exponent must be an integer", 3),
                                   ("X0 * + 1", "unexpected token '+'", 5)):
            assert _outcome(parse_multipoly, text) == (f"{message} (at offset {pos})", pos)

    def test_digits_that_are_not_decimal_are_unexpected(self):
        # the scanner took '²' as a digit and int() refused it with a bare ValueError
        for text, message, pos in (("X²", "variable X needs an index", 0),
                                   ("X1²", "unexpected character '²'", 2),
                                   ("3²*T", "unexpected character '²'", 1)):
            with pytest.raises(ValueError, match="invalid literal"):
                parse_terms_loop(text)
            assert _outcome(polynomials._parse_terms, text) == (f"{message} (at offset {pos})", pos)

    @settings(max_examples=300, deadline=None)
    @given(multipolys())
    def test_multipoly_text_round_trip(self, P):
        ordered = sorted(P.terms.items(), key=lambda t: (-sum(t[0]), t[0]))
        assert P.to_text() == poly_text_loop(ordered, lambda e: None)
        assert parse_multipoly(P.to_text(), n_vars=P.n_vars) == P

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-10**6, 10**6), max_size=8))
    def test_unipoly_text_round_trip(self, coeffs):
        h = UniPoly(coeffs)
        terms = [((i,), c) for i, c in enumerate(h.coeffs) if c]
        assert h.to_text() == poly_text_loop(terms, lambda e: "T" if e else None)
        assert parse_unipoly(h.to_text()) == h


class TestEvaluation:
    def test_spec_examples(self):
        F = parse_multipoly("X0^2+X1^2")
        assert F.eval((0, 0)) == 0
        assert F.eval_mod((1, 2), 5) == 0
        assert parse_multipoly("X0*X1*X2").eval((1, 1, 1)) == 1

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            parse_multipoly("X0^2+X1^2").eval((1, 2, 3))

    def test_reduce_commutes_with_eval(self):
        rng = random.Random(3)
        for _ in range(50):
            terms = {(rng.randrange(4), rng.randrange(4)): rng.randint(-9, 9)
                     for _ in range(4)}
            F = MultiPoly(2, terms)
            p = rng.choice([3, 5, 7, 11])
            pt = (rng.randrange(p), rng.randrange(p))
            assert F.reduce_mod(p).eval_mod(pt, p) == F.eval(pt) % p

    def test_array_eval_matches_scalar(self):
        F = parse_multipoly("X0^3 - 2*X0*X1 + X1^2")
        xs = np.arange(-3, 4)
        grid = F.eval((xs[:, None], xs[None, :]))
        for i, a in enumerate(xs):
            for j, b in enumerate(xs):
                assert grid[i, j] == F.eval((int(a), int(b)))

    @pytest.mark.parametrize("form", [
        "X0^3 - 2*X0*X1 + 5", "3*X2^4 + X1 - 7", "X0*X2^2 + 11*X2", "13", "0",
        # many terms, every coefficient -1 mod 7: the unreduced sum runs far past p
        "6*X0^5 + 13*X0^4*X1 + 20*X1^4 + 27*X0^3*X2 + 34*X2^3 + 41*X0*X1*X2 - 8*X1^2*X2"
        " + 6*X0^2 - X1 + 55*X2^6 + 62*X0*X2 - 15"])
    def test_broadcast_eval_mod_matches_scalar(self, form):
        # monomials on a subset of the variables, a constant, the zero polynomial,
        # and many terms whose residues sit at p - 1
        F, p = parse_multipoly(form, n_vars=3), 7
        sides = [np.arange(-4, 3), np.arange(9), np.arange(-2, 3)]
        grid = F.eval_mod(broadcast_grid(sides), p)
        assert grid.shape == (7, 9, 5)
        for idx in itertools.product(*map(range, grid.shape)):
            pt = tuple(int(s[i]) for s, i in zip(sides, idx))
            assert grid[idx] == F.eval(pt) % p


    def test_ring_eval_of_arrays_is_eval_mod(self):
        # X0^7 at 1008 mod 1009 is 1008; an int64 power before reducing wrapped to 309
        p = 1009
        F = MultiPoly(2, {(7, 0): 1, (3, 5): 500, (0, 0): 3}, ring=p)
        xs = np.arange(p - 20, p, dtype=np.int64)
        grid = broadcast_grid([xs, xs[::-1]])
        assert np.array_equal(F.eval(grid), F.eval_mod(grid, p))
        assert MultiPoly(1, {(7,): 1}, ring=p).eval((np.array([p - 1]),)).tolist() == [p - 1]
        assert F.eval((p - 1, 2)) == F.eval_mod((p - 1, 2), p)

    def test_eval_mod_takes_big_integer_coordinates(self):
        # Python ints past int64 are reduced mod p before the cast, alone or mixed in a list
        assert MultiPoly(1, {(2,): 1}, ring=7).eval_mod((10**20,), 7) == 10**40 % 7
        assert MultiPoly(1, {(2,): 1}, ring=7).eval((10**20,)) == 10**40 % 7
        F = MultiPoly(2, {(2, 0): 3, (1, 1): -5, (0, 3): 2, (0, 0): 1})
        xs, ys = [10**20, 3, -10**30, 5], [7, 10**25, 1, -(2**70)]
        want = [F.eval((x, y)) % 11 for x, y in zip(xs, ys)]
        assert F.eval_mod((xs, ys), 11).tolist() == want
        assert F.eval_mod((np.array(xs, dtype=object), ys), 11).tolist() == want

    def test_eval_mod_reduces_early_where_the_sum_could_pass_int64(self):
        # at p = 2^61 - 1, five residues p - 1 sum past 2^63; on 0/1 coordinates
        # every product stays below p, so only the running sum could overflow
        p = 2**61 - 1
        F = MultiPoly(3, {e: p - 1 for e in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1)]})
        grid = F.eval_mod(broadcast_grid([np.arange(2)] * 3), p)
        for idx in itertools.product(range(2), repeat=3):
            assert grid[idx] == F.eval(idx) % p


# (p, k): prime fields, p = 2 included, and extensions of degree 2 and 3
EVAL_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (5, 2), (2, 3)]


@st.composite
def field_eval_inputs(draw):
    """(F, p, k, points): free monomials, coefficients that may be 0 mod p."""
    p, k = draw(st.sampled_from(EVAL_FIELDS))
    m = draw(st.integers(1, 4))
    every = list(itertools.product(range(4), repeat=m))
    monos = draw(st.lists(st.sampled_from(every), min_size=0, max_size=5, unique=True))
    terms = {e: draw(st.integers(-10, 10).filter(bool)) for e in monos}
    points = draw(st.lists(st.tuples(*[st.integers(0, p**k - 1)] * m),
                           min_size=1, max_size=12))
    return MultiPoly(m, terms), p, k, points


class TestEvalFieldProperty:
    @settings(max_examples=150)
    @given(field_eval_inputs())
    @example((parse_multipoly("X0^2+X1-3"), 3, 2, [(0, 0), (4, 7), (8, 1)]))  # constant
    @example((parse_multipoly("5*X0*X1+X1^3"), 5, 2, [(0, 3), (7, 24)]))  # 0 mod p
    @example((parse_multipoly("X0^3+X2", n_vars=3), 7, 1, [(0, 6, 0), (3, 2, 5)]))
    @example((parse_multipoly("X0*X1+X0^2+1"), 2, 1, [(0, 0), (0, 1), (1, 0), (1, 1)]))
    @example((parse_multipoly("X0*X1^2+X1+1"), 2, 3, [(x, y) for x in (0, 3, 7)
                                                      for y in (0, 1, 6)]))
    # nine terms, more than two packed sums per lane, over a scalar, (n,1),
    # (1,n) and (n,n) coordinate
    @example((parse_multipoly("X0^2+2*X0*X1+3*X1^2+X1*X2+4*X2^2+X2*X3+2*X3^2+X0*X3+3"),
              5, 2, [(0, 0, 0, 0), (1, 24, 0, 7), (3, 5, 12, 0), (0, 9, 24, 13)]))
    # exponents of 5 and more at zero coordinates; 24 = q-1 and 26 wrap mod q-1
    @example((parse_multipoly("X0^5*X1^7+3*X1^6+2*X0^9+X0^24*X1^26+X1^25"), 5, 2,
              [(0, 0), (0, 3), (7, 0), (24, 24), (1, 13), (0, 24)]))
    @example((parse_multipoly("X0^7*X1+X0*X1^6+X1^5+X2^3+1"), 2, 3,
              [(0, 0, 0), (7, 0, 1), (3, 5, 0), (6, 7, 7)]))
    @example((parse_multipoly("X0^15+X0^5*X1^3+X1+X0+1"), 2, 4,
              [(0, 0), (15, 0), (0, 9), (5, 11), (1, 1)]))
    @example((parse_multipoly("X0^13*X1^2+2*X0*X1+X1^8+2"), 3, 3,
              [(0, 0), (26, 0), (0, 13), (5, 20)]))
    @example((parse_multipoly("X0^4*X1+2*X0^2*X1^2+X1^3+X0+2"), 3, 4,
              [(0, 0), (80, 0), (40, 79), (1, 27)]))
    def test_matches_tuple_arithmetic(self, case):
        F, p, k, points = case
        field = cached_field(p, k)
        tf = TupleField.like(field)
        expected = [eval_field_direct(F.terms, tf, pt) for pt in points]
        cols = [np.array(c, dtype=np.int64) for c in zip(*points)]
        assert F.eval_field(field, cols).tolist() == expected
        assert F.eval_field(field, points[0]) == expected[0]
        # the same coordinates as a scalar, (n,1), (1,n) and (n,n), in turn
        n = len(points)
        mixed = [(c[0], c[:, None], c[None, :],
                  c[(np.arange(n)[:, None] + np.arange(n)) % n])[i % 4]
                 for i, c in enumerate(cols)]
        grid = np.asarray(F.eval_field(field, mixed))
        views = np.broadcast_arrays(*mixed)
        assert grid.shape == views[0].shape
        assert grid.ravel().tolist() == [eval_field_direct(F.terms, tf, pt)
                                         for pt in zip(*[v.ravel().tolist() for v in views])]

    def test_broadcast_grid(self):
        F = parse_multipoly("X0^2*X1+2*X1^3+X0+4")
        field = cached_field(3, 2)
        tf = TupleField.like(field)
        xs = np.arange(9)
        grid = F.eval_field(field, (xs[:, None], xs[None, :]))
        assert grid.shape == (9, 9)
        assert grid.tolist() == [[eval_field_direct(F.terms, tf, (a, b)) for b in range(9)]
                                 for a in range(9)]


class TestCalculus:
    def test_gradient_examples(self):
        F = parse_multipoly("X0^2+X1^2")
        assert [g.to_text() for g in F.gradient()] == ["2*X0", "2*X1"]
        cube = MultiPoly(1, {(3,): 1}, ring=3)
        assert not cube.gradient()[0].terms
        assert [g.to_text() for g in parse_multipoly("X0*X1").gradient()] \
            == ["X1", "X0"]


    @settings(max_examples=300, deadline=None)
    @given(multipolys(max_exp=12), st.integers(0, 3), st.sampled_from([None, 2, 5, 13]),
           st.data())
    def test_substitute_matches_the_unit_loop(self, P, k, ring, data):
        # every x_i a linear form in k variables y, over Z and mod p
        vectors = data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=P.n_vars,
                                              max_size=P.n_vars), min_size=k, max_size=k))
        P = P if ring is None else P.reduce_mod(ring)
        assert P.substitute(vectors) == MultiPoly(k, substitute_loop(P.terms, vectors), ring)

    def test_substitute_at_large_exponents(self):
        # X^e + Y^e + Z^e on the plane x + 2y + 3z = 0 mod 5: squaring, not e products
        basis = [[-2, 1, 0], [-3, 0, 1]]
        small = parse_multipoly("X0^60+X1^60+X2^60").reduce_mod(5)
        assert small.substitute(basis) == MultiPoly(2, substitute_loop(small.terms, basis), 5)
        F = parse_multipoly("X0^3000+X1^3000+X2^3000").reduce_mod(5)
        start = time.perf_counter()
        S = F.substitute(basis)
        assert time.perf_counter() - start < 0.5
        # L^3000 = (L^125)^24 and L^125(y) = L(y^125) mod 5, a linear form L over F_5
        low = substitute_loop(parse_multipoly("X0^24+X1^24+X2^24").terms, basis)
        assert S == MultiPoly(2, {(a * 125, b * 125): c for (a, b), c in low.items()}, 5)


class TestResultants:
    def test_spec_examples(self):
        a, b = parse_unipoly("T-3"), parse_unipoly("T-5")
        assert resultant_uni(a, b) == -2
        assert resultant_uni(UniPoly([-6, 0, 1]), UniPoly([0, 2])) == -24
        same = parse_unipoly("T^2+1")
        assert resultant_uni(same, same) == 0

    def test_zero_input_rejected(self):
        with pytest.raises(ValueError):
            resultant_uni(UniPoly([]), parse_unipoly("T"))

    def test_matches_root_product_oracle(self):
        # a = lc * prod (T - r_i) from chosen roots, so Res(a, b) is
        # lc^deg(b) * prod b(r_i); swapping the arguments costs the sign
        # (-1)^(deg a * deg b).  Degree 0 on either side is included.
        rng = random.Random(11)
        for _ in range(300):
            lc = rng.choice([1, 2, -3])
            roots = [rng.randint(-5, 5) for _ in range(rng.randint(0, 5))]
            b = UniPoly([rng.randint(-8, 8) for _ in range(rng.randint(0, 5))]
                        + [rng.choice([1, 2, -3])])
            a = UniPoly(coeffs_from_roots(lc, roots))
            want = resultant_from_roots(lc, roots, b.coeffs)
            assert resultant_uni(a, b) == want, (lc, roots, b.coeffs)
            assert resultant_uni(b, a) == (-1) ** (a.degree * b.degree) * want
        for _ in range(300):
            p = rng.choice([3, 5, 7, 13])
            lc = rng.randrange(1, p)
            roots = [rng.randrange(p) for _ in range(rng.randint(0, 5))]
            b = UniPoly([rng.randrange(p) for _ in range(rng.randint(0, 5))]
                        + [rng.randrange(1, p)], ring=p)
            a = UniPoly(coeffs_from_roots(lc, roots), ring=p)
            want = resultant_from_roots(lc, roots, b.coeffs, p)
            assert resultant_uni(a, b) == want, (p, lc, roots, b.coeffs)
            assert resultant_uni(b, a) == (-1) ** (a.degree * b.degree) * want % p

    def test_composite_ring_refused(self):
        # elimination mod 9 would need the inverse of 3, so a ring that
        # is not prime is refused before any arithmetic
        a, b = UniPoly([1, 0, 1], 9), UniPoly([1, 3], 9)
        with pytest.raises(ValueError, match="9 is not prime"):
            resultant_uni(a, b)

    def test_vanishes_iff_common_root_in_extensions(self):
        # spec invariant: zero resultant <=> common root over F_{p^j}, j <= 4
        rng = random.Random(5)
        for _ in range(60):
            p = rng.choice([3, 5, 7])
            da, db = rng.randint(1, 3), rng.randint(1, 3)
            a = UniPoly([rng.randrange(p) for _ in range(da)]
                        + [rng.randrange(1, p)], ring=p)
            b = UniPoly([rng.randrange(p) for _ in range(db)]
                        + [rng.randrange(1, p)], ring=p)
            res = resultant_uni(a, b)
            cap = min(4, da * db)
            found = False
            for j in range(1, cap + 1):
                field = cached_field(p, j)
                for x in range(field.q):
                    if (poly_eval_in_field(a.coeffs, field, x) == 0
                            and poly_eval_in_field(b.coeffs, field, x) == 0):
                        found = True
                        break
                if found:
                    break
            assert (res == 0) == found, (a.coeffs, b.coeffs, p)


def disc_from_resultant(a):
    """disc(a) = (-1)^(d(d-1)/2) Res(a, a') / lc(a), the pairing critical_value_poly uses."""
    res = (-1) ** (a.degree * (a.degree - 1) // 2) * resultant_uni(a, a.derivative())
    if a.ring is not None:
        return res * pow(a.lc, -1, a.ring) % a.ring
    quo, rem = divmod(res, a.lc)
    assert rem == 0
    return quo


class TestDiscriminant:
    def test_spec_examples(self):
        assert disc_from_resultant(UniPoly([1, 3, 1])) == 9 - 4  # T^2+3T+1
        assert disc_from_resultant(UniPoly([-6, 0, 1])) == 24
        assert disc_from_resultant(UniPoly([1, -2, 1])) == 0     # (T-1)^2
        assert disc_from_resultant(parse_unipoly("T^3-1")) == -27

    def test_double_root_detection(self):
        rng = random.Random(2)
        for _ in range(40):
            r = rng.randint(-5, 5)
            g = UniPoly([rng.randint(-4, 4), rng.choice([1, 2])])
            doubled = UniPoly([r * r, -2 * r, 1])
            prod_coeffs = [0] * (3 + g.degree)
            for i, ci in enumerate(doubled.coeffs):
                for j, cj in enumerate(g.coeffs):
                    prod_coeffs[i + j] += ci * cj
            a = UniPoly(prod_coeffs)
            assert resultant_uni(a, a.derivative()) == 0

    def test_mod_p(self):
        assert disc_from_resultant(UniPoly([1, 3, 1], ring=7)) == 5  # 9 - 4 mod 7


def roots_mod(r):
    """Every root in F_p of r over F_p, by enumeration."""
    return set(np.flatnonzero(r.eval(np.arange(r.ring)) == 0).tolist())


class TestCriticalValuePoly:
    def test_spec_examples(self):
        assert roots_mod(critical_value_poly(parse_unipoly("T^2"), 5)) == {0}
        assert roots_mod(critical_value_poly(parse_unipoly("T^3-3*T"), 5)) == {2, 3}
        assert roots_mod(critical_value_poly(parse_unipoly("T^2+1"), 7)) == {1}

    def test_degenerate_derivative(self):
        with pytest.raises(ValueError):
            critical_value_poly(UniPoly([1, 0, 0, 0, 0, 1], ring=5), 5)  # T^5+1

    @pytest.mark.parametrize("text", ["T^2", "-3*T^2+T", "2*T^3+T+1", "6*T^4-T^3+5",
                                      "35*T^5-T^2+3*T-7"])
    def test_over_Z_is_the_resultant_everywhere(self, text):
        # interpolated through s = 0..d-1, r(s) = Res_T(h - s, h') at every other s too,
        # and its leading coefficient is (-1)^(d-1) d^d lc(h)^d
        h = parse_unipoly(text)
        d, r = h.degree, critical_value_poly(h)
        assert r.ring is None and r.degree == d - 1
        assert r.lc == (-1) ** (d - 1) * d**d * h.lc**d
        for s in range(-30, 31):
            assert r.eval(s) == resultant_uni(h.sub_const(s), h.derivative())

    @pytest.mark.parametrize("text", ["2*T^3+T+1", "6*T^4-T^3+5", "35*T^5-T^2+3*T-7"])
    def test_over_Z_refuses_values_off_an_integer_polynomial(self, text, monkeypatch):
        # one value off by one at s = 0 adds prod_{j=1..d-1} (s - j) / (d-1)!, outside Z[s]
        # for d >= 3, so the division by (d-1)! is not exact
        real, calls = polynomials.resultant_uni, itertools.count()
        monkeypatch.setattr(polynomials, "resultant_uni",
                            lambda a, b: real(a, b) + (next(calls) == 0))
        with pytest.raises(ArithmeticError, match="not exact"):
            critical_value_poly(parse_unipoly(text))

    def test_matches_extension_search(self):
        # roots in F_p == critical values over F_{p^j} (j <= 4) landing in F_p
        bank = ["T^2", "T^3", "T^3-3*T", "T^4+T", "2*T^3+1", "T^5-T^2"]
        for text in bank:
            h = parse_unipoly(text)
            for p in (7, 11, 13):
                if h.reduce_mod(p).degree < 2:
                    continue
                r = critical_value_poly(h, p)
                dh = h.reduce_mod(p).derivative()
                expected = set()
                for j in range(1, 5):
                    if p**j > 40000:
                        break
                    field = cached_field(p, j)
                    crit = poly_eval_everywhere(dh.coeffs, field) == 0
                    vals = poly_eval_everywhere(h.coeffs, field)[crit]
                    # base-field elements embed as indices 0..p-1
                    expected |= set(int(v) for v in vals[vals < p])
                assert roots_mod(r) == expected, (text, p)
