import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polysieve

from polysieve.errors import PolyParseError
from polysieve.fields import cached_field
from polysieve.polynomials import (MultiPoly, UniPoly, critical_value_poly,
                                   discriminant_uni, parse_multipoly,
                                   parse_unipoly, resultant_sylvester,
                                   resultant_uni)

from _oracles import poly_eval_everywhere, poly_eval_in_field


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


class TestCalculus:
    def test_gradient_examples(self):
        F = parse_multipoly("X0^2+X1^2")
        assert [g.to_text() for g in F.gradient()] == ["2*X0", "2*X1"]
        cube = MultiPoly(1, {(3,): 1}, ring=3)
        assert cube.gradient()[0].is_zero()
        assert [g.to_text() for g in parse_multipoly("X0*X1").gradient()] \
            == ["X1", "X0"]

    def test_homogenize_examples(self):
        aff = parse_multipoly("X0^2+X1^2-1")
        hom = aff.homogenize(0)
        assert hom.is_homogeneous()
        assert hom == parse_multipoly("X1^2+X2^2-X0^2", n_vars=3)
        assert hom.drop_var(0) == aff
        # already homogeneous: only the arity changes
        quad = parse_multipoly("X0^2+X1^2")
        assert quad.homogenize(0).drop_var(0) == quad
        cubic = parse_multipoly("X0^3+X0", n_vars=1)
        hom2 = cubic.homogenize(0)
        assert hom2 == MultiPoly(2, {(0, 3): 1, (2, 1): 1})


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

    def test_fast_paths_match_sylvester_oracle(self):
        rng = random.Random(11)
        for _ in range(300):
            da, db = rng.randint(1, 5), rng.randint(1, 5)
            a = UniPoly([rng.randint(-8, 8) for _ in range(da)]
                        + [rng.choice([1, 2, -3])])
            b = UniPoly([rng.randint(-8, 8) for _ in range(db)]
                        + [rng.choice([1, 2, -3])])
            assert resultant_uni(a, b) == resultant_sylvester(a, b)
        for _ in range(300):
            p = rng.choice([3, 5, 7, 13])
            da, db = rng.randint(1, 5), rng.randint(1, 5)
            a = UniPoly([rng.randrange(p) for _ in range(da)]
                        + [rng.randrange(1, p)], ring=p)
            b = UniPoly([rng.randrange(p) for _ in range(db)]
                        + [rng.randrange(1, p)], ring=p)
            assert resultant_uni(a, b) == resultant_sylvester(a, b)

    def test_euclid_loop_stops_on_composite_ring(self):
        # mod 9 the leading coefficient 3 has no inverse, so no remainder
        # step lowers the degree; run in a child so a hang fails on the
        # timeout instead of stalling the suite
        code = ("from polysieve.errors import InvariantViolation\n"
                "from polysieve.polynomials import UniPoly, _resultant_euclid_modp\n"
                "try:\n"
                "    _resultant_euclid_modp(UniPoly([1, 0, 1], 9), UniPoly([1, 3], 9), 9)\n"
                "except InvariantViolation as exc:\n"
                "    print('raised:', exc)\n")
        src = str(Path(polysieve.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src},
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("raised: remainder degree")

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


class TestDiscriminant:
    def test_spec_examples(self):
        assert discriminant_uni(UniPoly([1, 3, 1])) == 9 - 4  # T^2+3T+1
        assert discriminant_uni(UniPoly([-6, 0, 1])) == 24
        assert discriminant_uni(UniPoly([1, -2, 1])) == 0     # (T-1)^2
        assert discriminant_uni(parse_unipoly("T^3-1")) == -27

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
            assert discriminant_uni(UniPoly(prod_coeffs)) == 0

    def test_mod_p(self):
        disc = discriminant_uni(UniPoly([1, 3, 1], ring=7))
        assert disc == 5  # 9 - 4 mod 7


class TestCriticalValuePoly:
    def test_spec_examples(self):
        r = critical_value_poly(parse_unipoly("T^2"), 5)
        assert r.roots_mod() == {0}
        r = critical_value_poly(parse_unipoly("T^3-3*T"), 5)
        assert r.roots_mod() == {2, 3}
        r = critical_value_poly(parse_unipoly("T^2+1"), 7)
        assert r.roots_mod() == {1}

    def test_degenerate_derivative(self):
        with pytest.raises(ValueError):
            critical_value_poly(UniPoly([1, 0, 0, 0, 0, 1], ring=5), 5)  # T^5+1

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
                assert r.roots_mod() == expected, (text, p)
