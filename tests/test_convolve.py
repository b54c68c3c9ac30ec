import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polysieve import convolve
from polysieve.convolve import fold, wrap
from polysieve.errors import InvariantViolation

from _oracles import cyclic_convolve_direct, fold_direct


def _seeded(*shapes):
    """The parts of test_varieties' cyclic fold cases: counts below 50 from a fixed seed."""
    rng = np.random.default_rng(len(shapes[0]))
    return [rng.integers(0, 50, shape) for shape in shapes]


@st.composite
def fold_parts(draw, pairs=None):
    """2 or 3 nonnegative int64 arrays of one ndim (1 or 2), length-1 axes
    reachable; the first part's counts may lie near 2^40, far past the
    rounding bound, so the fold splits them into limbs.  The product of the
    masses stays below 2^62.  With pairs, 2 arrays, the second one sparse
    where drawn so."""
    ndim = draw(st.integers(1, 2))
    side = st.integers(1, 8 if ndim == 1 else 4)
    parts = []
    for j in range(draw(st.integers(2, 3)) if pairs is None else 2):
        shape = tuple(draw(st.lists(side, min_size=ndim, max_size=ndim)))
        heavy = j == 0 and draw(st.booleans())
        count = st.one_of(st.just(0), st.integers(2**40 - 2**20, 2**40)) if heavy \
            else st.integers(0, 15)
        if pairs and j == 1 and draw(st.booleans()):
            count = st.sampled_from([0] * 6 + [1, 2, 15])
        cells = draw(st.lists(count, min_size=math.prod(shape), max_size=math.prod(shape)))
        parts.append(np.array(cells, dtype=np.int64).reshape(shape))
    return parts


class TestFold:
    @settings(max_examples=150)
    @given(fold_parts())
    @example(_seeded((7,), (7,), (7,)))
    @example(_seeded((2, 2), (2, 2), (2, 2)))
    @example(_seeded((5, 3), (5, 3), (5, 3)))
    @example(_seeded((4, 4, 2), (4, 4, 2), (4, 4, 2)))
    @example([np.full((1, 3), 2**40), np.array([[1], [2], [3]])])
    @example([np.full(5, 2**40 - 1), np.arange(5), np.ones(1, dtype=np.int64)])
    def test_matches_direct(self, parts):
        got = fold(parts)
        assert got.dtype == np.int64
        assert np.array_equal(got, fold_direct(parts))
        p = parts[0].shape[0]
        if all(h.shape == (p,) for h in parts):  # wrapped, the cyclic product on Z/p
            want = reduce(lambda a, b: cyclic_convolve_direct(a, b, p), parts)
            assert np.array_equal(wrap(got, p), want)

    @settings(max_examples=100)
    @given(fold_parts(pairs=True), st.sampled_from([0, math.inf]))
    @example([np.full((1, 3), 2**40), np.array([[1], [0], [3]])], math.inf)
    @example([np.arange(6).reshape(2, 3), np.array([[0, 0], [2, 0]])], math.inf)
    @example([np.full(5, 2**40 - 1), np.array([0, 0, 7, 0])], 0)
    def test_each_path_matches_direct(self, parts, cell_cost):
        # a cell cost of 0 forces the padded transform, of inf the shifted sums
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(convolve, "_CELL_COST", cell_cost)
            mp.setattr(convolve, "_shifted_sums" if cell_cost == 0 else "_transformed",
                       lambda *args: pytest.fail("the other path"))
            got = fold(parts)
        assert got.dtype == np.int64
        assert np.array_equal(got, fold_direct(parts))

    def test_cost_model_picks_the_cheaper_path(self, monkeypatch):
        # the B = 56 box fold: a 9409-cell histogram times 57 of 3137 cells;
        # klsum's two (1493,) halves at 747 nonzero cells each, and at p = 101
        # two halves of 51, where the cost per shift decides
        rng = np.random.default_rng(5)
        sparse = np.zeros(3137, dtype=np.int64)
        sparse[np.arange(0, 3137, 56)] = 2
        cases = [([rng.integers(0, 9, 9409), sparse], "_transformed"),
                 ([np.tile([0, 1], 747)[:1493], np.tile([1, 0], 747)[:1493]], "_shifted_sums"),
                 ([np.tile([0, 1], 51)[:101], np.tile([1, 0], 51)[:101]], "_shifted_sums")]
        for parts, never in cases:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(convolve, never, lambda *args: pytest.fail(never))
                assert np.array_equal(fold(parts), fold_direct(parts))

    @pytest.mark.parametrize("cell_cost", [0, math.inf])
    def test_certificate_catches_a_wrong_cell_on_each_path(self, monkeypatch, cell_cost):
        parts = [np.arange(1, 13).reshape(3, 4), np.array([[2, 0], [0, 5]])]
        monkeypatch.setattr(convolve, "_CELL_COST", cell_cost)
        name = "_shifted_sums" if cell_cost else "_transformed"
        real = getattr(convolve, name)

        def off(*shifts):
            def path(*args):
                out = real(*args)
                for cell, d in shifts:
                    out[cell] += d
                return out
            return path

        monkeypatch.setattr(convolve, name, off(((1, 2), 1)))
        with pytest.raises(InvariantViolation, match="total"):
            fold(parts)
        # the total still holds: only the checksum sees it
        monkeypatch.setattr(convolve, name, off(((1, 2), 1), ((3, 0), -1)))
        with pytest.raises(InvariantViolation, match="checksum"):
            fold(parts)


class TestCertificateTables:
    def test_checksum_is_the_sum_of_powers(self):
        # counts below 2^32 skip the first reduction, larger or negative ones take it
        rng = np.random.default_rng(9)
        for lo, hi in ((0, 50), (2**32 - 3, 2**32 + 3), (-2**40, 2**40), (-5, 5)):
            h = rng.integers(lo, hi, (3, 5))
            powers = [convolve._powers(pow(7, 5, convolve._CHECK_P), 3), convolve._powers(7, 5)]
            want = sum(int(h[i, j]) * 7 ** (5 * i + j) for i in range(3) for j in range(5))
            assert convolve._checksum(h, powers) == want % convolve._CHECK_P

    def test_powers_tables_are_kept_bounded_and_read_only(self, monkeypatch):
        monkeypatch.setattr(convolve, "_POWERS", {})
        P = convolve._CHECK_P
        for x in (7, 49, 343, 2401, 16807, 7):
            for n in (1, 3, 40, 1000):
                pw = convolve._powers(x, n)
                assert pw.tolist() == [pow(x, i, P) for i in range(n)]
                assert not pw.flags.writeable
        big = convolve._powers(3, convolve._POWERS_MAX + 1)
        assert int(big[-1]) == pow(3, convolve._POWERS_MAX, P)
        assert len(convolve._POWERS) <= convolve._POWERS_KEYS
        assert all(len(pw) <= convolve._POWERS_MAX for pw in convolve._POWERS.values())
        assert 3 not in convolve._POWERS
