import math
from functools import reduce

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polysieve.convolve import fold, wrap

from _oracles import cyclic_convolve_direct, fold_direct


def _seeded(*shapes):
    """The parts of test_varieties' cyclic fold cases: counts below 50 from a fixed seed."""
    rng = np.random.default_rng(len(shapes[0]))
    return [rng.integers(0, 50, shape) for shape in shapes]


@st.composite
def fold_parts(draw):
    """2 or 3 nonnegative int64 arrays of one ndim (1 or 2), length-1 axes
    reachable; the first part's counts may lie near 2^40, far past the
    rounding bound, so the fold splits them into limbs.  The product of the
    masses stays below 2^62."""
    ndim = draw(st.integers(1, 2))
    side = st.integers(1, 8 if ndim == 1 else 4)
    parts = []
    for j in range(draw(st.integers(2, 3))):
        shape = tuple(draw(st.lists(side, min_size=ndim, max_size=ndim)))
        heavy = j == 0 and draw(st.booleans())
        count = st.one_of(st.just(0), st.integers(2**40 - 2**20, 2**40)) if heavy \
            else st.integers(0, 15)
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
