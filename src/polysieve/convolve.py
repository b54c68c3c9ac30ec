"""fold: the one exact convolution of integer histograms, for box counts and,
wrapped mod p (wrap), for fiber and pair counts: by shifted sums or padded real
FFTs, whichever the cost model says is cheaper, under one certificate."""

import math
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvariantViolation

# The checksum ring: P = 2^31 - 1 is prime and 7 generates its unit group,
# so r^i != r^j mod P for 0 <= i < j < P - 1.
_CHECK_P, _CHECK_R = 2**31 - 1, 7
# fold's cost model, in int64 cells added: _SHIFT_COST plus the denser part's cells
# per nonzero cell of the sparser, against _CELL_COST per padded cell; fitted to both
# paths' timings on the benchmark catalogue's 111 folds and 73 synthetic ones (2-core x86-64)
_SHIFT_COST, _CELL_COST = 750, 86
_POWERS, _POWERS_MAX, _POWERS_KEYS = {}, 2**17, 4  # _powers' tables: 1 MiB each, 4 of them


@lru_cache(maxsize=4096)
def _fft_len(n):
    """The least 5-smooth integer >= n: numpy's FFT is slow at lengths with
    large prime factors."""
    best, p5 = 1 << (n - 1).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _fft_error_bound(k, ndim, n, mass):
    """Bound on the rounding error of a cell of the FFT product of k nonnegative
    arrays with ndim axes of length at most n and product of masses mass.

    A transform entry errs by at most c u log2(4n) |h|_1 per axis (u = 2^-53;
    c = 16 leaves room for numpy's chirp transforms at prime n), so the
    error is below (k + 1) c u ndim log2(4n) prod |h|_1.
    """
    return (k + 1) * 16 * ndim * math.log2(4 * n) * 2.0**-53 * mass


def fold_cells(shapes):
    """The cells of the padded transform fold builds for parts of these shapes."""
    return math.prod(_fft_len(sum(ns) - len(shapes) + 1) for ns in zip(*shapes))


def _powers(x, n):
    """x^0, ..., x^(n-1) mod _CHECK_P, read-only, by doubling the table kept for
    x; the least recently used of _POWERS goes first."""
    pw = _POWERS.pop(x, np.ones(1, dtype=np.int64))
    while len(pw) < n:
        pw = np.concatenate([pw, pw * pow(x, len(pw), _CHECK_P) % _CHECK_P])
    pw.setflags(write=False)
    if len(pw) <= _POWERS_MAX:
        _POWERS[x] = pw
    if len(_POWERS) > _POWERS_KEYS:
        del _POWERS[next(iter(_POWERS))]
    return pw[:n]


def _checksum(h, powers):
    """sum h[i] prod_k powers[k][i_k] mod P, exact in int64, contracted one
    axis at a time against its table of powers; counts below 2^32 in absolute
    value need no reduction before the first product."""
    acc = h if h.size and -2**32 < h.min() and h.max() < 2**32 else h % _CHECK_P
    for pw in powers:
        pw = pw[:len(acc)].reshape((-1,) + (1,) * (acc.ndim - 1))
        acc = acc * pw if acc is h else np.multiply(acc, pw, out=acc)  # one copy of h alive
        acc %= _CHECK_P
        acc = acc.sum(axis=0) % _CHECK_P
    return int(acc)


def _limb(h, lo, width):
    """Bits lo .. lo + width - 1 of the counts of h; all of h where width is None."""
    return h if width is None else h >> lo & (1 << width) - 1


def _limbs(parts, n, bits):
    """Lists of (lo, width) per part (_limb) whose limb products, each within the
    rounding bound at the padded shape n and shifted left by its sum of lo, add
    up to the product of the limbs at bits.  Past the bound, the heaviest limb
    with a count above 1 splits into x >> s and x & (2^s - 1), s half the bits
    of its largest count, which every split lowers; OverflowError where only
    0/1 limbs are left."""
    stats = [(int(x.sum()), int(x.max())) for x in (_limb(h, *b) for h, b in zip(parts, bits))]
    mass = math.prod(m for m, _ in stats)
    bound = _fft_error_bound(len(parts), len(n), max(n), mass)
    if bound < 0.5:
        return [bits]
    i = max(range(len(parts)), key=lambda i: (stats[i][1] > 1, stats[i][0]))
    if stats[i][1] < 2:
        raise OverflowError(f"FFT fold of 0/1 parts of mass {mass} could round wrongly "
                            f"(error bound {bound:.3g})")
    lo, top = bits[i][0], stats[i][1].bit_length()
    return [c for limb in ((lo + top // 2, top - top // 2), (lo, top // 2))
            for c in _limbs(parts, n, bits[:i] + [limb] + bits[i + 1:])]


def _shifted_sums(a, b, shape):
    """The linear product of a and b as one shifted copy of c * a per nonzero
    cell c of b, the cells taken by count so each c * a is built once."""
    out, scaled, last = np.zeros(shape, dtype=np.int64), np.empty(a.shape, np.int64), 0
    windows = sliding_window_view(out, a.shape, writeable=True)
    for at in map(tuple, np.argwhere(b)[np.argsort(b[b != 0], kind="stable")].tolist()):
        if b[at] != last:
            last = b[at]
            np.multiply(a, last, out=scaled)
        window = windows[at]
        window += scaled
    return out


def _transformed(parts, shape):
    """The linear product of the parts: one real FFT product at 5-smooth lengths
    per product of _limbs, later limbs' spectra taken and multiplied in blocks of
    at most 2^20 cells, inverted in place but for the last axis, and rounded."""
    n, axes, out = tuple(map(_fft_len, shape)), tuple(range(len(shape))), None
    crop, step = tuple(map(slice, shape)), max(1, 2**20 // math.prod(n[:-1]))
    for bits in _limbs(parts, n, [(0, None)] * len(parts)):
        spec = np.fft.rfftn(_limb(parts[0], *bits[0]), n, axes)
        for h, b in zip(parts[1:], bits[1:]):  # in blocks: one padded spectrum is alive
            half = np.fft.rfft(_limb(h, *b), n[-1], axis=-1)
            for j in range(0, half.shape[-1], step):
                spec[..., j:j + step] *= np.fft.fftn(half[..., j:j + step], n[:-1], axes[:-1])
            del half
        np.fft.ifftn(spec, n[:-1], axes[:-1], out=spec)
        cells = np.fft.irfftn(spec[crop[:-1]], n[-1:], axes[-1:])[crop]
        del spec
        term = np.rint(cells, out=cells).astype(np.int64)
        del cells
        term <<= sum(lo for lo, _ in bits)
        out = term if out is None else np.add(out, term, out=out)
    return out


def fold(parts):
    """Exact linear convolution of nonnegative int64 arrays of one ndim.

    Two parts take shifted sums (_shifted_sums) where the cost model says
    they are cheaper than the padded transform (_transformed).  Either way
    the int64 total must equal the product of the masses and the checksum
    of the output on its flat offsets the product of the parts' on offsets
    in its layout (a polynomial identity for a linear product), or
    InvariantViolation.  OverflowError, before any sum or transform, where
    the mass passes int64 or 0/1 limbs fail the bound.
    """
    shape = tuple(sum(ns) - len(parts) + 1 for ns in zip(*(h.shape for h in parts)))
    mass = math.prod(int(h.sum()) for h in parts)
    if mass >= 2**63:
        raise OverflowError(f"fold of mass {mass} would overflow 64-bit integers")
    dense, sparse = sorted(parts, key=np.count_nonzero, reverse=True)[:2]
    if len(parts) == 2 and (np.count_nonzero(sparse) * (_SHIFT_COST + dense.size)
                            < _CELL_COST * fold_cells([h.shape for h in parts])):
        out = _shifted_sums(dense, sparse, shape)
    else:
        out = _transformed(parts, shape)
    if int(out.sum()) != mass:
        raise InvariantViolation(f"fold total {int(out.sum())} != product of masses {mass}")
    # axis k's r^(i stride_k): r^(flat offset) is their product over the axes
    powers = [_powers(pow(_CHECK_R, math.prod(shape[k + 1:]), _CHECK_P), m)
              for k, m in enumerate(shape)]
    if _checksum(out, powers) != math.prod(_checksum(h, powers) for h in parts) % _CHECK_P:
        raise InvariantViolation("fold checksum differs from the product of the parts'")
    return out


def wrap(h, p):
    """h summed over cells congruent mod p on each axis: a linear product
    wrapped this way is the cyclic product on (Z/p)^ndim."""
    for ax in range(h.ndim):
        h, out = np.moveaxis(h, ax, 0), np.zeros((p,) + h.shape[:ax] + h.shape[ax + 1:], h.dtype)
        for start in range(0, len(h), p):
            out[:len(h[start:start + p])] += h[start:start + p]
        h = np.moveaxis(out, 0, ax)
    return np.ascontiguousarray(h)
