"""Box counting N(f, F, B), sieve acceleration, and the complete-sum tools.

Counts integer points x in [-B, B]^(n+1) whose value F(x) is hit by f
over Z.  Each problem has one histogram: the distinct values of F on the
box with their multiplicities.  It is folded from the histograms of the
groups of variables that share no monomial, so the box itself is never
enumerated when F is additively separable (every diagonal form).  Each
fold takes whichever method allocates less: sorted pairwise sums, or the
certified exact convolution over the value span (convolve.fold).  The
budget is charged for the group grids and folds as they are built, not
for the (2B+1)^m box.  Every count works on distinct values weighted by
multiplicity.  The exact count tests each value against f's values
(sieve.in_h_image); the sieve-accelerated count prefilters values through
per-prime image bitmaps and verifies survivors exactly, so the two
counts agree by construction (asserted).  A sum at one frequency u, the
CRT check's mod-pq side too, is F's pushforward twisted by <u, x>
(varieties.mixed_sum); the Poisson window's sums, varieties.complete_sums.
"""

import math
from dataclasses import dataclass, field as dc_field
from functools import lru_cache, reduce

import numpy as np

from .convolve import fold, fold_cells
from .errors import DEFAULT_BUDGET, InvariantViolation, charge
from .fields import primes_in
from .polynomials import MultiPoly, UniPoly, broadcast_grid
from .sieve import in_h_image, membership_filter, pick_primes, sieve_threshold
from .varieties import (_INT64_SAFE, _diagonal_applies, _pushforward, _pushforward_plan,
                        _sums_plan, _variable_groups, complete_sums, fiber_histogram,
                        mixed_sum, smoothness_scan)


@dataclass(frozen=True)
class BoxProblem:
    """An (f, F, B) instance: f in Z[T], F homogeneous over Z, box radius B."""

    f: UniPoly
    F: MultiPoly
    B: int

    def __post_init__(self):
        if self.f.ring is not None or self.F.ring is not None:
            raise ValueError("f and F must have integer coefficients")
        if self.f.degree < 2:
            raise ValueError("deg f must be >= 2")
        if self.F.total_degree < 2:
            raise ValueError("deg F must be >= 2")
        if not self.F.is_homogeneous():
            raise ValueError("F must be homogeneous")
        if self.B < 0:
            raise ValueError("B must be nonnegative")

    @property
    def n(self):
        """The box lives in n+1 variables; exponents are stated in this n."""
        return self.F.n_vars - 1

    @property
    def heights(self):
        return {"f": self.f.height(), "F": self.F.height()}


def _check_values(F, B):
    """Refuse F whose values on [-B, B]^m could pass int64: first by bit length, where
    one term's B^|e| >= 2^(|e| floor(log2 B)) reaches 2^62, so no larger power is built."""
    bits = max(B, 1).bit_length() - 1
    if any(sum(e) * bits >= 62 for e in F.terms) or sum(
            abs(c) * max(B, 1) ** sum(e) for e, c in F.terms.items()) >= _INT64_SAFE:
        raise OverflowError("box values would overflow 64-bit integers")


def box_value_array(F, B):
    """F evaluated on the full integer box, flattened int64 array; the caller
    charges its (2B+1)^m points."""
    _check_values(F, B)
    coords = broadcast_grid([np.arange(-B, B + 1, dtype=np.int64)] * F.n_vars)
    return np.ravel(F.eval(coords))


@dataclass(frozen=True)
class BoxHistogram:
    """Distinct values of F on the box [-B, B]^m and their multiplicities."""

    values: np.ndarray     # sorted distinct int64 values
    counts: np.ndarray     # counts[i] = #{x in the box : F(x) = values[i]}

    @property
    def total_points(self):
        return int(self.counts.sum())

    @property
    def v_max(self):
        """max |F(x)| over the box."""
        return int(max(-self.values[0], self.values[-1]))


def _fold(a, b):
    """Histogram of x + y over all pairs from the (values, counts) pairs a and b.

    The pairwise sums are sorted and the weights of equal runs added, so
    the result is exact in int64 and its memory is O(pairs), whatever the
    span of the values.
    """
    (va, ca), (vb, cb) = a, b
    sums = np.add.outer(va, vb).ravel()
    order = np.argsort(sums)
    sums = sums[order]
    starts = np.flatnonzero(np.r_[True, sums[1:] != sums[:-1]])
    values = sums[starts]
    del sums  # at most three arrays of pair length are alive at once
    weights = np.multiply.outer(ca, cb).ravel()[order]
    return values, np.add.reduceat(weights, starts)


def _dense_length(a, b):
    """The padded length of a dense fold of a and b, or None for the sparse fold:
    dense where the value spans cost less than the pairs."""
    spans = [(int(v[-1] - v[0]) + 1,) for v, _ in (a, b)]
    return fold_cells(spans) if sum(n for n, in spans) < len(a[0]) * len(b[0]) else None


def box_histogram(F, B, budget=DEFAULT_BUDGET):
    """The value histogram of F on the box, folded from its variable groups.

    F is the sum of sub-forms on groups of variables that share no
    monomial; each group is evaluated on its own (2B+1)^|g| grid and
    reduced to a histogram, and the group histograms are folded together,
    each fold by the method that allocates less (_dense_length): the
    sorted nnz_a nnz_b pairwise sums, or the certified exact convolution
    of the counts laid out over the value spans (convolve.fold).  A
    non-separable F is one group, evaluated on the full box.  Each grid
    and each fold (its pairs or its padded length) is charged to the
    budget before it is built; values and counts past int64 are refused up front.
    """
    _check_values(F, B)
    if (2 * B + 1) ** F.n_vars >= 2**63:
        raise OverflowError("box point counts would overflow 64-bit integers")
    spent, hist = 0, None
    for _, sub in _variable_groups(F):
        spent = charge(spent, (2 * B + 1) ** sub.n_vars, budget, "box histogram")
        part = np.unique(box_value_array(sub, B), return_counts=True)
        if hist is None:
            hist = part
            continue
        n = _dense_length(hist, part)
        spent = charge(spent, len(hist[0]) * len(part[0]) if n is None else n, budget,
                       "box histogram")
        if n is None:
            hist = _fold(hist, part)
            continue
        dense = [np.zeros(int(v[-1] - v[0]) + 1, dtype=np.int64) for v, _ in (hist, part)]
        for x, (v, c) in zip(dense, (hist, part)):
            x[v - v[0]] = c
        cells = np.flatnonzero(out := fold(dense))
        hist = hist[0][0] + part[0][0] + cells, out[cells]
    return BoxHistogram(*hist)


def exact_count(f, hist, budget=DEFAULT_BUDGET):
    """Exact N(f, F, B): the multiplicities of the box values in f(Z)."""
    return int(hist.counts[in_h_image(f, hist.values, budget=budget)].sum())


@dataclass(frozen=True)
class FilteredCount:
    count: int
    total_points: int
    rejected_by_sieve: int
    verified_exactly: int
    exact: int  # the unfiltered exact count, asserted equal to count

    @property
    def rejection_ratio(self):
        return self.rejected_by_sieve / self.total_points if self.total_points else 0.0


def sieve_filtered_count(f, hist, prime_data, budget=DEFAULT_BUDGET):
    """Count with the per-prime image prefilter, then exact verification.

    The filter runs over the distinct box values; every tally weighs a
    value by its multiplicity.  The filter is conservative (values of f
    over Z survive every prime), so count equals the exact count, which
    the result also carries (exact); this is asserted.
    """
    keep = membership_filter(prime_data, hist.values)
    hit = in_h_image(f, hist.values, budget=budget)
    total = hist.total_points
    survivors = int(hist.counts[keep].sum())
    out = FilteredCount(count=int(hist.counts[keep & hit].sum()),
                        total_points=total,
                        rejected_by_sieve=total - survivors,
                        verified_exactly=survivors,
                        exact=int(hist.counts[hit].sum()))
    if out.count != out.exact:
        raise InvariantViolation(
            f"sieve-filtered count {out.count} != exact count {out.exact}")
    return out


@dataclass(frozen=True)
class PrimeSelection:
    primes: tuple
    q_parameter: float
    window: tuple
    semi_decided: bool      # F not diagonal: good reduction by smoothness_scan
    k_max: int
    skipped: dict = dc_field(default_factory=dict)
    prime_data: tuple = dc_field(default=(), compare=False, repr=False)  # one per prime


def select_primes(problem, k_max=2, budget=DEFAULT_BUDGET):
    """The sieve prime window [Q, 2Q] with Q = B^((n+1)/(n+2)) (log B)^(1/(n+2)).

    Keeps p with f non-surjective mod p and good reduction for V(F):
    exactly for diagonal F; otherwise by smoothness_scan, either certified
    over the algebraic closure or with no singular point up to k_max.  The
    p points of every window prime's data are charged before any is built.
    """
    B, n = problem.B, problem.n
    if B < 3:
        raise ValueError("B < 3 leaves an empty prime window")
    expo = (n + 1) / (n + 2)
    q_param = B**expo * math.log(B) ** (1 / (n + 2))
    lo, hi = math.ceil(q_param), math.floor(2 * q_param)
    window = primes_in(max(lo, problem.f.degree + 1), hi)
    charge(0, sum(window), budget, "prime data")
    detecting, skipped = pick_primes(problem.f, window)
    diag = problem.F.as_diagonal()
    for p in [data.p for data in detecting]:
        if diag is not None:  # good exactly where p divides neither d nor a coefficient
            good = _diagonal_applies(*diag, p)
        else:
            good = smoothness_scan(problem.F.reduce_mod(p), p, k_max, budget).smooth
        if not good:
            skipped[p] = "bad reduction"
    picked = tuple(data for data in detecting if data.p not in skipped)
    if not picked:
        raise ValueError(
            f"no usable primes in the window [{lo}, {hi}]; widen B or pass primes")
    return PrimeSelection(tuple(d.p for d in picked), q_param, (lo, hi), diag is None, k_max,
                          dict(sorted(skipped.items())), picked)


def exceptional_set(f, prime_data, v_max, threshold_mode="lemma",
                    budget=DEFAULT_BUDGET):
    """Integers k in the F-value range hitting many exceptional sets.

    Returns the sorted int64 array of k in [-M, M] with
    #{p : k mod p in S_{f,p}} >= threshold, M = v_max, the largest |F|
    over the box (BoxHistogram.v_max).  Per prime, each exceptional residue s
    counts once at every k = s mod p of the range, one strided slice.
    """
    size = charge(0, 2 * v_max + 1, budget, "exceptional set")
    threshold = sieve_threshold(len(prime_data), f.degree, threshold_mode)
    counts = np.zeros(size, dtype=np.int32)  # one per prime at most
    for data in prime_data:  # entry i is k = i - M
        for s in np.flatnonzero(data.exceptional):
            counts[(s + v_max) % data.p::data.p] += 1
    return np.flatnonzero(counts >= threshold) - v_max


def complete_sum_g(F, t, u, p, budget=DEFAULT_BUDGET):
    """g(u, t) = sum over a in F_p^m of t(F(a)) e(<a, u>/p).

    The u = 0 sum is grouped by fiber (the exact integer fiber_histogram);
    u != 0 is mixed_sum with the linear twist <u, x>, one pushforward per
    variable group, a slab of its p^|g| grid at a time: O(sum_g p^|g| + p log p).
    """
    if t.q != p:
        raise ValueError("trace table does not live on F_p")
    if len(u) != F.n_vars:
        raise ValueError("u arity mismatch")
    if not any(int(c) % p for c in u):
        return complex((fiber_histogram(F, p, budget=budget) * t.values).sum())
    ux = MultiPoly(len(u), zip(np.eye(len(u), dtype=int), [int(c) % p for c in u]))  # <u, x>
    return mixed_sum(F, ux, t.values, p, budget)


def _crt_plan(F, u, p, q, budget=DEFAULT_BUDGET):
    """crt_factor_check's refusals and mod-pq charge, none of which needs a trace table."""
    if p == q:
        raise ValueError("p and q must be distinct")
    if len(u) != F.n_vars:
        raise ValueError("u arity mismatch")
    ux = MultiPoly(len(u), zip(np.eye(len(u), dtype=int), [int(c) % (p * q) for c in u]))
    return _pushforward_plan(F, ux, p * q, budget)


def crt_factor_check(F, u, p, q, t_p, t_q, budget=DEFAULT_BUDGET):
    """Compare the mod-pq complete sum against its CRT product form.

    lhs = sum over a mod pq of t_p(F(a)) conj(t_q(F(a))) e(<a,u>/pq): the pq table against
    F's pushforward twisted by <u, x> mod pq, built first, over grids (Z/pq is no field); rhs =
    g(qbar u, t_p) * g(pbar u, conj t_q), qbar = q^-1 mod p, pbar = p^-1 mod q.
    """
    N = p * q
    pushed = _pushforward(_crt_plan(F, u, p, q, budget), N)  # charged, then built, first
    table = t_p.values[np.arange(N) % p] * np.conj(t_q.values[np.arange(N) % q])
    lhs = complex((table * pushed).sum())
    qbar, pbar = pow(q, -1, p), pow(p, -1, q)
    g1 = complete_sum_g(F, t_p, [qbar * int(c) % p for c in u], p, budget)
    g2 = complete_sum_g(F, t_q.conj(), [pbar * int(c) % q for c in u], q, budget)
    rhs = g1 * g2
    err = abs(lhs - rhs)
    return {"lhs": lhs, "rhs": rhs, "error": err, "rel_error": err / max(abs(lhs), 1.0)}


# ---------------------------------------------------------------------------
# smooth weights and Poisson comparison

def _bump(t):
    with np.errstate(divide="ignore"):  # exp(-1/0) = 0 outside (-1, 1)
        return np.exp(-1 / np.maximum(1 - np.square(np.asarray(t, dtype=float)), 0))


@lru_cache(maxsize=None)
def _bump_derivative_l1(order):
    """||w^(k)||_1 of the unit bump, rounded up; k = order = 0 is wh(0) plus its error bound.

    w^(k)(s) = P_k(s) (1-s^2)^(-2k) w(s) with integer polynomials P_0 = 1,
    P_{k+1} = P_k' (1-s^2)^2 + (4ks(1-s^2) - 2s) P_k.  So ||w^(k)||_1, k > 0, is
    the total variation of w^(k-1) over -1, the (Newton-polished) real
    zeros s of P_k in (-1, 1) and 1: a lower bound for any points s, and
    w^(k-1)(s), taken in rationals, has rounding error below eps (2 + 1/u),
    u = 1-s^2, which is added back.
    """
    if order == 0:
        return SmoothWeight(1).wh(0.0) + SmoothWeight(1).wh_error(0.0)
    from fractions import Fraction  # pulls in decimal; only the Poisson path needs it

    polys = [np.array([1], dtype=object)]  # highest degree first, exact ints
    for k in range(order):
        polys.append(np.polyadd(np.polymul(np.polyder(polys[-1]), [1, 0, -2, 0, 1]),
                                np.polymul([-4 * k, 0, 4 * k - 2, 0], polys[-1])))
    pk, dp = polys[order].astype(float), np.polyder(polys[order]).astype(float)
    roots = np.roots(pk)
    z = np.sort(roots.real[(np.abs(roots.imag) < 1e-6) & (np.abs(roots.real) < 1)])
    for _ in range(3):
        z = z - np.polyval(pk, z) / np.polyval(dp, z)
    vals, total = [0.0], 0.0
    for s in map(Fraction, z):
        u = 1 - s * s
        vals.append(float(np.polyval(polys[order - 1], s) / u ** (2 * order - 2))
                    * math.exp(-float(1 / u)))
        total += 2 * np.finfo(float).eps * (2 + float(1 / u)) * abs(vals[-1])
    return total + float(np.abs(np.diff(vals, append=0.0)).sum())


def _freqs(xi):
    """|xi| as an array, and its trapezoid node count: the least power of two
    >= max(4096, 4 max|xi|), so N/2 - |xi| >= N/4 for every xi."""
    xi = np.abs(np.asarray(xi, dtype=float))
    return xi, 2 ** max(12, math.ceil(math.log2(max(4 * xi.max(initial=0.0), 1.0))))


class SmoothWeight:
    """Product bump weight supported on [-B, B]^m with a trapezoid transform.

    w(t) = exp(-1/(1-t^2)) on (-1, 1); W(x) = prod w(x_i / B).  The 1-d
    transform wh(xi) = int w(t) e(-xi t) dt is one trapezoid sum on N
    nodes over [-1, 1], N set by the largest |xi| asked for (_freqs).  By
    Poisson summation its error is sum_{j != 0} wh(xi + jN/2), at most
    2 sum_{j >= 1} wh_bound(jN/2 - |xi|) (wh_error); the trapezoid rule
    is spectrally accurate for the bump, so the true error is far smaller.
    """

    kappa = 4  # order of the derivative in the envelope and the error bounds

    def __init__(self, B):
        if B <= 0:
            raise ValueError("B must be positive")
        self.B = B

    def weight_1d(self, xs):
        return _bump(np.asarray(xs, dtype=float) / self.B)

    def wh(self, xi):
        """1-d transform of the unit bump at a frequency or an array of them."""
        (xi, n), shape = _freqs(xi), np.shape(xi)
        xi, where = np.unique(xi, return_inverse=True)  # w is even: one sum per |xi|
        t = np.arange(1, n // 2) * (2 / n)  # the nodes in (0, 1)
        out = (2 / n) * (math.exp(-1) + 2 * np.cos(2 * np.pi * np.multiply.outer(xi, t))
                         @ _bump(t))[where].reshape(shape)
        return out if out.ndim else float(out)

    def wh_error(self, xi):
        """Bound on the trapezoid error of wh(xi), same node count as wh(xi).

        2 sum_{j >= 1} c (2 pi (jN/2 - |xi|))^-kappa, c = ||w^(kappa)||_1,
        summed as its first term plus the integral of the rest.
        """
        (xi, n), k = _freqs(xi), self.kappa
        a = n / 2 - xi
        out = (2 * _bump_derivative_l1(k) * (2 * math.pi)**-k
               * (a**-k + 2 * a**(1 - k) / ((k - 1) * n)))
        return out if out.ndim else float(out)

    def wh_bound(self, xi):
        """Analytic envelope min(||w||_1, ||w^(k)||_1 / (2 pi |xi|)^k), both rounded up."""
        xi = np.abs(np.asarray(xi, dtype=float))
        with np.errstate(divide="ignore"):
            out = np.minimum(_bump_derivative_l1(0),
                             _bump_derivative_l1(self.kappa) / (2 * math.pi * xi) ** self.kappa)
        return out if out.ndim else float(out)

    def tail_sum_bound(self, scale, cutoff):
        """Upper bound for sum over |u| > cutoff of B * wh_bound(B u / scale)."""
        terms, k = max(10 * cutoff, 200), self.kappa
        uu = np.arange(cutoff + 1, terms + 1)
        # the envelope up to `terms`, plus the integral of its monotone decay past them
        return float(2 * self.B * self.wh_bound(self.B * uu / scale).sum()
                     + 2 * self.B * _bump_derivative_l1(k) * (2 * math.pi * self.B / scale)**-k
                     * terms ** (1 - k) / (k - 1))


def _fold_pairs(grids, N):
    """Per fold of the group grids mod N, its sorted pairs, at most min(points so far, N)
    min(group points, N), or None where those reach N: one cyclic product of N cells."""
    pairs = [min(math.prod(grids[:k]), N) * min(g, N) for k, g in enumerate(grids[1:], 1)]
    return [n if n < N else None for n in pairs]


def poisson_compare(F, p, q, t_p, t_q, B, u_cutoff=None, budget=DEFAULT_BUDGET):
    """Weighted box sum versus its truncated Poisson dual, with a tail bound.

    direct = sum over integer x of W(x) t_p(F(x)) conj(t_q(F(x)));
    poisson = (pq)^-m sum over |u_i| <= u_cutoff of g(u) What(u/pq).
    tail_bound = S ((A + E + T)^m - A^m), S = sup|t_p| sup|t_q|: A sums
    the window's B |wh| as computed, E their trapezoid error bounds and T
    the analytic tail past the window (rounded-up ||w^(kappa)||_1).
    When u_cutoff is omitted it grows until the tail bound drops below
    1e-4 of the main-term scale.  Raises InvariantViolation when the gap
    exceeds tail_bound + 1e-6.

    The box side folds the groups' bump-weighted histograms of F mod N =
    pq by sorted pairs or a cyclic product of length-N vectors
    (_fold_pairs).  The dual side takes g_p(qbar u) and g_q(pbar u) from
    complete_sums on the U_N = min(W, N) distinct window residues (W =
    2 u_cutoff + 1) and sums them against What through the D <= W distinct
    residue pairs, one axis at a time; a non-separable F costs one p^m and
    one q^m table.  The group grids, the folds, the tables, the passes and
    the trapezoid grid of the window are charged up front, after the auto
    search's own window, which then holds the final one.
    """
    if p == q:
        raise ValueError("p and q must be distinct")
    m = F.n_vars
    W = SmoothWeight(B)
    N = p * q
    S = t_p.sup_bound * t_q.sup_bound

    def window(c):
        """B wh(B u / N) and its trapezoid error bound for u = -c..c, one sum."""
        xi = B * np.arange(-c, c + 1) / N
        return B * W.wh(xi), B * W.wh_error(xi)

    def window_cells(c):  # the (2c + 1) x N_nodes/2 trapezoid grid that window(c) builds
        return (2 * c + 1) * (_freqs(B * c / N)[1] // 2)

    def tail_bound_over(wh_u, err_u):  # S ((A + E + T)^m - A^m) over the window u = -c..c
        A = np.abs(wh_u).sum()
        return S * ((A + err_u.sum() + W.tail_sum_bound(N, len(wh_u) // 2)) ** m - A**m)

    spent, searched = 0, u_cutoff is None
    if searched:
        spent = charge(0, window_cells(128), budget, "Poisson arrays")
        wh_u, err_u = window(128)
        u_cutoff = next((c for c in range(2, 130, 2) if tail_bound_over(
            wh_u[128 - c:129 + c], err_u[128 - c:129 + c]) <= 1e-4 * S * wh_u[128]**m), 128)
    side = np.arange(-u_cutoff, u_cutoff + 1)
    qbar, pbar = pow(q, -1, p), pow(p, -1, q)
    rp, ip = np.unique(qbar * side % p, return_inverse=True)
    rq, iq = np.unique(pbar * side % q, return_inverse=True)
    pairs, ipair = np.unique(ip * len(rq) + iq, return_inverse=True)
    groups = _variable_groups(F)
    grids = [(2 * B + 1)**len(idx) for idx, _ in groups]
    folds = _fold_pairs(grids, N)
    cost = (sum(grids) + sum(N if n is None else n for n in folds)
            + len(pairs) * max(len(rp), len(rq))**(m - 1)
            + _sums_plan(F, p, [rp] * m)[1] + _sums_plan(F, q, [rq] * m)[1]
            + window_cells(u_cutoff))
    charge(spent, cost, budget, "Poisson arrays")
    # direct: the bump-weighted histogram of F mod pq on the box, folded over the groups
    bump, hist, spec = W.weight_1d(np.arange(-B, B + 1)), None, None
    for (_, sub), n in zip(groups, [0] + folds):
        vals = box_value_array(sub, B) % N
        wts = reduce(np.multiply.outer, [bump] * sub.n_vars).ravel()
        if n is None:  # cyclic from here on: the spectra of length-N vectors multiply
            spec = np.fft.rfft(np.bincount(hist[0] % N, hist[1], N)) if spec is None else spec
            spec *= np.fft.rfft(np.bincount(vals, wts, N))
            continue
        res, inv = np.unique(vals, return_inverse=True)
        part = res, np.bincount(inv, wts)
        hist = part if hist is None else _fold(hist, part)
    if spec is not None:
        hist = np.arange(N), np.fft.irfft(spec, N)
    direct = complex((t_p.values[hist[0] % p] * np.conj(t_q.values[hist[0] % q]) * hist[1]).sum())
    # dual: each window u_i lands on one residue pair (x, y) = (qbar u_i, pbar u_i);
    # w sums What over the u_i of each pair, pairs sorted by x.  Each pass moves
    # one axis of g_q from q-residues y to p-residues x, weighting by w.
    c = u_cutoff  # the auto search's window holds the final one
    wh_axis, err_axis = (wh_u[128 - c:129 + c], err_u[128 - c:129 + c]) if searched else window(c)
    w = np.bincount(ipair, wh_axis)
    xd, yd = pairs // len(rq), pairs % len(rq)
    starts = np.flatnonzero(np.diff(xd, prepend=-1))
    h = complete_sums(F, np.conj(t_q.values), q, [rq] * m, budget)
    for ax in range(m):
        h = np.add.reduceat(h.take(yd, ax) * w.reshape((-1,) + (1,) * (m - 1 - ax)),
                            starts, axis=ax)
    poisson = complex((complete_sums(F, t_p.values, p, [rp] * m, budget) * h).sum()) / N**m
    tail_bound = tail_bound_over(wh_axis, err_axis)
    error = abs(direct - poisson)
    if error > tail_bound + 1e-6:
        raise InvariantViolation(
            f"Poisson mismatch {error:.3g} exceeds tail bound {tail_bound:.3g}")
    return {"direct": direct, "poisson": poisson, "error": error,
            "tail_bound": tail_bound, "u_cutoff": u_cutoff}


def bound_ratio_scan(f, F, b_grid, budget=DEFAULT_BUDGET):
    """N(f, F, B) over a grid of B with the two normalizations, as the columns
    B, count, ratio_main and ratio_comparison of "table", and the "spread".

    ratio_main divides by B^(n + 1/(n+2)) (log B)^((n+1)/(n+2)); the
    comparison column divides by B^(n + 1/2).  Asserts max/min of
    ratio_main <= 10 across the grid.  The grid must be nonempty with every
    B >= 2 (log B > 0), checked before any count.
    """
    if not b_grid:
        raise ValueError("empty B grid")
    if min(b_grid) < 2:
        raise ValueError(f"B = {min(b_grid)} in the grid: the normalization needs B >= 2")
    n = BoxProblem(f, F, b_grid[0]).n
    counts = [exact_count(f, box_histogram(F, B, budget), budget) for B in b_grid]
    ratios = [c / (B ** (n + 1 / (n + 2)) * math.log(B) ** ((n + 1) / (n + 2)))
              for B, c in zip(b_grid, counts)]
    spread = max(ratios) / min(ratios) if min(ratios) > 0 else math.inf
    if len(ratios) > 1 and spread > 10:
        raise InvariantViolation(f"main ratio spread {spread:.3g} exceeds 10")
    return {"table": {"B": list(b_grid), "count": counts, "ratio_main": ratios,
                      "ratio_comparison": [c / B ** (n + 0.5) for B, c in zip(b_grid, counts)]},
            "spread": spread}
