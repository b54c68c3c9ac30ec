"""Box counting N(f, F, B), sieve acceleration, and the complete-sum tools.

Counts integer points x in [-B, B]^(n+1) whose value F(x) is hit by f
over Z.  Each problem has one histogram: the distinct values of F on the
box with their multiplicities.  It is folded from the histograms of the
groups of variables that share no monomial, so the box itself is never
enumerated when F is additively separable (every diagonal form).  Every
count works on distinct values weighted by multiplicity.  The exact
count tests each value against the table of f-values; the
sieve-accelerated count prefilters values through per-prime image
bitmaps and verifies survivors exactly, so the two counts agree by
construction (asserted).
"""

import math
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

import numpy as np

from .errors import BudgetExceeded, InvariantViolation
from .fields import prime_factors, primes_in
from .polynomials import MultiPoly, UniPoly, broadcast_grid, discriminant_uni
from .sieve import build_prime_data, in_h_image
from .varieties import (_INT64_SAFE, DEFAULT_BUDGET, _variable_groups, fiber_histogram,
                        smoothness_scan)


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


def _check_box(F, B, budget):
    """Refuse a (2B+1)^m box over the budget or with values past int64."""
    m = F.n_vars
    npts = (2 * B + 1) ** m
    if npts > budget:
        raise BudgetExceeded(f"(2B+1)^{m} = {npts} exceeds budget {budget}")
    bound = sum(abs(c) * max(B, 1) ** sum(e) for e, c in F.terms.items())
    if bound >= _INT64_SAFE:
        raise OverflowError("box values would overflow 64-bit integers")


def box_value_array(F, B, budget=DEFAULT_BUDGET):
    """F evaluated on the full integer box, flattened int64 array."""
    _check_box(F, B, budget)
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


def box_histogram(F, B, budget=DEFAULT_BUDGET):
    """The value histogram of F on the box, folded from its variable groups.

    F is the sum of sub-forms on groups of variables that share no
    monomial; each group is evaluated on its own (2B+1)^|g| grid and
    reduced to a histogram, and the group histograms are folded together.
    A non-separable F is one group, evaluated on the full box.  The whole
    box is charged to the budget up front, and no fold builds more than
    (2B+1)^m pairs.
    """
    _check_box(F, B, budget)
    hist = None
    for sub in _variable_groups(F):
        part = np.unique(box_value_array(sub, B, budget), return_counts=True)
        hist = part if hist is None else _fold(hist, part)
    return BoxHistogram(*hist)


def exact_count(f, hist):
    """Exact N(f, F, B): the multiplicities of the box values in f(Z)."""
    return int(hist.counts[in_h_image(f, hist.values)].sum())


def integer_root_of(f, v):
    """Some integer t with f(t) = v, or None; direct root isolation.

    Independent of the value-table path: rounds the real roots of
    f(T) - v obtained from the companion matrix and verifies exactly.
    """
    coeffs = list(f.sub_const(int(v)).coeffs)
    roots = np.roots(list(reversed(coeffs)))
    for r in roots:
        if abs(r.imag) > 0.51:
            continue
        for t in (math.floor(r.real), round(r.real), math.ceil(r.real)):
            if f.eval(int(t)) == v:
                return int(t)
    return None


@dataclass(frozen=True)
class FilteredCount:
    count: int
    total_points: int
    rejected_by_sieve: int
    verified_exactly: int

    @property
    def rejection_ratio(self):
        return self.rejected_by_sieve / self.total_points if self.total_points else 0.0


def sieve_filtered_count(f, hist, prime_data):
    """Count with the per-prime image prefilter, then exact verification.

    The filter runs over the distinct box values; every tally weighs a
    value by its multiplicity.  The filter is conservative (values of f
    over Z survive every prime), so the result equals exact_count; this
    is asserted.
    """
    keep = np.ones(len(hist.values), dtype=bool)
    for data in prime_data:
        keep &= data.image[hist.values % data.p]
    hit = in_h_image(f, hist.values)
    total = hist.total_points
    survivors = int(hist.counts[keep].sum())
    out = FilteredCount(count=int(hist.counts[keep & hit].sum()),
                        total_points=total,
                        rejected_by_sieve=total - survivors,
                        verified_exactly=survivors)
    exact = int(hist.counts[hit].sum())
    if out.count != exact:
        raise InvariantViolation(
            f"sieve-filtered count {out.count} != exact count {exact}")
    return out


@dataclass(frozen=True)
class PrimeSelection:
    primes: tuple
    q_parameter: float
    window: tuple
    semi_decided: bool      # good reduction checked by scan, not exactly
    k_max: int
    skipped: dict = dc_field(default_factory=dict)


def select_primes(problem, k_max=2, budget=DEFAULT_BUDGET):
    """The sieve prime window [Q, 2Q] with Q = B^((n+1)/(n+2)) (log B)^(1/(n+2)).

    Keeps p with f non-surjective mod p and good reduction for V(F):
    exactly for diagonal F, by smoothness scan (semi-decided) otherwise.
    """
    B, n = problem.B, problem.n
    if B < 3:
        raise ValueError("B < 3 leaves an empty prime window")
    expo = (n + 1) / (n + 2)
    q_param = B**expo * math.log(B) ** (1 / (n + 2))
    lo, hi = math.ceil(q_param), math.floor(2 * q_param)
    candidates = [p for p in primes_in(lo, hi) if p > problem.f.degree]
    diag = problem.F.as_diagonal()
    semi = diag is None
    picked = []
    skipped = {}
    for p in candidates:
        try:
            data = build_prime_data(problem.f, p)
        except ValueError as exc:
            skipped[p] = f"degenerate: {exc}"
            continue
        if data.surjective:
            skipped[p] = "f surjective"
            continue
        if diag is not None:
            coeffs, d = diag
            good = (d % p != 0) and all(c % p for c in coeffs)
        else:
            good = smoothness_scan(problem.F.reduce_mod(p), p, k_max, budget).smooth
        if not good:
            skipped[p] = "bad reduction"
            continue
        picked.append(p)
    if not picked:
        raise ValueError(
            f"no usable primes in the window [{lo}, {hi}]; widen B or pass primes")
    return PrimeSelection(tuple(picked), q_param, (lo, hi), semi, k_max, skipped)


def exceptional_set(f, prime_data, v_max, threshold_mode="lemma",
                    budget=DEFAULT_BUDGET):
    """Integers k in the F-value range hitting many exceptional sets.

    Returns {k in [-M, M] : #{p : k mod p in S_{f,p}} >= threshold} with
    M = v_max, the largest |F| over the box (BoxHistogram.v_max).
    """
    if 2 * v_max + 1 > budget:
        raise BudgetExceeded(f"2 * v_max + 1 = {2 * v_max + 1} exceeds budget {budget}")
    P = len(prime_data)
    d = f.degree
    if threshold_mode == "lemma":
        threshold = P / (2 * d)
    elif threshold_mode == "logp":
        threshold = P / (2 * d * math.log(P)) if P > 1 else P / (2 * d)
    else:
        raise ValueError(f"unknown threshold mode {threshold_mode!r}")
    ks = np.arange(-v_max, v_max + 1, dtype=np.int64)
    counts = np.zeros(len(ks), dtype=np.int64)
    for data in prime_data:
        if not data.exceptional:
            continue
        exc = np.array(sorted(data.exceptional), dtype=np.int64)
        counts += np.isin(ks % data.p, exc)
    return set(int(k) for k in ks[counts >= threshold])


def discriminant_profile(f, k):
    """Exact discriminant of f(T) - k and its distinct prime factor count."""
    g = f.sub_const(int(k))
    disc = discriminant_uni(g)
    return {"k": int(k), "disc": int(disc), "omega": len(prime_factors(abs(disc))),
            "zero_disc": disc == 0}


def complete_sum_g(F, t, u, p, budget=DEFAULT_BUDGET):
    """g(u, t) = sum over a in F_p^m of t(F(a)) e(<a, u>/p).

    The u = 0 sum is grouped by fiber (fiber_histogram); general u
    uses the separable phase over the full grid.
    """
    m = F.n_vars
    if t.q != p:
        raise ValueError("trace table does not live on F_p")
    if len(u) != m:
        raise ValueError("u arity mismatch")
    u = [int(c) % p for c in u]
    if all(c == 0 for c in u):
        hist = fiber_histogram(F, p, budget)
        return complex(hist @ t.values)
    if p**m > budget:
        raise BudgetExceeded(f"p^m = {p**m} exceeds budget {budget}")
    vals = F.eval_mod(broadcast_grid([np.arange(p, dtype=np.int64)] * m), p)
    acc = t.values[vals]
    for phase in broadcast_grid([np.exp(2j * np.pi * ui * np.arange(p) / p)
                                 for ui in u]):
        acc = acc * phase
    return complex(acc.sum())


def complete_sum_table(F, t, p, budget=DEFAULT_BUDGET):
    """All g(u, t) at once, indexed by u in F_p^m (inverse FFT over the grid)."""
    m = F.n_vars
    if p**m > budget:
        raise BudgetExceeded(f"p^m = {p**m} exceeds budget {budget}")
    grid = broadcast_grid([np.arange(p, dtype=np.int64)] * m)
    vals = np.broadcast_to(F.eval_mod(grid, p), (p,) * m)
    return np.fft.ifftn(t.values[vals]) * p**m


def crt_factor_check(F, u, p, q, t_p, t_q, budget=DEFAULT_BUDGET):
    """Compare the mod-pq complete sum against its CRT product form.

    lhs = sum over a mod pq of t_p(F(a)) conj(t_q(F(a))) e(<a,u>/pq);
    rhs = g(qbar u, t_p) * g(pbar u, conj t_q) with qbar = q^-1 mod p,
    pbar = p^-1 mod q.
    """
    if p == q:
        raise ValueError("p and q must be distinct")
    m = F.n_vars
    if len(u) != m:
        raise ValueError("u arity mismatch")
    N = p * q
    if N**m > budget:
        raise BudgetExceeded(f"(pq)^m = {N**m} exceeds budget {budget}")
    vals = F.eval_mod(broadcast_grid([np.arange(N, dtype=np.int64)] * m), N)
    acc = t_p.values[vals % p] * np.conj(t_q.values[vals % q])
    for phase in broadcast_grid([np.exp(2j * np.pi * (int(ui) % N) * np.arange(N) / N)
                                 for ui in u]):
        acc = acc * phase
    lhs = complex(acc.sum())
    qbar = pow(q, -1, p)
    pbar = pow(p, -1, q)
    g1 = complete_sum_g(F, t_p, [qbar * int(c) % p for c in u], p, budget)
    g2 = complete_sum_g(F, t_q.conj(), [pbar * int(c) % q for c in u], q, budget)
    rhs = g1 * g2
    err = abs(lhs - rhs)
    rel = err / max(abs(lhs), 1.0)
    return {"lhs": lhs, "rhs": rhs, "error": err, "rel_error": rel}


# ---------------------------------------------------------------------------
# smooth weights and Poisson comparison

def _bump(t):
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = np.abs(t) < 1
    ti = t[inside]
    out[inside] = np.exp(-1.0 / (1.0 - ti * ti))
    return out


def _bump_scalar(s):
    if abs(s) >= 1.0 - 1e-14:
        return 0.0
    return math.exp(-1.0 / (1.0 - s * s))


@lru_cache(maxsize=None)
def _bump_l1():
    from scipy.integrate import quad

    val, _ = quad(_bump_scalar, -1, 1)
    return val


@lru_cache(maxsize=None)
def _bump_derivative_l1(order):
    """L1 norm of the order-th derivative of the bump, via symbolic diff."""
    import sympy
    from scipy.integrate import quad

    s = sympy.Symbol("s")
    expr = sympy.exp(-1 / (1 - s**2))
    deriv = sympy.lambdify(s, sympy.diff(expr, s, order), "math")

    def safe(x):
        if abs(x) >= 1 - 1e-12:
            return 0.0
        return abs(deriv(x))

    val, _ = quad(safe, -1, 1, limit=200)
    return val


class SmoothWeight:
    """Product bump weight supported on [-B, B]^m with quadrature transform.

    w(t) = exp(-1/(1-t^2)) on (-1, 1); W(x) = prod w(x_i / B).  The 1-d
    transform wh(xi) = int w(t) e(-xi t) dt is evaluated by adaptive
    quadrature to 1e-10 and cached per frequency.
    """

    def __init__(self, B, kappa=4):
        if B <= 0:
            raise ValueError("B must be positive")
        self.B = B
        self.kappa = kappa
        self._wh_cache = {}

    def weight_1d(self, xs):
        return _bump(np.asarray(xs, dtype=float) / self.B)

    def weight(self, x):
        """W(x) for one point x (sequence of reals)."""
        return float(np.prod(self.weight_1d(np.asarray(x, dtype=float))))

    def wh(self, xi):
        """1-d transform of the unit bump at frequency xi (real, even)."""
        xi = float(xi)
        key = abs(xi)
        if key not in self._wh_cache:
            if key == 0:
                val = _bump_l1()
            else:
                from scipy.integrate import quad

                # oscillatory weight handles large frequencies accurately
                val, _ = quad(_bump_scalar, -1, 1, weight="cos",
                              wvar=2 * math.pi * key, epsabs=1e-10, limit=400)
            self._wh_cache[key] = val
        return self._wh_cache[key]

    def what(self, v):
        """Transform of W at a frequency vector v: prod B * wh(B v_i)."""
        return float(np.prod([self.B * self.wh(self.B * vi) for vi in v]))

    def wh_bound(self, xi):
        """Analytic envelope min(||w||_1, ||w^(k)||_1 / (2 pi |xi|)^k)."""
        flat = _bump_l1()
        if xi == 0:
            return flat
        return min(flat, _bump_derivative_l1(self.kappa)
                   / (2 * math.pi * abs(xi)) ** self.kappa)

    def poisson_identity_gap(self, u_span=None):
        """|sum_m w(m/B) - sum_u B wh(Bu)| over integer lattices (1-d)."""
        direct = float(self.weight_1d(np.arange(-self.B, self.B + 1)).sum())
        if u_span is None:
            u_span = max(8, int(4 * self.B))
        dual = sum(self.B * self.wh(self.B * u)
                   for u in range(-u_span, u_span + 1))
        return abs(direct - dual), direct, dual

    def tail_sum_bound(self, scale, cutoff, terms=None):
        """Upper bound for sum over |u| > cutoff of B * wh_bound(B u / scale)."""
        if terms is None:
            terms = max(10 * cutoff, 200)
        total = 0.0
        for uu in range(cutoff + 1, terms + 1):
            total += 2 * self.B * self.wh_bound(self.B * uu / scale)
        # integral remainder of the monotone kappa-decay past `terms`
        c = _bump_derivative_l1(self.kappa) * self.B
        gamma = 2 * math.pi * self.B / scale
        k = self.kappa
        total += 2 * c * gamma**-k * terms ** (1 - k) / (k - 1)
        return total

    def boxed_sum(self, scale, cutoff):
        """sum over |u| <= cutoff of B * |wh(B u / scale)| (true values)."""
        return sum(self.B * abs(self.wh(self.B * uu / scale))
                   for uu in range(-cutoff, cutoff + 1))


def poisson_compare(F, p, q, t_p, t_q, B, u_cutoff=None, kappa=4,
                    budget=DEFAULT_BUDGET):
    """Weighted box sum versus its truncated Poisson dual, with a tail bound.

    direct = sum over integer x of W(x) t_p(F(x)) conj(t_q(F(x)));
    poisson = (pq)^-m sum over |u_i| <= u_cutoff of g(u) What(u/pq).
    When u_cutoff is omitted it grows until the analytic tail bound
    drops below 1e-4 of the main-term scale.  Raises InvariantViolation
    when the gap exceeds tail_bound + 1e-6.
    """
    m = F.n_vars
    W = SmoothWeight(B, kappa)
    if u_cutoff is None:
        main_scale = t_p.sup_bound * t_q.sup_bound * (B * W.wh(0.0)) ** m
        for u_cutoff in range(2, 130, 2):
            tail = t_p.sup_bound * t_q.sup_bound * (
                (W.boxed_sum(p * q, u_cutoff)
                 + W.tail_sum_bound(p * q, u_cutoff)) ** m
                - W.boxed_sum(p * q, u_cutoff) ** m)
            if tail <= 1e-4 * main_scale:
                break
    fvals = box_value_array(F, B, budget)
    wvals = np.ones((1,) * m)
    for w in broadcast_grid([W.weight_1d(np.arange(-B, B + 1))] * m):
        wvals = wvals * w
    wvals = np.ravel(wvals)
    tvals = t_p.values[fvals % p] * np.conj(t_q.values[fvals % q])
    direct = complex((wvals * tvals).sum())

    table_p = complete_sum_table(F.reduce_mod(p), t_p, p, budget)
    table_q = complete_sum_table(F.reduce_mod(q), t_q.conj(), q, budget)
    qbar = pow(q, -1, p)
    pbar = pow(p, -1, q)
    N = p * q
    side = np.arange(-u_cutoff, u_cutoff + 1)
    wh_axis = np.array([W.B * W.wh(W.B * abs(int(uu)) / N) for uu in side])
    idx_p = (qbar * side) % p
    idx_q = (pbar * side) % q
    # the u-box sum, one leading-coordinate slab at a time
    poisson = 0j
    for i0 in range(len(side)):
        gp = table_p[np.ix_(*([idx_p[i0:i0 + 1]] + [idx_p] * (m - 1)))]
        gq = table_q[np.ix_(*([idx_q[i0:i0 + 1]] + [idx_q] * (m - 1)))]
        wbox = wh_axis[i0]
        for ax in range(1, m):
            wbox = np.multiply.outer(wbox, wh_axis)
        poisson += (gp[0] * gq[0] * wbox).sum()
    poisson /= N**m
    sup_prod = t_p.sup_bound * t_q.sup_bound
    s_full = (W.boxed_sum(N, u_cutoff)
              + W.tail_sum_bound(N, u_cutoff))
    s_in = W.boxed_sum(N, u_cutoff)
    tail_bound = sup_prod * (s_full**m - s_in**m)
    error = abs(direct - poisson)
    if error > tail_bound + 1e-6:
        raise InvariantViolation(
            f"Poisson mismatch {error:.3g} exceeds tail bound {tail_bound:.3g}")
    return {"direct": direct, "poisson": poisson, "error": error,
            "tail_bound": tail_bound, "u_cutoff": u_cutoff}


def bound_ratio_scan(f, F, b_grid, budget=DEFAULT_BUDGET):
    """N(f, F, B) over a grid of B with the two normalizations.

    ratio_main divides by B^(n + 1/(n+2)) (log B)^((n+1)/(n+2)); the
    comparison column divides by B^(n + 1/2).  Asserts max/min of
    ratio_main <= 10 across the grid.
    """
    rows = []
    for B in b_grid:
        n = BoxProblem(f, F, B).n
        count = exact_count(f, box_histogram(F, B, budget))
        denom_main = B ** (n + 1 / (n + 2)) * math.log(B) ** ((n + 1) / (n + 2))
        rows.append({
            "B": B,
            "count": count,
            "ratio_main": count / denom_main,
            "ratio_comparison": count / B ** (n + 0.5),
        })
    ratios = [r["ratio_main"] for r in rows]
    spread = max(ratios) / min(ratios) if min(ratios) > 0 else math.inf
    if len(rows) > 1 and spread > 10:
        raise InvariantViolation(f"main ratio spread {spread:.3g} exceeds 10")
    return {"rows": rows, "spread": spread}
