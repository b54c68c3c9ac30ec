"""Point counting and tangency classification on hypersurfaces over F_q.

A frequency u != 0 is tangent (bad) exactly where the hyperplane section
of V(F) by <x, u> = 0 is singular, so smoothness and tangency are one
question, asked of F or of its section, and answered by one walk.  It is
certified over the algebraic closure where a Macaulay determinant of the
partials is nonzero mod p, proven singular where only its minor is not;
otherwise it is semi-decided by scanning F_{p^j} for j up to an explicit
k_max, and every verdict carries that cap.  diagonal_u_classes decides
diagonal forms exactly, by a polynomial.
"""

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Optional

import numpy as np

from .convolve import fold, fold_cells, wrap
from .errors import DEFAULT_BUDGET, EXT_DEGREE_CAP, charge
from .fields import cached_field, is_prime, prime_factors
from .polynomials import SLAB_POINTS, MultiPoly, _det_bareiss, grid_slabs

_INT64_SAFE = 2**62


def _check_residue_products(N):  # refuse N where a product of two residues passes int64
    if N * N >= _INT64_SAFE:
        raise OverflowError(f"products of residues mod {N} would overflow 64-bit integers")


@dataclass(frozen=True)
class Witness:
    """A point found during a scan: element indices over F_{p^ext_degree}."""

    ext_degree: int
    point: tuple


@dataclass(frozen=True)
class UClass:
    """Frequency-vector classification: zero, good, or bad (with a witness where found)."""

    kind: str  # "zero" | "good" | "bad"
    witness: Optional[Witness] = None
    k_max: int = 0

    def __post_init__(self):
        if self.kind not in ("zero", "good", "bad"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.kind != "bad" and self.witness is not None:
            raise ValueError("only a bad classification carries a witness")


@dataclass(frozen=True)
class ScanResult:
    """smoothness_scan outcome: certified or proven (_certify), a witness, or none up to k_max."""

    smooth: bool
    k_max: int
    witness: Optional[Witness] = None


@lru_cache(maxsize=64)
def _variable_groups(*forms):
    """(indices, sub-form of each form) for each class of variables that share no monomial.

    One merge loop runs over the monomials of every form, so no monomial
    of any form meets two classes, and each form is the sum of its
    sub-forms, each living on the variables of its class, whose indices
    are listed in order.  A variable absent from every form is a class of
    its own with zero forms; forms in no variables give one empty class.
    Constant terms go with the first class.  Cached, so returned as tuples.
    """
    groups = [[i] for i in range(forms[0].n_vars)]
    for expo in itertools.chain.from_iterable(f.terms for f in forms):
        live = {i for i, e in enumerate(expo) if e}
        merged = sorted(i for g in groups if live.intersection(g) for i in g)
        groups = [g for g in groups if not live.intersection(g)] + [merged]
    groups = sorted(g for g in groups if g) or [[]]
    where = {i: k for k, g in enumerate(groups) for i in g}
    subs = []
    for form in forms:
        terms = [{} for _ in groups]
        for expo, c in form.terms.items():
            first = next((i for i, e in enumerate(expo) if e), None)
            k = 0 if first is None else where[first]
            terms[k][tuple(expo[i] for i in groups[k])] = c
        subs.append([MultiPoly(len(g), t, form.ring) for g, t in zip(groups, terms)])
    return tuple(zip(map(tuple, groups), *subs))


def _fiber_plan(F, p, G=None, budget=DEFAULT_BUDGET):
    """fiber_histogram's refusals and charge, none of which needs a field table: its
    blocks of joint variable groups and each block's variable count."""
    forms = (F,) if G is None else (F, G)
    r = len(forms)
    if G is not None and F.n_vars != G.n_vars:
        raise ValueError("F and G must share arity")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p**F.n_vars >= _INT64_SAFE:
        raise OverflowError(f"p^n = {p**F.n_vars} fiber counts would overflow 64-bit integers")
    blocks = []
    for grp in sorted(_variable_groups(*forms), key=lambda g: -len(g[0])):
        if blocks and sum(len(g[0]) for g in blocks[-1]) + len(grp[0]) <= r:
            blocks[-1].append(grp)
        else:
            blocks.append([grp])
    sizes = [sum(len(g[0]) for g in block) for block in blocks]
    cost = sum(p**k + p**r for k in sizes) + (len(blocks) - 1) * fold_cells([(p,) * r] * 2)
    charge(0, cost, budget, "fiber histogram")
    return blocks, sizes


def fiber_histogram(F, p, G=None, budget=DEFAULT_BUDGET):
    """Array h with h[a] = |{x in F_p^n : F(x) = a}|, or with G the matrix
    h[a, b] = |{x in F_p^n : F(x) = a, G(x) = b}|.

    With r forms (1 or 2), the joint variable groups (sharing no monomial
    of any form) are packed, largest first, into blocks of at most r
    variables or one group, each counted into a (p,)*r histogram over its
    own grid, slab by slab (grid_slabs); h is their r-dim cyclic
    convolution, folded pairwise (convolve.fold, wrapped).  A non-separable
    F (or pair) is one block, no FFT.  Block grids, p^r per block and each
    fold's padded cells are charged before any build (_fiber_plan).
    """
    r = 1 if G is None else 2
    blocks, sizes = _fiber_plan(F, p, G, budget)
    hists = []
    for block, k in zip(blocks, sizes):
        hists.append(np.zeros((p,) * r, dtype=np.int64))
        for axes in map(iter, grid_slabs(p, k, p**r)):
            owns = [[next(axes) for _ in grp[0]] for grp in block]
            # each group's values span its own axes, so their sum spans the block
            vals = [reduce(np.add, [grp[i].eval_mod(own, p) for grp, own in zip(block, owns)])
                    for i in range(1, r + 1)]
            if len(block) > 1:  # eval_mod reduces one group's values, not their sum
                vals = [v % p for v in vals]
            cells = np.ravel(reduce(lambda c, v: c * p + v, vals))
            hists[-1] += np.bincount(cells, minlength=p**r).reshape((p,) * r)
            del vals, cells  # so the next slab reuses their memory, not fresh pages
    return reduce(lambda a, b: wrap(fold([a, b]), p), hists)


def group_pushforwards(sub, freqs, N, twist=None):
    """Row j: v -> sum over a in (Z/N)^k with sub(a) = v mod N of e((<u_j, a> + twist(a))/N).

    u_j runs over the product of freqs (C order, one array per variable);
    twist is a form on the same k variables, or None for 0.  Phase-weighted
    bincounts of R N^k points for the R rows, one slab at a time (grid_slabs).
    """
    us = np.array(list(itertools.product(*freqs)), dtype=np.int64) % N
    # expo < (k + 1) N: the phase table repeats instead of a pass reducing expo mod N
    phases = np.tile(np.exp(2j * np.pi * np.arange(N) / N), sub.n_vars + 1)
    size, out = len(us) * N, np.zeros((2, len(us) * N))
    for axes in grid_slabs(N, sub.n_vars, size, len(us)):
        expo = sum((np.multiply.outer(us[:, i], axis) % N for i, axis in enumerate(axes)
                    if us[:, i].any()), 0 if twist is None else twist.eval_mod(axes, N))
        expo = np.ravel(np.broadcast_to(expo, (len(us),) + np.broadcast(*axes).shape))
        idx = (np.arange(0, size, N)[:, None] + np.ravel(sub.eval_mod(axes, N))).ravel()
        out += [np.bincount(idx, w[expo], size) for w in (phases.real, phases.imag)]
    return (out[0] + 1j * out[1]).reshape(len(us), N)


def _sums_plan(F, N, freqs):
    """The variable groups of F, a largest first, and the points complete_sums builds."""
    groups = sorted(_variable_groups(F), key=lambda g: -len(g[0]))
    rows = [math.prod(len(freqs[i]) for i in idx) for idx, _ in groups]
    cost = (N**len(groups[0][0]) + N) * math.prod(rows[1:])
    return groups, cost + sum(N**len(idx) * r for (idx, _), r in zip(groups[1:], rows[1:]))


def complete_sums(F, t_values, N, freqs, budget=DEFAULT_BUDGET):
    """g(x) = sum over a in (Z/N)^m of t(F(a)) e(<a, x>/N), x in the product of freqs.

    boxes.poisson_compare's window spectra (one x is mixed_sum's twist by <x, a>).  freqs
    lists the residues of each variable; g is indexed by position.
    With t(v) = sum_s c(s) e(sv/N), g(x) = sum_s c(s) prod_g G_g(s, x_g),
    G_g the DFT of a group's twisted pushforward (group_pushforwards).  A
    largest group absorbs the s-sum: g(., x') is the DFT over its N^k grid
    of S(F_top(a)), S = t convolved with the other groups' pushforward at
    x', gathered slab by slab (grid_slabs) and transformed on the slab's full
    axes, then on its first.  Charged before any build.
    """
    _check_residue_products(N)
    groups, cost = _sums_plan(F, N, freqs)
    charge(0, cost, budget, "complete sums")
    (top_idx, top), *others = groups
    spec = np.ones((N, 1), dtype=np.complex128)  # prod_g G_g(s, x'_g), x' in C order
    for idx, sub in others:
        G = N * np.fft.ifft(group_pushforwards(sub, [freqs[i] for i in idx], N), axis=1)
        spec = (spec[:, :, None] * G.T[:, None, :]).reshape(N, -1)
    S = np.fft.ifft(np.fft.fft(t_values)[:, None] * spec, axis=0)
    xs = [np.asarray(freqs[i], dtype=np.int64) % N for i in top_idx]
    # axes x', then the top group's: its first whole, the others on their freqs
    g = np.empty((S.shape[1], N) + tuple(map(len, xs[1:])), dtype=np.complex128)
    for axes in grid_slabs(N, len(top_idx), 0, S.shape[1]):
        part = S.T[:, top.eval_mod(axes, N)]
        for ax in range(len(top_idx), 1, -1):
            part = np.fft.ifft(part, axis=ax).take(xs[ax - 1], ax) * N
        g[:, axes[0].ravel()] = part
        del part  # so the next slab reuses its memory
    g = np.fft.ifft(g, axis=1).take(xs[0], 1) * N
    order = [i for idx, _ in others for i in idx] + list(top_idx)
    return g.reshape([len(freqs[i]) for i in order]).transpose(np.argsort(order))


def _class_points(q, m):
    """Points of P^(m-1)(F_q) over all projective classes."""
    return sum(q**(m - 1 - lead) for lead in range(m))


def _projective_slabs(N, k, cells=0):
    """P^(k-1) over [0, N) by its leading coordinate 1, the axes after it in grid_slabs: C order."""
    zero, one = np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64)
    for lead in range(k):
        for axes in grid_slabs(N, k - 1 - lead, cells):
            yield [zero] * lead + [one] + axes


def _scaling_degree(sub, twist, p):
    """The degree e >= 1 of sub mod p where p is prime and sub and twist mod p (or 0) are forms
    of degree e in k >= 2 variables, so the group pushes forward by scaling classes; else None."""
    degs = [{sum(x) for x in f.reduce_mod(p).terms} for f in (sub, twist)]
    e = min(degs[0], default=0)
    return e if sub.n_vars >= 2 and e >= 1 and degs[0] | degs[1] == {e} and is_prime(p) else None


def _scaling_pushforward(F, G, p, e):
    """group_pushforwards(F, [[0]] * k, p, G)[0] for forms of degree e (_scaling_degree),
    over the (p^k - 1)/(p - 1) representatives y of P^(k-1), in _projective_slabs.

    x = c y scales both forms by c^e.  With d = gcd(e, p - 1) and H = (F_p^*)^e, v != 0 is
    c^e F(y) for d values of c exactly where v / F(y) is in H: P(v) = d sum_r R[j(v), r]
    e(vr/p), R[j, r] = #{y : F(y) in coset j of H, G(y)/F(y) = r}.  P(0) = 1 + sum_w Z(w)
    S(w), Z(w) = #{y : F(y) = 0, G(y) = w} (row d of R), S(w) = sum_c e(c^e w/p) = d sum
    over a in H of e(aw/p).  One bincount into (d + 1) p cells a slab, and one FFT."""
    k, d, side = F.n_vars, math.gcd(e, p - 1), np.arange(p, dtype=np.int64)
    # a's coset of H is labelled by the d-th root of unity a^((p-1)/d); 0 goes to row d
    roots, inv = (MultiPoly(1, {(x,): 1}).eval_mod([side], p) for x in ((p - 1) // d, p - 2))
    lab = np.concatenate([[d], np.unique(roots[1:], return_inverse=True)[1]])
    inv[0], R = 1, np.zeros((d + 1) * p, dtype=np.int64)  # F(y) = 0 keeps w = G(y)
    for y in _projective_slabs(p, k, R.size):
        fv = F.eval_mod(y, p)
        R += np.bincount((lab[fv] * p + G.eval_mod(y, p) * inv[fv] % p).ravel(), minlength=R.size)
    T = p * np.fft.ifft(R.reshape(d + 1, p), axis=1)
    P = d * T[lab, side]
    P[0] = 1 + d * T[d, lab == lab[1]].sum()
    return P


def _pushforward_plan(F, G, N, budget=DEFAULT_BUDGET):
    """_pushforward's joint variable groups (sub, twist, _scaling_degree) of (F, G), once N passes
    the int64 guard and the charge for grids, or classes, (d + 1) N cells, two N-tables and N."""
    _check_residue_products(N)
    groups = [(sub, tw, _scaling_degree(sub, tw, N)) for _, sub, tw in _variable_groups(F, G)]
    cost = N + sum(N**s.n_vars if e is None else _class_points(N, s.n_vars)
                   + (math.gcd(e, N - 1) + 3) * N for s, _, e in groups)
    charge(0, cost, budget, "complete sums")
    return groups


def _pushforward(groups, N):
    """P(v) = sum over x in (Z/N)^n with F(x) = v of e(G(x)/N) from _pushforward_plan(F, G, N):
    per group a twisted bincount (group_pushforwards, or _scaling_pushforward), one length-N FFT."""
    pushed = [group_pushforwards(sub, [[0]] * sub.n_vars, N, tw)[0] if e is None
              else _scaling_pushforward(sub, tw, N, e) for sub, tw, e in groups]
    if len(pushed) > 1:
        pushed = [np.fft.ifft(np.prod(np.fft.fft(pushed, axis=1), axis=0))]
    return pushed[0]


def mixed_sum(F, G, t_values, p, budget=DEFAULT_BUDGET):
    """sum over x in F_p^n of t(F(x)) e(G(x)/p), p prime: t against F's pushforward twisted
    by G (_pushforward); one frequency u is the linear twist G = <u, x> (boxes.complete_sum_g)."""
    if F.n_vars != G.n_vars:
        raise ValueError("F and G must share arity")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return complex((np.asarray(t_values)
                    * _pushforward(_pushforward_plan(F, G, p, budget), p)).sum())


def _zeros_of(poly, field, coords):
    """The points of the grid broadcast from coords where poly vanishes: one flat array per
    coordinate, read at the zeros' flat indices in C order, so the first is the first met."""
    values = poly.eval_field(field, coords)
    hits = np.flatnonzero(values == 0)
    return [np.broadcast_to(c, values.shape).flat[hits] for c in coords]


def _check_scan_args(p, k_max):
    """p prime (the certificate inverts mod p); 1 <= k_max <= EXT_DEGREE_CAP (fields built)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not 1 <= k_max <= EXT_DEGREE_CAP:
        raise ValueError(f"k_max must be at least 1 and at most {EXT_DEGREE_CAP}, got {k_max}")


def _coordinate_changes(k):
    """Columns of I, then of four U L: U and L unit upper and lower triangular (det 1)
    with entry (i, j) = (i k + j + s) % 7 - 3 off the diagonal, s = 1..4."""
    def entry(i, j, s):
        return 1 if i == j else (i * k + j + s) % 7 - 3
    yield [[int(i == r) for i in range(k)] for r in range(k)]
    for s in range(1, 5):
        yield [[sum(entry(i, t, s) * entry(t, r, s) for t in range(max(i, r), k)) for i in range(k)]
               for r in range(k)]


def _certify(form, p, j, k_max, spent=0, budget=DEFAULT_BUDGET):
    """(verdict, spent) ahead of level j of a walk over P^(k-1): True (smooth) where the
    form's k partials have no common zero over the closure of F_p, False (singular) where
    they have one and p does not divide deg (by Euler), None (undecided) otherwise.

    Macaulay's matrix M in degree D = k(d - 1) + 1 (partials of degree d) has
    the row x^a / x_i^d * partial_i for each monomial x^a of degree D, i the
    first index with a_i >= d.  A common zero's degree-D monomials lie in
    ker M, so det M != 0 mod p certifies.  det M = +-Res det A (Macaulay 1902;
    A the minor on monomials with two a_i >= d): det M = 0 != det A proves
    Res = 0.  _coordinate_changes keep Res, so they are tried while det A = 0.
    M takes about N^3 elimination steps: it runs before level 1, or before
    level 2 where level 1 costs the walk less (so a witness over F_p costs
    what the walk alone does), and tries coordinates only while their N^3
    fit in the grid points skipped.  Each try charges its N^2 entries first.
    """
    k, d = (form.n_vars, form.total_degree - 1) if form is not None else (0, 0)
    N = math.comb(k * d, k - 1) if k > 0 and d > 0 else 0  # monomials of degree D
    # a walk level also costs about 10^4 steps a class in numpy set-up: 0.4 ms,
    # against 35 ns an elimination step (measured on a 2-core x86-64 machine)
    if not N or j != (1 if _class_points(p, k) + 10**4 * k > N**3 else 2):
        return None, spent
    grid = 0
    for level in range(j, k_max + 1):  # stops early: k_max may be large
        grid += _class_points(p**level, k)
        if grid >= 5 * N**3:
            break
    if grid < N**3:  # no coordinate change fits: skip the N monomials of degree D too
        return None, spent
    monos = [tuple(c.count(i) for i in range(k))
             for c in itertools.combinations_with_replacement(range(k), k * (d - 1) + 1)]
    where = {a: r for r, a in enumerate(monos)}
    lead = [next(i for i, e in enumerate(a) if e >= d) for a in monos]
    extra = [r for r, a in enumerate(monos) if sum(e >= d for e in a) > 1]
    for cols in itertools.islice(_coordinate_changes(k), grid // N**3):
        spent = charge(spent, N * N, budget, "smoothness scan")
        grads = form.substitute(cols).gradient()
        rows = [[0] * N for _ in monos]
        for row, a, i in zip(rows, monos, lead):
            for expo, c in grads[i].terms.items():
                row[where[tuple(x + y - d * (t == i) for t, (x, y) in enumerate(zip(a, expo)))]] = c
        if _det_bareiss(rows, p):
            return True, spent
        if _det_bareiss([[rows[r][c] for c in extra] for r in extra], p):
            return (None if (d + 1) % p == 0 else False), spent  # Res = 0 mod p
    return None, spent


def smoothness_scan(F, p, k_max=2, budget=DEFAULT_BUDGET):
    """Search for a projective singular point of V(F) over F_{p^j}, j <= k_max.

    F is evaluated on P^(m-1)(F_{p^j}) slab by slab (_projective_slabs); the
    partials only on each slab's zeros (about 1/q of it), in C order, so
    the witness is the first singular point of the full scan.  The walk
    stops with ScanResult(smooth=True, k_max) where _certify holds for F mod p, a
    certificate over the closure; a walk without witness gives smooth=False where
    _certify proved F singular, else smooth=True as a semi-decision up to the cap.
    The budget is charged one evaluation per grid point for F, before each level,
    and one per surviving point for each partial, before it runs.
    """
    if not F.is_homogeneous():
        raise ValueError("smoothness scan needs a homogeneous form")
    _check_scan_args(p, k_max)
    d = F.total_degree
    if d % p == 0:
        warnings.warn(f"p={p} divides deg F={d}; the gradient may degenerate")
    return _smoothness_walk(F.reduce_mod(p), p, k_max, budget, certify=True)


def _smoothness_walk(form, p, k_max, budget=DEFAULT_BUDGET, certify=False):
    """The walk of smoothness_scan and classify_u, one of its _projective_slabs at a time:
    the first witness of a slab is the first of a full scan, since slabs run in C order.  With
    certify, _certify(form) runs ahead of each level; a proven singularity outlasts the walk."""
    m = form.n_vars
    partials = form.gradient()
    spent, smooth = 0, True
    for j in range(1, k_max + 1):
        ok, spent = _certify(form, p, j, k_max, spent, budget) if certify else (None, spent)
        if ok:
            return ScanResult(True, k_max)
        smooth = smooth and ok is None
        spent = charge(spent, _class_points(p**j, m), budget, "smoothness scan")
        field = cached_field(p, j)
        for coords in _projective_slabs(field.q, m):
            pts = _zeros_of(form, field, coords)
            for gpoly in partials:
                if not pts[0].size:
                    break
                spent = charge(spent, pts[0].size, budget, "smoothness scan")
                pts = _zeros_of(gpoly, field, pts)
            if pts[0].size:
                return ScanResult(False, k_max, Witness(j, tuple(int(c[0]) for c in pts)))
    return ScanResult(smooth, k_max)


def _kernel_basis(u, p):
    """Basis over F_p of <x, u> = 0, u not 0 mod p: e_j - (u_j / u_pivot) e_pivot, j != pivot."""
    u = [int(c) % p for c in u]
    pivot = next(i for i, c in enumerate(u) if c)
    inv = pow(u[pivot], p - 2, p)
    return [[int(i == j) if i != pivot else (-u[j] * inv) % p for i in range(len(u))]
            for j in range(len(u)) if j != pivot]


def classify_u(F, u, p, k_max=2, budget=DEFAULT_BUDGET):
    """Classify a frequency vector u against V(F) mod p.

    zero: u = 0 mod p.  Otherwise u is bad where the section
    S(s) = F(sum s_r b_r), b a basis of <x, u> = 0, is singular: a
    projective s over F_{p^j}, j <= k_max, with S(s) = 0 and every
    dS/ds_r = grad F(x) . b_r = 0, that is F(x) = 0 and grad F(x) in the
    span of u at x = sum s_r b_r, which is the witness returned (none where
    _certify proves S singular and the walk finds no point).  good: no such
    point up to k_max, or certified over the closure where _certify holds
    for S.  S is walked by smoothness_scan's walk, so the witness is the
    first one a full scan of the hyperplane would meet; the budget is
    charged one evaluation per grid point for S, before each level, and
    one per surviving point for each partial of S, before it runs.
    """
    if not F.is_homogeneous():
        raise ValueError("classify_u needs a homogeneous form")
    _check_scan_args(p, k_max)
    if len(u) != F.n_vars:
        raise ValueError("u arity mismatch")
    if all(int(c) % p == 0 for c in u):
        return UClass("zero", k_max=k_max)
    basis = _kernel_basis(u, p)
    res = _smoothness_walk(F.reduce_mod(p).substitute(basis), p, k_max, budget, certify=True)
    if res.smooth or res.witness is None:
        return UClass("good" if res.smooth else "bad", k_max=k_max)
    j, s = res.witness.ext_degree, res.witness.point
    field = cached_field(p, j)
    x = (reduce(field.add, (field.mul(c, field.embed(b[i])) for c, b in zip(s, basis)))
         for i in range(F.n_vars))
    return UClass("bad", Witness(j, tuple(int(c) for c in x)), k_max)


@lru_cache(maxsize=None)
def dual_polynomial(m, d):
    """D_{m,d}: the integer form of degree e^(m-2) in a_0..a_(m-1), e = d - 1, with
    D(y^e) = prod over j in (Z/e)^(m-1) of (y_0 + sum_i zeta^(j_i) y_i), zeta of order e.

    Multiplied out in Z[x]/(x^e - 1)[y] (axis 0 for x, one per y_i, i >= 1; y_0 has the
    rest of the degree): the K = e^(m-1) factors keep entries >= 0 adding up to m^K.  As
    zeta -> zeta^k fixes D (gcd(k, e) = 1), a coefficient is its trace over the primitive
    roots, sum_j c_j r(j) with r Ramanujan's sum, over r(0) = phi(e).  For m = 1, e > 1, D = 1.
    """
    e, K = d - 1, (d - 1) ** (m - 1)
    prod = np.zeros((e,) + (K + 1,) * (m - 1), dtype=np.int64 if e * m**K < 2**63 else object)
    prod[(0,) * m] = 1
    for js in itertools.product(range(e), repeat=m - 1):  # exponents stay <= K: rolls never wrap
        prod = prod + sum(np.roll(prod, (j, 1), axis=(0, i)) for i, j in enumerate(js, 1))
    r = np.rint([sum(math.cos(2 * math.pi * j * k / e) for k in range(e) if math.gcd(k, e) == 1)
                 for j in range(e)]).astype(np.int64)
    coeffs = np.tensordot(r, prod[(slice(None),) + (slice(None, None, e),) * (m - 1)], 1) // r[0]
    return MultiPoly(m, {(K // e - sum(k),) + k: int(c) for k, c in np.ndenumerate(coeffs) if c})


def _diagonal_applies(coeffs, d, p):
    """The diagonal closed forms' hypotheses at the prime p: d >= 2, p prime to d and every c_i."""
    return d >= 2 and all(int(c) % p for c in (*coeffs, d))


def diagonal_dual_zeros(coeffs, d, axes, p, budget=DEFAULT_BUDGET):
    """D_{m,d}(a) = 0 mod p, a_i = u_i^d / c_i, on the grid of u the per-axis residue arrays
    axes broadcast to (D(0) = 0 for m > 1), by eval_mod in slabs of axis 0; ints give one
    bool.  D's build, then its monomials times the points, are charged first."""
    m, e, cred = len(coeffs), d - 1, [int(c) % p for c in coeffs]
    if not (is_prime(p) and _diagonal_applies(coeffs, d, p)):
        raise ValueError("need p coprime to d and to every coefficient, p prime and d >= 2")
    lone, K = all(isinstance(x, int) for x in axes), e ** (m - 1)  # lone: one u in ints
    shape = () if lone else np.broadcast_shapes(*map(np.shape, axes))
    spent = charge(0, K * m * e * (K + 1) ** (m - 1), budget, "dual polynomial")
    D = dual_polynomial(m, d)
    charge(spent, len(D.terms) * math.prod(shape), budget, "dual polynomial")
    if lone:
        return D.eval([pow(x, d, p) * pow(c, -1, p) % p for c, x in zip(cred, axes)]) % p == 0
    _check_residue_products(p)
    a = [MultiPoly(1, {(d,): pow(c, -1, p)}).eval_mod([u], p) for c, u in zip(cred, axes)]
    rows = max(1, SLAB_POINTS * shape[0] // max(math.prod(shape), 1))
    return np.concatenate([D.eval_mod([x[lo:lo + rows] if len(x) > 1 else x for x in a], p) == 0
                           for lo in range(0, max(shape[0], 1), rows)])


def diagonal_u_classes(coeffs, d, residues, p, budget=DEFAULT_BUDGET):
    """The kind ("zero", "good" or "bad") of each row u of residues against F = sum c_i X_i^d
    mod p: tangency at u != 0 forces x_i^e = u_i / c_i (e = d - 1, x scaled), so
    F(x) = sum u_i x_i, and u is bad exactly when D_{m,d}(a) = 0 mod p,
    a_i = u_i^d / c_i (dual_polynomial), for every prime p prime to d prod c_i, p | e included,
    as root multisets reduce mod p: by diagonal_dual_zeros, on the columns, charged first.
    """
    if len(residues) == 1:  # one u: Python ints cost less than numpy's fixed cost per call
        u = [int(x) % p for x in residues[0]]
        bad = diagonal_dual_zeros(coeffs, d, u, p, budget)
        return np.array(["bad" if bad else "good"] if any(u) else ["zero"])
    u = np.asarray(residues, dtype=np.int64).reshape(len(residues), len(coeffs))
    bad = diagonal_dual_zeros(coeffs, d, list(u.T), p, budget)
    return np.array(["zero", "good", "bad"])[np.where((u % p).any(1), 1 + bad, 0)]


def diagonal_witness_degree(coeffs, d, u, p):
    """The degree r of the least F_{p^r} that holds every tangency point of u != 0 mod p
    against F = sum c_i X_i^d, in closed form: integer arithmetic, no field table.

    Scaled to x_i0 = 1 (i0 the first i with u_i != 0), a tangency point has x_i = 0 where
    u_i = 0 and x_i^e = b_i = c_i0 u_i / (u_i0 c_i) elsewhere, e = d - 1.  With e = p^a e',
    p prime to e', and x -> x^p a bijection fixing b_i, that is x_i^e' = b_i, and all e'
    roots lie in F_{p^r} exactly when e' ord_p(b_i) divides p^r - 1.  So r is the order of
    p mod L = e' lcm_i ord_p(b_i), at most e' as p = 1 mod each ord_p(b_i).
    """
    cred, ured = [int(c) % p for c in coeffs], [int(x) % p for x in u]
    if not (is_prime(p) and _diagonal_applies(coeffs, d, p)):
        raise ValueError("need p coprime to d and to every coefficient, p prime and d >= 2")
    if len(ured) != len(cred):
        raise ValueError("u arity mismatch")
    live = [i for i, x in enumerate(ured) if x]
    if not live:
        raise ValueError("u = 0 mod p has no tangency points")
    e = d - 1
    while e % p == 0:
        e //= p
    i0, orders = live[0], [1]
    for i in live[1:]:
        b = cred[i0] * ured[i] * pow(ured[i0] * cred[i], -1, p) % p
        orders.append(p - 1)
        for q in prime_factors(p - 1):
            while orders[-1] % q == 0 and pow(b, orders[-1] // q, p) == 1:
                orders[-1] //= q
    L = e * math.lcm(*orders)
    return next(r for r in range(1, e + 1) if pow(p, r, L) == 1 % L)
