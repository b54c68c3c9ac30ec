"""Point counting and tangency classification on hypersurfaces over F_q.

Smoothness and tangency over the algebraic closure are only
semi-decided here: scans search F_{p^j} for j up to an explicit k_max,
and every verdict carries that cap.  Exact closure answers exist only
for diagonal forms (diagonal_dual_oracle).
"""

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BudgetExceeded
from .fields import cached_field, is_prime
from .polynomials import MultiPoly, broadcast_grid

DEFAULT_BUDGET = 10**8
_INT64_SAFE = 2**62


@dataclass(frozen=True)
class FiberCountRecord:
    a: int
    b: Optional[int]
    count: int
    deviation: float

    @property
    def is_pair(self):
        return self.b is not None


@dataclass(frozen=True)
class Witness:
    """A point found during a scan: element indices over F_{p^ext_degree}."""

    ext_degree: int
    point: tuple


@dataclass(frozen=True)
class UClass:
    """Frequency-vector classification: zero, good, or bad (with witness)."""

    kind: str  # "zero" | "good" | "bad"
    witness: Optional[Witness] = None
    k_max: int = 0

    def __post_init__(self):
        if self.kind not in ("zero", "good", "bad"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.kind == "bad" and self.witness is None:
            raise ValueError("bad classification requires a witness")


@dataclass(frozen=True)
class ScanResult:
    """smoothness_scan outcome; smooth=True only means 'no witness up to k_max'."""

    smooth: bool
    k_max: int
    witness: Optional[Witness] = None


def _variable_groups(F):
    """(indices, sub-form) for each class of variables that share no monomial.

    F is the sum of the sub-forms; each lives on the variables of its
    class, whose indices are listed in order.  A variable absent from F
    is a class of its own with the zero form; a form in no variables is
    one empty class.  The constant term goes with the first class.
    """
    groups = [[i] for i in range(F.n_vars)]
    for expo in F.terms:  # merge the classes of the variables in each monomial
        live = {i for i, e in enumerate(expo) if e}
        merged = sorted(i for g in groups if live.intersection(g) for i in g)
        groups = [g for g in groups if not live.intersection(g)] + [merged]
    groups = sorted(g for g in groups if g) or [[]]
    where = {i: k for k, g in enumerate(groups) for i in g}
    terms = [{} for _ in groups]
    for expo, c in F.terms.items():
        first = next((i for i, e in enumerate(expo) if e), None)
        k = 0 if first is None else where[first]
        terms[k][tuple(expo[i] for i in groups[k])] = c
    return [(g, MultiPoly(len(g), t, F.ring)) for g, t in zip(groups, terms)]


def _cyclic_convolve(a, b, p):
    """Exact integer convolution of two histograms on Z/p."""
    full = np.convolve(a, b)
    out = full[:p].copy()
    out[:p - 1] += full[p:]
    return out


def fiber_histogram(F, p, budget=DEFAULT_BUDGET):
    """Array h with h[a] = |{x in F_p^n : F(x) = a}|.

    Each group of variables that shares no monomial with the others is
    counted over its own grid; the group histograms combine by exact
    cyclic convolution, since F is the sum of the group sub-forms.  A
    non-separable F is one group, counted over the full grid.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    n = F.n_vars
    if p**n > budget:
        raise BudgetExceeded(f"p^n = {p**n} exceeds budget {budget}")
    if p**n >= _INT64_SAFE:
        raise OverflowError(f"p^n = {p**n} fiber counts would overflow 64-bit integers")
    hist = None
    for _, sub in _variable_groups(F):
        vals = sub.eval_mod(broadcast_grid([np.arange(p, dtype=np.int64)] * sub.n_vars), p)
        h = np.bincount(np.ravel(vals), minlength=p)
        hist = h if hist is None else _cyclic_convolve(hist, h, p)
    return hist


def group_pushforwards(sub, freqs, N):
    """Row j: v -> sum over a in (Z/N)^k with sub(a) = v mod N of e(<u_j, a>/N).

    u_j runs over the product of freqs (C order, one array per variable):
    one phase-weighted bincount of R N^k points for the R rows.
    """
    axes = broadcast_grid([np.arange(N, dtype=np.int64)] * sub.n_vars)
    vals = np.ravel(sub.eval_mod(axes, N))
    us = np.array(list(itertools.product(*freqs)), dtype=np.int64) % N
    expo = sum(np.multiply.outer(us[:, i], axis) % N for i, axis in enumerate(axes)) % N
    phases = np.ravel(np.exp(2j * np.pi * np.arange(N) / N)[expo])
    idx, size = (np.arange(len(us))[:, None] * N + vals).ravel(), len(us) * N
    out = np.bincount(idx, phases.real, size) + 1j * np.bincount(idx, phases.imag, size)
    return out.reshape(len(us), N)


def _sums_plan(F, N, freqs):
    """The variable groups of F, a largest first, and the points complete_sums builds."""
    groups = sorted(_variable_groups(F), key=lambda g: -len(g[0]))
    rows = [math.prod(len(freqs[i]) for i in idx) for idx, _ in groups]
    cost = (N**len(groups[0][0]) + N) * math.prod(rows[1:])
    return groups, cost + sum(N**len(idx) * r for (idx, _), r in zip(groups[1:], rows[1:]))


def complete_sums(F, t_values, N, freqs, budget=DEFAULT_BUDGET):
    """g(x) = sum over a in (Z/N)^m of t(F(a)) e(<a, x>/N), x in the product of freqs.

    freqs lists the residues of each variable; g is indexed by position.
    With t(v) = sum_s c(s) e(sv/N), g(x) = sum_s c(s) prod_g G_g(s, x_g),
    G_g the DFT of a group's twisted pushforward (group_pushforwards).  A
    largest group absorbs the s-sum: g(., x') is the DFT over its N^k grid
    of S(F_top(a)), S = t convolved with the other groups' pushforward at
    x'.  A non-separable F is one N^m table.  Charged before any build.
    """
    if N * N >= _INT64_SAFE:
        raise OverflowError(f"products of residues mod {N} would overflow 64-bit integers")
    groups, cost = _sums_plan(F, N, freqs)
    if cost > budget:
        raise BudgetExceeded(f"complete sums of {cost} points exceed budget {budget}")
    (top_idx, top), *others = groups
    spec = np.ones((N, 1), dtype=np.complex128)  # prod_g G_g(s, x'_g), x' in C order
    for idx, sub in others:
        G = N * np.fft.ifft(group_pushforwards(sub, [freqs[i] for i in idx], N), axis=1)
        spec = (spec[:, :, None] * G.T[:, None, :]).reshape(N, -1)
    S = np.fft.ifft(np.fft.fft(t_values)[:, None] * spec, axis=0)
    grid = broadcast_grid([np.arange(N, dtype=np.int64)] * len(top_idx))
    g = S.T[:, np.ravel(top.eval_mod(grid, N))].reshape((-1,) + (N,) * len(top_idx))
    for ax, i in reversed(list(enumerate(top_idx, 1))):  # axes x', top; DFT kept on freqs[i]
        g = np.fft.ifft(g, axis=ax).take(np.asarray(freqs[i], dtype=np.int64) % N, ax) * N
    order = [i for idx, _ in others for i in idx] + list(top_idx)
    return g.reshape([len(freqs[i]) for i in order]).transpose(np.argsort(order))


def pair_fiber_histogram(F, G, p, budget=DEFAULT_BUDGET):
    """Matrix h with h[a, b] = |{x : F(x) = a, G(x) = b}|."""
    if F.n_vars != G.n_vars:
        raise ValueError("F and G must share arity")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    n = F.n_vars
    if 2 * p**n > budget:
        raise BudgetExceeded(f"p^n = {p**n} exceeds budget {budget}")
    grid = broadcast_grid([np.arange(p, dtype=np.int64)] * n)
    fv = np.ravel(F.eval_mod(grid, p))
    gv = np.ravel(G.eval_mod(grid, p))
    return np.bincount(fv * p + gv, minlength=p * p).reshape(p, p)


def count_affine_fiber(F, a, p, G=None, b=None, budget=DEFAULT_BUDGET):
    """Exhaustive fiber count N(a, F) or N(a, b, F, G) with its deviation.

    Deviation is count - p^(n-1) for a single fiber, count - p^(n-2)
    for a pair.
    """
    a = int(a) % p
    if G is None:
        hist = fiber_histogram(F, p, budget)
        count = int(hist[a])
        return FiberCountRecord(a, None, count, count - p ** (F.n_vars - 1))
    if b is None:
        raise ValueError("pair count needs b")
    b = int(b) % p
    hist = pair_fiber_histogram(F, G, p, budget)
    count = int(hist[a, b])
    return FiberCountRecord(a, b, count, count - p ** (F.n_vars - 2))


def _projective_classes(field, m):
    """Yield coordinate arrays covering P^(m-1)(F_q) once each.

    Classes are indexed by the leading nonzero position: earlier
    coordinates 0, that one 1, later ones free.
    """
    q = field.q
    for lead in range(m):
        free = m - 1 - lead
        base = (q,) * free if free else (1,)
        coords = []
        for i in range(m):
            if i < lead:
                coords.append(np.zeros(base if not free else (1,) * free, dtype=np.int64))
            elif i == lead:
                coords.append(np.ones(base if not free else (1,) * free, dtype=np.int64))
            else:
                ax = i - lead - 1
                coords.append(np.arange(q, dtype=np.int64).reshape(
                    (1,) * ax + (q,) + (1,) * (free - 1 - ax)))
        yield coords


def _zeros_of(poly, field, coords, shape):
    """The points of the grid broadcast from coords where poly vanishes.

    Returns one flat coordinate array per variable, in C order of the
    grid, so the first entry is the first zero a full scan would meet.
    """
    hits = np.nonzero(np.broadcast_to(poly.eval_field(field, coords) == 0, shape))
    return [np.broadcast_to(c, shape)[hits] for c in coords]


def _keep_zeros(values, pts):
    """Restrict flat point arrays to the entries where values == 0."""
    keep = np.flatnonzero(values == 0)
    return [c[keep] for c in pts]


def _charge(spent, evaluations, budget):
    """spent + evaluations, or BudgetExceeded before the work if that passes budget."""
    spent += evaluations
    if spent > budget:
        raise BudgetExceeded(f"scan would need {spent} evaluations")
    return spent


def _class_points(q, m):
    """Points of P^(m-1)(F_q) over all projective classes."""
    return sum(q**(m - 1 - lead) for lead in range(m))


def smoothness_scan(F, p, k_max=2, budget=DEFAULT_BUDGET):
    """Search for a projective singular point of V(F) over F_{p^j}, j <= k_max.

    F is evaluated on each projective class grid; the partials are
    evaluated only on its zeros (about 1/q of the grid), in C order, so
    the witness is the first singular point of the full scan.  Returns
    ScanResult(smooth=True, k_max) when no witness exists up to the cap;
    that is a semi-decision, not a certificate over the closure.  The
    budget is charged one evaluation per grid point for F, before each
    level, and one per surviving point for each partial, before it runs.
    """
    if not F.is_homogeneous():
        raise ValueError("smoothness scan needs a homogeneous form")
    m = F.n_vars
    d = F.total_degree
    if d % p == 0:
        warnings.warn(f"p={p} divides deg F={d}; the gradient may degenerate")
    partials = F.gradient()
    spent = 0
    for j in range(1, k_max + 1):
        field = cached_field(p, j)
        spent = _charge(spent, _class_points(field.q, m), budget)
        for coords in _projective_classes(field, m):
            pts = _zeros_of(F, field, coords, np.broadcast(*coords).shape)
            for gpoly in partials:
                if not pts[0].size:
                    break
                spent = _charge(spent, pts[0].size, budget)
                pts = _keep_zeros(gpoly.eval_field(field, pts), pts)
            if pts[0].size:
                return ScanResult(False, k_max, Witness(j, tuple(int(c[0]) for c in pts)))
    return ScanResult(True, k_max)


def _kernel_basis(u, p):
    """Basis over F_p of the hyperplane <x, u> = 0; u not 0 mod p."""
    u = [int(c) % p for c in u]
    pivot = next(i for i, c in enumerate(u) if c)
    inv = pow(u[pivot], p - 2, p)
    basis = []
    for j in range(len(u)):
        if j == pivot:
            continue
        vec = [0] * len(u)
        vec[j] = 1
        vec[pivot] = (-u[j] * inv) % p
        basis.append(vec)
    return basis


def classify_u(F, u, p, k_max=2, budget=DEFAULT_BUDGET):
    """Classify a frequency vector u against V(F) mod p.

    zero: u = 0 mod p.  bad: some projective x over F_{p^j}, j <= k_max,
    has F(x) = 0, <x, u> = 0 and grad F(x) parallel to u (all 2x2 minors
    vanish); the witness is returned.  good: no such point up to k_max.
    The hyperplane <x, u> = 0 is scanned class by class through a basis;
    the partials and minors are evaluated only on the zeros of F there,
    in C order, so the witness is the first one a full scan would meet.
    The budget is charged one evaluation per grid point for F, before
    each level, and one per surviving point for each partial and each
    minor, before it runs.
    """
    if not F.is_homogeneous():
        raise ValueError("classify_u needs a homogeneous form")
    m = F.n_vars
    if len(u) != m:
        raise ValueError("u arity mismatch")
    ured = [int(c) % p for c in u]
    if all(c == 0 for c in ured):
        return UClass("zero", k_max=k_max)
    basis = _kernel_basis(ured, p)
    partials = F.gradient()
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    spent = 0
    for j in range(1, k_max + 1):
        field = cached_field(p, j)
        spent = _charge(spent, _class_points(field.q, m - 1), budget)
        for scoords in _projective_classes(field, m - 1):
            shape = np.broadcast(*scoords).shape
            # x = sum_r s_r * basis_r; each s_r is scaled on its own axis
            coords = []
            for i in range(m):
                acc = np.zeros((), dtype=np.int64)
                for s, vec in zip(scoords, basis):
                    if vec[i]:
                        acc = field.add(acc, field.mul(s, field.embed(vec[i])))
                coords.append(acc)
            pts = _zeros_of(F, field, coords, shape)
            if not pts[0].size:
                continue
            spent = _charge(spent, m * pts[0].size, budget)
            grads = [gp.eval_field(field, pts) for gp in partials]
            for (i1, i2) in pairs:
                spent = _charge(spent, pts[0].size, budget)
                # g_i1 u_i2 - g_i2 u_i1 = 0 in F_q
                m1 = field.mul(grads[i1], field.embed(ured[i2]))
                m2 = field.mul(grads[i2], field.embed(ured[i1]))
                keep = np.flatnonzero(m1 == m2)
                pts = [c[keep] for c in pts]
                grads = [g[keep] for g in grads]
                if not pts[0].size:
                    break
            if pts[0].size:
                return UClass("bad", Witness(j, tuple(int(c[0]) for c in pts)), k_max)
    return UClass("good", k_max=k_max)


def diagonal_dual_oracle(coeffs, d, u, p, max_ext=4):
    """Exact tangency classification for the diagonal form sum c_i X_i^d.

    For d = 2 this is the closed-form criterion sum u_i^2 / c_i = 0 mod p.
    For d > 2 the tangency system reduces to x_i^(d-1) = b_i with one
    shared scale; the witness field is found exactly and all root
    combinations are enumerated.  Requires p coprime to d and all c_i.
    """
    m = len(coeffs)
    if len(u) != m:
        raise ValueError("u arity mismatch")
    cred = [int(c) % p for c in coeffs]
    if d % p == 0 or any(c == 0 for c in cred):
        raise ValueError("need p coprime to d and to every coefficient")
    ured = [int(c) % p for c in u]
    if all(c == 0 for c in ured):
        return UClass("zero")
    if d == 2:
        s = sum(ui * ui * pow(ci, p - 2, p) for ui, ci in zip(ured, cred)) % p
        if s == 0:
            # witness in F_p itself: x_i = u_i / (2 c_i)
            inv2 = pow(2, p - 2, p)
            pt = tuple(ui * pow(ci, p - 2, p) * inv2 % p
                       for ui, ci in zip(ured, cred))
            return UClass("bad", Witness(1, pt))
        return UClass("good")
    # d > 2: indices with u_i != 0 carry x_i^(d-1) = b_i, others are 0
    live = [i for i, c in enumerate(ured) if c]
    i0 = live[0]
    b = {}
    for i in live[1:]:
        b[i] = (cred[i0] * ured[i] % p) * pow(ured[i0] * cred[i] % p, p - 2, p) % p
    e = d - 1
    ords = {i: (p - 1) // math.gcd(cached_field(p).dlog(bi), p - 1) for i, bi in b.items()}
    r = None
    for cand in range(1, max_ext + 1):
        qq = p**cand - 1
        if qq % e:
            continue
        if all(qq // e % ords[i] == 0 for i in b):
            r = cand
            break
    if r is None:
        raise ValueError(f"witness field exceeds the degree cap {max_ext}")
    field = cached_field(p, r)
    qm1 = field.q - 1
    zeta = field.exp_table[qm1 // e] if e > 1 else 1
    roots = {}
    for i, bi in b.items():
        L = int(field.log_table[bi])
        base = int(field.exp_table[(L // e) % qm1]) if L % e == 0 else None
        if base is None:  # L is divisible by e by choice of r
            raise RuntimeError("inconsistent root extraction")
        roots[i] = [base]
        for _ in range(e - 1):
            roots[i].append(int(field.mul(roots[i][-1], zeta)))
    # check sum_{i in live} u_i x_i = 0 over all root combinations
    combos = [()]
    for i in live[1:]:
        combos = [c + (x,) for c in combos for x in roots[i]]
    for combo in combos:
        acc = field.embed(ured[i0])  # x_{i0} = 1
        for i, x in zip(live[1:], combo):
            acc = field.add(acc, field.mul(x, field.embed(ured[i])))
        if acc == 0:
            pt = [0] * m
            pt[i0] = 1
            for i, x in zip(live[1:], combo):
                pt[i] = int(x)
            return UClass("bad", Witness(r, tuple(pt)))
    return UClass("good")


def singular_fiber_scan(f, g=None, p=None, k_max=2, budget=DEFAULT_BUDGET):
    """Values lam in F_p where V(f - lam) (or V(g) and V(f - lam)) is singular.

    Singularity means a point over F_{p^j}, j <= k_max, where the
    derivative matrix of the defining equations drops rank; the
    lam-independent minor polynomials are built once and reused.
    Returns {lam: witness}.
    """
    if p is None:
        raise ValueError("p required")
    m = f.n_vars
    if g is not None and g.n_vars != m:
        raise ValueError("arities differ")
    fp = f.reduce_mod(p) if f.ring is None else f
    gp = g.reduce_mod(p) if (g is not None and g.ring is None) else g
    grad_f = fp.gradient()
    if gp is None:
        conditions = list(grad_f)  # critical points: grad f = 0
        membership = []
    else:
        grad_g = gp.gradient()
        conditions = []
        for i in range(m):
            for jj in range(i + 1, m):
                conditions.append(grad_f[i] * grad_g[jj] - grad_f[jj] * grad_g[i])
        membership = [gp]
    out = {}
    spent = 0
    for j in range(1, k_max + 1):
        field = cached_field(p, j)
        q = field.q
        spent = _charge(spent, q**m * (len(conditions) + len(membership) + 1), budget)
        first, *rest = membership + conditions
        pts = _zeros_of(first, field, broadcast_grid([np.arange(q, dtype=np.int64)] * m),
                        (q,) * m)
        for poly in rest:
            if not pts[0].size:
                break
            pts = _keep_zeros(poly.eval_field(field, pts), pts)
        if not pts[0].size:
            continue
        lam_vals = fp.eval_field(field, pts)
        for n in np.flatnonzero(lam_vals < p):  # F_p elements embed as 0..p-1
            lam = int(lam_vals[n])
            if lam not in out:
                out[lam] = Witness(j, tuple(int(c[n]) for c in pts))
    return out
