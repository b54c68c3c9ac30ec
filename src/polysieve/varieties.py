"""Point counting and tangency classification on hypersurfaces over F_q.

Smoothness and tangency over the algebraic closure are only
semi-decided here: scans search F_{p^j} for j up to an explicit k_max,
and every verdict carries that cap.  Exact closure answers exist only
for diagonal forms (diagonal_dual_oracle).
"""

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

    def digits(self, p):
        if self.ext_degree == 1:
            return tuple(int(x) for x in self.point)
        out = []
        for x in self.point:
            x = int(x)
            ds = []
            for _ in range(self.ext_degree):
                ds.append(x % p)
                x //= p
            out.append(tuple(ds))
        return tuple(out)


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
    """Sub-forms of F on classes of variables that share no monomial.

    F is the sum of the returned sub-forms, and each sub-form lives on
    the variables of its class, in order.  A variable absent from F is
    a class of its own with the zero form; a form in no variables is
    one empty class.  The constant term goes with the first class.
    """
    n = F.n_vars
    parent = list(range(n))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for expo in F.terms:
        live = [i for i, e in enumerate(expo) if e]
        for i in live[1:]:
            parent[root(i)] = root(live[0])
    classes = {}
    for i in range(n):
        classes.setdefault(root(i), []).append(i)
    groups = sorted(classes.values()) or [[]]
    where = {i: k for k, g in enumerate(groups) for i in g}
    terms = [{} for _ in groups]
    for expo, c in F.terms.items():
        first = next((i for i, e in enumerate(expo) if e), None)
        k = 0 if first is None else where[first]
        terms[k][tuple(expo[i] for i in groups[k])] = c
    return [MultiPoly(len(g), t, F.ring) for g, t in zip(groups, terms)]


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
    for sub in _variable_groups(F):
        vals = sub.eval_mod(broadcast_grid([np.arange(p, dtype=np.int64)] * sub.n_vars), p)
        h = np.bincount(np.ravel(vals), minlength=p)
        hist = h if hist is None else _cyclic_convolve(hist, h, p)
    return hist


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


def _first_true(mask, coords, shape):
    idx = np.argwhere(np.broadcast_to(mask, shape))
    if idx.size == 0:
        return None
    first = tuple(idx[0])
    return tuple(int(np.broadcast_to(c, shape)[first]) for c in coords)


def smoothness_scan(F, p, k_max=2, budget=DEFAULT_BUDGET):
    """Search for a projective singular point of V(F) over F_{p^j}, j <= k_max.

    Returns ScanResult(smooth=True, k_max) when no witness exists up to
    the cap; that is a semi-decision, not a certificate over the closure.
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
        q = field.q
        cls_points = sum(q**(m - 1 - lead) for lead in range(m))
        spent += cls_points * (1 + m)
        if spent > budget:
            raise BudgetExceeded(f"scan would need {spent} evaluations")
        for coords in _projective_classes(field, m):
            shape = np.broadcast(*coords).shape
            mask = np.broadcast_to(F.eval_field(field, coords) == 0, shape).copy()
            for gpoly in partials:
                if not mask.any():
                    break
                mask &= np.broadcast_to(gpoly.eval_field(field, coords) == 0, shape)
            pt = _first_true(mask, coords, shape)
            if pt is not None:
                return ScanResult(False, k_max, Witness(j, pt))
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
        q = field.q
        spent += (q ** (m - 2) * m) * (2 + len(pairs))
        if spent > budget:
            raise BudgetExceeded(f"scan would need {spent} evaluations")
        for scoords in _projective_classes(field, m - 1):
            shape = np.broadcast(*scoords).shape
            # x = sum_r s_r * basis_r, coordinates in F_q
            coords = []
            for i in range(m):
                acc = np.zeros(shape, dtype=np.int64)
                for s, vec in zip(scoords, basis):
                    if vec[i]:
                        acc = field.add(acc, field.mul(
                            np.broadcast_to(s, shape),
                            np.full(shape, field.embed(vec[i]), dtype=np.int64)))
                coords.append(acc)
            mask = F.eval_field(field, coords) == 0
            if not mask.any():
                continue
            grads = [gp.eval_field(field, coords) for gp in partials]
            for (i1, i2) in pairs:
                m1 = field.mul(grads[i1], np.full(shape, field.embed(ured[i2]),
                                                  dtype=np.int64))
                m2 = field.mul(grads[i2], np.full(shape, field.embed(ured[i1]),
                                                  dtype=np.int64))
                mask &= field.add(m1, field.neg(m2)) == 0
                if not mask.any():
                    break
            pt = _first_true(mask, coords, shape)
            if pt is not None:
                return UClass("bad", Witness(j, pt), k_max)
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
    ords = {i: _mult_order(bi, p) for i, bi in b.items()}
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


def _mult_order(a, p):
    a %= p
    if a == 0:
        raise ValueError("order of 0")
    order = 1
    acc = a
    while acc != 1:
        acc = acc * a % p
        order += 1
    return order


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
        spent += q**m * (len(conditions) + len(membership) + 1)
        if spent > budget:
            raise BudgetExceeded(f"scan would need {spent} evaluations")
        coords = broadcast_grid([np.arange(q, dtype=np.int64)] * m)
        shape = (q,) * m
        mask = np.ones(shape, dtype=bool)
        for poly in membership + conditions:
            mask &= np.broadcast_to(poly.eval_field(field, coords) == 0, shape)
            if not mask.any():
                break
        if not mask.any():
            continue
        lam_vals = np.broadcast_to(fp.eval_field(field, coords), shape)
        hits = np.argwhere(mask & (lam_vals < p))  # F_p elements embed as 0..p-1
        for hit in hits:
            lam = int(lam_vals[tuple(hit)])
            if lam not in out:
                pt = tuple(int(np.broadcast_to(c, shape)[tuple(hit)]) for c in coords)
                out[lam] = Witness(j, pt)
    return out
