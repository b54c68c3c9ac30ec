"""Independent brute-force oracles used to freeze expected test values.

Everything here deliberately avoids the library's fast paths: sums are
enumerated tuple by tuple, orders by repeated multiplication, counts by
nested loops.
"""

import cmath
import itertools
import math
from collections import Counter

from polysieve.errors import PolyParseError


def mult_order(a, p):
    a %= p
    assert a != 0
    order, acc = 1, a
    while acc != 1:
        acc = acc * a % p
        order += 1
    return order


def smallest_generator(p):
    if p == 2:
        return 1
    for g in range(2, p):
        if mult_order(g, p) == p - 1:
            return g
    raise AssertionError


def kloosterman_direct(m, p, a):
    """Sum over unit tuples with product a, normalized; O(p^(m-1))."""
    total = 0j
    for ys in itertools.product(range(1, p), repeat=m - 1):
        prod = 1
        for y in ys:
            prod = prod * y % p
        # last coordinate forced: prod * y_m = a
        if a % p == 0:
            continue
        y_m = a * pow(prod, -1, p) % p
        s = (sum(ys) + y_m) % p
        total += cmath.exp(2j * cmath.pi * s / p)
    if a % p == 0:
        total = 0j
    return (-1) ** (m - 1) * total / p ** ((m - 1) / 2)


def kloosterman_dense(m, field):
    """Kl_m table on any F_q by iterated products with the dense kernel.

    In the exponent domain (unit g^i <-> index i) the multiplicative
    convolution is a cyclic convolution, applied here as m - 1 products
    with the (q-1) x (q-1) circulant matrix; O(m q^2) time and memory.
    """
    import numpy as np

    q = field.q
    n = q - 1
    psi_units = field.psi_table[field.exp_table]
    shift = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    kernel = psi_units[shift]
    acc = psi_units.copy()
    for _ in range(m - 1):
        acc = kernel @ acc
    table = np.zeros(q, dtype=np.complex128)
    table[field.exp_table] = acc
    return table * (-1) ** (m - 1) / float(q) ** ((m - 1) / 2)


def fiber_histogram_direct(F_terms, n_vars, p):
    """Nested-loop h[a] = #{x in F_p^n : F(x) = a mod p}; F_terms {expo: coeff}."""
    hist = [0] * p
    for pt in itertools.product(range(p), repeat=n_vars):
        total = 0
        for expo, c in F_terms.items():
            term = c
            for x, e in zip(pt, expo):
                term *= x**e
            total += term
        hist[total % p] += 1
    return hist


def box_count_direct(f_coeffs, F_terms, n_vars, B):
    """Nested-loop N(f, F, B); f_coeffs ascending, F_terms {expo: coeff}."""

    def f_at(t):
        acc = 0
        for c in reversed(f_coeffs):
            acc = acc * t + c
        return acc

    def F_at(pt):
        total = 0
        for expo, c in F_terms.items():
            term = c
            for x, e in zip(pt, expo):
                term *= x**e
            total += term
        return total

    count = 0
    for pt in itertools.product(range(-B, B + 1), repeat=n_vars):
        v = F_at(pt)
        t = 0
        hit = False
        while True:
            ft, fmt = f_at(t), f_at(-t)
            if ft == v or fmt == v:
                hit = True
                break
            if abs(ft) > abs(v) and abs(fmt) > abs(v) and t > 2 + max(
                    abs(c) for c in f_coeffs):
                break
            t += 1
        count += hit
    return count


def box_histogram_direct(F_terms, n_vars, B):
    """Nested-loop value histogram of F on [-B, B]^n: sorted values, counts."""
    from collections import Counter

    tally = Counter()
    for pt in itertools.product(range(-B, B + 1), repeat=n_vars):
        total = 0
        for expo, c in F_terms.items():
            term = c
            for x, e in zip(pt, expo):
                term *= x**e
            total += term
        tally[total] += 1
    values = sorted(tally)
    return values, [tally[v] for v in values]


def poly_mul_mod(a, b, modulus, p):
    """Schoolbook product of two length-k coefficient tuples mod (modulus, p), modulus monic."""
    k = len(modulus) - 1
    prod = [0] * (2 * k - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    for i in range(2 * k - 2, k - 1, -1):  # T^i = T^(i-k) * (T^k - modulus)
        for j in range(k):
            prod[i - k + j] -= prod[i] * modulus[j]
    return tuple(c % p for c in prod[:k])


def tuple_pow(a, e, modulus, p):
    """a^e mod (modulus, p) for a coefficient tuple a, by binary powering with poly_mul_mod."""
    out = (1,) + (0,) * (len(a) - 1)
    while e:
        if e & 1:
            out = poly_mul_mod(out, a, modulus, p)
        a, e = poly_mul_mod(a, a, modulus, p), e >> 1
    return out


def frobenius_sum(x, modulus, p):
    """x + x^p + ... + x^(p^(k-1)) for a coefficient tuple x of length k."""
    powers = [tuple(x)]
    for _ in range(len(x) - 1):
        powers.append(tuple_pow(powers[-1], p, modulus, p))
    return tuple(sum(col) % p for col in zip(*powers))


def ext_exp_table_loop(p, modulus):
    """Powers 1, g, g^2, ... of the first unit g of order q - 1 in F_p[T]/(modulus).

    Units are tried in encoding order; each is powered by repeated
    products until the power returns to 1, and the first whose walk
    visits all q - 1 units is the generator.  Returns the encodings.
    """
    k = len(modulus) - 1
    q = p**k

    def decode(x):
        return tuple(x // p**i % p for i in range(k))

    def encode(tup):
        return sum(c * p**i for i, c in enumerate(tup))

    one = decode(1)
    for cand in range(1, q):
        g = decode(cand)
        walk, acc = [1], poly_mul_mod(one, g, modulus, p)
        while acc != one:
            walk.append(encode(acc))
            acc = poly_mul_mod(acc, g, modulus, p)
        if len(walk) == q - 1:
            return walk
    raise AssertionError("no generator")


def box_count_per_point(f_coeffs, F_terms, n_vars, B):
    """Vectorized N(f, F, B) that tests every box point on its own.

    F is evaluated term by term on a full meshgrid of the box; f(Z) is
    listed by the same outward walk as box_count_direct, stopped once
    both tails pass the largest |F| on the box.
    """
    import numpy as np

    side = np.arange(-B, B + 1, dtype=np.int64)
    pts = np.meshgrid(*[side] * n_vars, indexing="ij")
    vals = np.zeros(pts[0].shape, dtype=np.int64)
    for expo, c in F_terms.items():
        term = np.full(vals.shape, c, dtype=np.int64)
        for x, e in zip(pts, expo):
            term = term * x**e
        vals += term
    v_max = int(np.abs(vals).max())

    def f_at(t):
        acc = 0
        for c in reversed(f_coeffs):
            acc = acc * t + c
        return acc

    f_values = []
    t = 0
    while True:
        ft, fmt = f_at(t), f_at(-t)
        f_values += [ft, fmt]
        if abs(ft) > v_max and abs(fmt) > v_max and t > 2 + max(
                abs(c) for c in f_coeffs):
            break
        t += 1
    return int(np.isin(vals, f_values).sum())


def integer_root_of(f, v):
    """Some integer t with f(t) = v, or None; direct root isolation.

    Independent of the value-table path (sieve.in_h_image): rounds the
    real roots of f(T) - v obtained from the companion matrix and verifies
    exactly.
    """
    import numpy as np

    coeffs = list(f.sub_const(int(v)).coeffs)
    roots = np.roots(list(reversed(coeffs)))
    for r in roots:
        if abs(r.imag) > 0.51:
            continue
        for t in (math.floor(r.real), round(r.real), math.ceil(r.real)):
            if f.eval(int(t)) == v:
                return int(t)
    return None


def integer_preimage_exists(h, n):
    """Whether h(t) = n for some integer t; exact for ints of any size.

    The exact reference past int64, one Python int at a time: every t in the
    critical zone |t| <= crit (crit = 1 + max |coeff of h'|, beyond every real
    critical point), then each strictly monotone tail by a doubling search and
    a bisection.
    """
    if h.degree < 1:
        return h.eval(0) == n
    crit = 1 + max(abs(i * c) for i, c in enumerate(h.coeffs))
    if any(h.eval(t) == n for t in range(-crit, crit + 1)):
        return True
    for sign in (1, -1):
        def val(s):
            return h.eval(sign * (crit + s))

        inc = val(1) > val(0)
        if (n < val(0)) if inc else (n > val(0)):
            continue
        hi = 1
        while (val(hi) < n) if inc else (val(hi) > n):
            hi *= 2
        lo = 0
        while lo <= hi:
            mid = (lo + hi) // 2
            v = val(mid)
            if v == n:
                return True
            if (v < n) if inc else (v > n):
                lo = mid + 1
            else:
                hi = mid - 1
    return False


def coeffs_from_roots(lc, roots):
    """Integer coefficients (constant first) of lc * prod (T - r)."""
    coeffs = [lc]
    for r in roots:
        coeffs = [a - r * b for a, b in zip([0] + coeffs, coeffs + [0])]
    return coeffs


def resultant_from_roots(lc, roots, b_coeffs, p=None):
    """Res(a, b) for a = lc * prod (T - r_i), as lc^deg(b) * prod b(r_i).

    b_coeffs is constant first with a leading coefficient that is nonzero
    (mod p when p is given); the product runs over Z or mod p.
    """
    res = lc ** (len(b_coeffs) - 1)
    for r in roots:
        res *= sum(c * r**k for k, c in enumerate(b_coeffs))
    return res if p is None else res % p


def poly_eval_in_field(coeffs, field, x):
    """Horner evaluation of an integer-coefficient UniPoly at a field element."""
    acc = 0
    for c in reversed(coeffs):
        acc = field.add(field.mul(acc, x), field.embed(c))
    return acc


def poly_eval_everywhere(coeffs, field):
    """Horner evaluation at every field element at once (index array)."""
    import numpy as np

    xs = field.elements()
    acc = np.zeros(field.q, dtype=np.int64)
    for c in reversed(coeffs):
        acc = field.add(field.mul(acc, xs), np.full(field.q, field.embed(c)))
    return acc


class TupleField:
    """F_{p^k} as coefficient tuples over F_p, multiplied by poly_mul_mod.

    Elements are exchanged as the same integer encodings the library
    uses (digit i is the coefficient of T^i), but every operation decodes
    to a tuple, works digit by digit or by schoolbook product mod the
    given modulus, and encodes back.  Addition and multiplication tables
    are filled once, so scans over small fields stay cheap.
    """

    def __init__(self, p, modulus):
        self.p = p
        self.k = len(modulus) - 1
        self.q = p**self.k
        elems = range(self.q)
        tups = [self.decode(x) for x in elems]
        self.add_tab = [[self.encode(tuple((a + b) % p for a, b in zip(ta, tb)))
                         for tb in tups] for ta in tups]
        self.mul_tab = [[self.encode(poly_mul_mod(ta, tb, modulus, p))
                         for tb in tups] for ta in tups]

    @classmethod
    def like(cls, field):
        """The tuple model of a library field, on the same modulus."""
        return cls(field.p, getattr(field, "modulus", (0, 1)))

    def decode(self, x):
        out = []
        for _ in range(self.k):
            x, r = divmod(x, self.p)
            out.append(r)
        return tuple(out)

    def encode(self, tup):
        return sum(c * self.p**i for i, c in enumerate(tup))

    def add(self, a, b):
        return self.add_tab[a][b]

    def mul(self, a, b):
        return self.mul_tab[a][b]


def eval_field_direct(F_terms, tf, point):
    """F at one point of F_q (TupleField tf): repeated products, one by one."""
    acc = 0
    for expo, c in F_terms.items():
        term = c % tf.p  # base-field constants encode as themselves
        for x, e in zip(point, expo):
            for _ in range(e):
                term = tf.mul(term, x)
        acc = tf.add(acc, term)
    return acc


def _partials(F_terms, n_vars):
    out = []
    for i in range(n_vars):
        terms = {}
        for expo, c in F_terms.items():
            if expo[i]:
                e = list(expo)
                e[i] -= 1
                terms[tuple(e)] = terms.get(tuple(e), 0) + c * expo[i]
        out.append(terms)
    return out


def projective_points(q, m):
    """P^(m-1)(F_q): leading nonzero coordinate 1, the rest in C order."""
    for lead in range(m):
        for free in itertools.product(range(q), repeat=m - 1 - lead):
            yield (0,) * lead + (1,) + free


def smoothness_scan_direct(F_terms, n_vars, fields):
    """First singular projective point over fields[0], fields[1], ...

    Returns (smooth, ext_degree, point); ext_degree is the 1-based index
    of the field holding the witness.
    """
    grads = _partials(F_terms, n_vars)
    for j, tf in enumerate(fields, start=1):
        for pt in projective_points(tf.q, n_vars):
            if (eval_field_direct(F_terms, tf, pt) == 0
                    and all(eval_field_direct(g, tf, pt) == 0 for g in grads)):
                return False, j, pt
    return True, None, None


def classify_u_direct(F_terms, n_vars, u, fields):
    """Tangency class of u by nested loops over the hyperplane <x, u> = 0.

    The hyperplane is parametrized as x = sum_r s_r b_r, where b_r runs
    over e_j - (u_j / u_pivot) e_pivot for j != pivot (pivot: the first
    nonzero u_i), and s over the projective points of P^(m-2) in order.
    Returns (kind, ext_degree, point).
    """
    p = fields[0].p
    ured = [c % p for c in u]
    if not any(ured):
        return "zero", None, None
    pivot = next(i for i, c in enumerate(ured) if c)
    inv = pow(ured[pivot], -1, p)
    basis = []
    for j in range(n_vars):
        if j != pivot:
            vec = [0] * n_vars
            vec[j] = 1
            vec[pivot] = -ured[j] * inv % p
            basis.append(vec)
    grads = _partials(F_terms, n_vars)
    for j, tf in enumerate(fields, start=1):
        for s in projective_points(tf.q, n_vars - 1):
            x = []
            for i in range(n_vars):
                acc = 0
                for sr, vec in zip(s, basis):
                    acc = tf.add(acc, tf.mul(sr, vec[i]))
                x.append(acc)
            if eval_field_direct(F_terms, tf, x) != 0:
                continue
            g = [eval_field_direct(gt, tf, x) for gt in grads]
            if all(tf.mul(g[a], ured[b]) == tf.mul(g[b], ured[a])
                   for a in range(n_vars) for b in range(a + 1, n_vars)):
                return "bad", j, tuple(x)
    return "good", None, None


def diagonal_dual_oracle(coeffs, d, u, p):
    """Exact tangency classification for the diagonal form sum c_i X_i^d.

    For d = 2 this is the closed-form criterion sum u_i^2 / c_i = 0 mod p.
    For d > 2 the tangency system reduces to x_i^(d-1) = b_i with one
    shared scale; the witness field is found exactly and all root
    combinations are enumerated over the library's F_{p^r} tables.  Requires
    p coprime to d and all c_i, and finds the witness field only where p
    does not divide d - 1.
    """
    from polysieve.fields import EXT_DEGREE_CAP, cached_field
    from polysieve.varieties import UClass, Witness

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
    ords = {i: (p - 1) // math.gcd(cached_field(p).log_table[bi], p - 1) for i, bi in b.items()}
    r = None
    for cand in range(1, EXT_DEGREE_CAP + 1):
        qq = p**cand - 1
        if qq % e:
            continue
        if all(qq // e % ords[i] == 0 for i in b):
            r = cand
            break
    if r is None:
        raise ValueError(f"witness field exceeds the degree cap {EXT_DEGREE_CAP}")
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

# ---------------------------------------------------------------------------
# full-grid complete sums and dense transform kernels (numpy, no grouping)

def _grid_values(F, side, N):
    """F mod N on the full grid side^m, as an m-dim array."""
    import numpy as np

    pts = np.meshgrid(*[np.asarray(side, dtype=np.int64)] * F.n_vars, indexing="ij")
    return np.broadcast_to(F.eval_mod(pts, N), (len(side),) * F.n_vars)


def complete_sum_table(F, t_values, p):
    """All g(u, t) at once, indexed by u in F_p^m: ifftn over the full p^m grid."""
    import numpy as np

    vals = _grid_values(F, range(p), p)
    return np.fft.ifftn(np.asarray(t_values)[vals]) * p**F.n_vars


def complete_sum_grid(F, table, u, N):
    """sum over a in (Z/N)^m of table[F(a) mod N] e(<a, u>/N), point by point."""
    import numpy as np

    vals = _grid_values(F, range(N), N)
    pts = np.meshgrid(*[np.arange(N)] * F.n_vars, indexing="ij")
    expo = sum(int(c) * x for c, x in zip(u, pts)) % N
    return complex((np.asarray(table)[vals] * np.exp(2j * np.pi * expo / N)).sum())


def complete_sum_slices(F, table, u, N):
    """complete_sum_grid one slice x_0 = c at a time, by integer evaluation of F: it holds
    N^(m-1) points, not N^m, so an N^3 sum at N near 200 stays small."""
    import numpy as np

    pts = np.meshgrid(*[np.arange(N, dtype=np.int64)] * (F.n_vars - 1), indexing="ij")
    rest = sum(int(c) * x for c, x in zip(u[1:], pts)) % N
    total = 0j
    for c in range(N):
        vals = F.eval([np.full_like(rest, c), *pts]) % N
        expo = (int(u[0]) * c + rest) % N
        total += complex((np.asarray(table)[vals] * np.exp(2j * np.pi * expo / N)).sum())
    return total


def crt_lhs_grid(F, u, p, q, tp_values, tq_values):
    """The mod-pq sum of t_p(F(a)) conj(t_q(F(a))) e(<a,u>/pq) over the full grid."""
    import numpy as np

    v = np.arange(p * q)
    table = np.asarray(tp_values)[v % p] * np.conj(np.asarray(tq_values)[v % q])
    return complete_sum_grid(F, table, u, p * q)


def poisson_dual_grid(F, p, q, tp_values, tq_values, wh_axis):
    """(pq)^-m sum over the u-box of g_p(qbar u) g_q(pbar u) prod wh_axis[u_i].

    The u-box is [-c, c]^m with 2c + 1 = len(wh_axis); g_p and g_q come
    from complete_sum_table over the full grids, and the box is summed
    point by point.
    """
    import numpy as np

    m = F.n_vars
    c = (len(wh_axis) - 1) // 2
    table_p = complete_sum_table(F, tp_values, p)
    table_q = complete_sum_table(F, np.conj(tq_values), q)
    qbar, pbar = pow(q, -1, p), pow(p, -1, q)
    total = 0j
    for u in itertools.product(range(-c, c + 1), repeat=m):
        w = 1.0
        for ui in u:
            w *= wh_axis[ui + c]
        total += (table_p[tuple(qbar * ui % p for ui in u)]
                  * table_q[tuple(pbar * ui % q for ui in u)] * w)
    return total / (p * q) ** m


def poisson_direct_grid(F, p, q, tp_values, tq_values, B):
    """sum over x in [-B, B]^m of W(x) t_p(F(x)) conj(t_q(F(x))), point by point.

    W(x) = prod_i exp(-1/(1 - (x_i/B)^2)), 0 where |x_i| = B; F(x) is exact
    from its terms, and the real and imaginary parts are summed by fsum.
    """
    w = [math.exp(-1 / (1 - (x / B) ** 2)) if abs(x) < B else 0.0 for x in range(-B, B + 1)]
    terms = []
    for x in itertools.product(range(-B, B + 1), repeat=F.n_vars):
        weight = math.prod(w[xi + B] for xi in x)
        if weight:
            v = sum(c * math.prod(xi**e for xi, e in zip(x, expo)) for expo, c in F.terms.items())
            terms.append(weight * complex(tp_values[v % p]) * complex(tq_values[v % q]).conjugate())
    return complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))


def pair_fiber_histogram_grid(F, G, p):
    """h[a, b] = #{x : F(x) = a, G(x) = b}: one bincount over the full p^n grid."""
    import numpy as np

    vals = [np.ravel(_grid_values(H, range(p), p)) for H in (F, G)]
    return np.bincount(vals[0] * p + vals[1], minlength=p * p).reshape(p, p)


def cyclic_convolve_direct(a, b, p):
    """Exact integer convolution of two histograms on Z/p, by np.convolve."""
    import numpy as np

    full = np.convolve(a, b)
    out = full[:p].copy()
    out[:p - 1] += full[p:]
    return out


def fold_direct(parts):
    """Linear product of nonnegative integer arrays of one ndim: each cell of
    each later part adds a shifted copy of the product so far."""
    import numpy as np

    out = parts[0]
    for h in parts[1:]:
        acc = np.zeros([a + b - 1 for a, b in zip(out.shape, h.shape)], dtype=np.int64)
        for idx in np.ndindex(h.shape):
            acc[tuple(slice(i, i + n) for i, n in zip(idx, out.shape))] += h[idx] * out
        out = acc
    return out


def mixsum_grid(F, G, t_values, p):
    """sum over x in F_p^n of t(F(x)) e(G(x)/p), evaluated point by point on the full grid."""
    import numpy as np

    fv, gv = (_grid_values(H, range(p), p) for H in (F, G))
    return complex((np.asarray(t_values)[fv] * np.exp(2j * np.pi * gv / p)).sum())


def jsonable(obj):
    """A report dict rebuilt as plain JSON data by a full recursive walk:
    keys as str, tuples and sets (sorted by repr) as lists, complex as
    {"re", "im"}, numpy scalars through .item(), the rest by repr."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = list(obj)
        if isinstance(obj, (set, frozenset)):
            items = sorted(items, key=repr)
        return [jsonable(v) for v in items]
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if hasattr(obj, "item"):  # numpy scalars
        return jsonable(obj.item())
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return repr(obj)


def critical_values_by_gcd(coeffs, p):
    """Every s in F_p with gcd(f - s, f') != 1 over F_p, by Euclid's algorithm on
    coefficient lists; f has ascending integer coeffs, deg(f mod p) >= 1 and f' != 0 mod p."""
    def trim(a):
        while a and a[-1] % p == 0:
            a.pop()
        return a

    def rem(a, b):
        a, inv = list(a), pow(b[-1], -1, p)
        while len(trim(a)) >= len(b):
            q, shift = a[-1] * inv % p, len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - q * c) % p
        return a

    df = trim([i * c % p for i, c in enumerate(coeffs)][1:])
    out = []
    for s in range(p):
        a, b = trim([(coeffs[0] - s) % p] + [c % p for c in coeffs[1:]]), df
        while b:
            a, b = b, rem(a, b)
        if len(a) > 1:
            out.append(s)
    return out


# polynomial text: a character scanner, a term loop steered by a flag, a renderer

def tokenize_scan(text):
    """(token, offset) pairs of polynomial text, one character at a time."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^()":
            tokens.append((ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append((("num", int(text[i:j])), i))
            i = j
            continue
        if ch in "XT":
            if ch == "T":
                tokens.append((("var", -1), i))
                i += 1
                continue
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise PolyParseError("variable X needs an index", i)
            tokens.append((("var", int(text[i + 1:j])), i))
            i = j
            continue
        raise PolyParseError(f"unexpected character {ch!r}", i)
    return tokens


def parse_terms_loop(text):
    """Yield (coeff, {var_index: exponent}) monomials; T is index -1."""
    tokens = tokenize_scan(text)
    if not tokens:
        raise PolyParseError("empty polynomial", 0)
    pos = 0
    n = len(tokens)
    terms = []
    while pos < n:
        sign = 1
        while pos < n and tokens[pos][0] in ("+", "-"):
            if tokens[pos][0] == "-":
                sign = -sign
            pos += 1
        if pos >= n:
            raise PolyParseError("dangling sign", tokens[-1][1])
        coeff = sign
        expos = {}
        expect_factor = True
        while pos < n:
            tok, at = tokens[pos]
            if tok in ("+", "-") and not expect_factor:
                break
            if tok == "*":
                raise PolyParseError("misplaced '*'", at)
            if isinstance(tok, tuple) and tok[0] == "num":
                coeff *= tok[1]
                pos += 1
            elif isinstance(tok, tuple) and tok[0] == "var":
                idx = tok[1]
                e = 1
                pos += 1
                if pos < n and tokens[pos][0] == "^":
                    pos += 1
                    if pos >= n or not (isinstance(tokens[pos][0], tuple)
                                        and tokens[pos][0][0] == "num"):
                        raise PolyParseError("exponent must be an integer",
                                             tokens[pos - 1][1])
                    e = tokens[pos][0][1]
                    pos += 1
                expos[idx] = expos.get(idx, 0) + e
            else:
                raise PolyParseError(f"unexpected token {tok!r}", at)
            expect_factor = False
            if pos < n and tokens[pos][0] == "*":
                pos += 1
                expect_factor = True
                if pos >= n:
                    raise PolyParseError("dangling '*'", tokens[-1][1])
        terms.append((coeff, expos))
    return terms


def poly_text_loop(terms, names):
    """Render (exponent tuple, coeff) pairs; `names` tells T (names((1,)) == "T") from X<i>."""
    if not terms:
        return "0"
    parts = []
    for expo, c in terms:
        factors = []
        for i, e in enumerate(expo):
            if e == 0:
                continue
            var = "T" if len(expo) == 1 and names((1,)) == "T" else f"X{i}"
            factors.append(var if e == 1 else f"{var}^{e}")
        body = "*".join(factors)
        if not body:
            piece = str(c)
        elif c == 1:
            piece = body
        elif c == -1:
            piece = f"-{body}"
        else:
            piece = f"{c}*{body}"
        parts.append(piece)
    text = parts[0]
    for piece in parts[1:]:
        text += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
    return text


def substitute_loop(terms, vectors):
    """{y exponent: coeff} of sum_e c_e prod_i x_i^e_i at x = sum_r y_r vectors[r], by
    multiplying each term by x_i once per unit of e_i, over Z."""
    k, out = len(vectors), Counter()
    for expo, c in terms.items():
        acc = {(0,) * k: c}
        for i, e in enumerate(expo):
            for _ in range(e):  # times x_i = sum_r vectors[r][i] y_r
                nxt = Counter()
                for mono, a in acc.items():
                    for r, v in enumerate(vectors):
                        if v[i]:
                            nxt[mono[:r] + (mono[r] + 1,) + mono[r + 1:]] += a * v[i]
                acc = nxt
        out.update(acc)
    return out


def complete_sums_one_pass(F, t_values, N, freqs):
    """varieties.complete_sums with its top group's N^k table built in one pass: one gather
    of S at the whole grid, then one FFT per axis, each kept on that axis's freqs."""
    import numpy as np

    from polysieve.polynomials import broadcast_grid
    from polysieve.varieties import _sums_plan, group_pushforwards

    (top_idx, top), *others = _sums_plan(F, N, freqs)[0]
    spec = np.ones((N, 1), dtype=np.complex128)
    for idx, sub in others:
        G = N * np.fft.ifft(group_pushforwards(sub, [freqs[i] for i in idx], N), axis=1)
        spec = (spec[:, :, None] * G.T[:, None, :]).reshape(N, -1)
    S = np.fft.ifft(np.fft.fft(t_values)[:, None] * spec, axis=0)
    grid = broadcast_grid([np.arange(N, dtype=np.int64)] * len(top_idx))
    g = S.T[:, np.ravel(top.eval_mod(grid, N))].reshape((-1,) + (N,) * len(top_idx))
    for ax, i in reversed(list(enumerate(top_idx, 1))):
        g = np.fft.ifft(g, axis=ax).take(np.asarray(freqs[i], dtype=np.int64) % N, ax) * N
    order = [i for idx, _ in others for i in idx] + list(top_idx)
    return g.reshape([len(freqs[i]) for i in order]).transpose(np.argsort(order))


# ---------------------------------------------------------------------------
# the exhaustive factor search that fields._irreducible replaced

def _poly_divides(div, poly, p):
    """Whether div divides poly over F_p (both coefficient tuples, ascending)."""
    rem = list(poly)
    dd = len(div) - 1
    inv_lc = pow(div[-1], p - 2, p)
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i] * inv_lc % p
        if c:
            for j in range(dd + 1):
                rem[i - dd + j] = (rem[i - dd + j] - c * div[j]) % p
    return all(x % p == 0 for x in rem[:dd])


def irreducible_by_search(coeffs, p):
    """No monic factor of degree <= deg/2: every root tried, then division by every monic
    polynomial of degree 2 .. deg/2."""
    k = len(coeffs) - 1
    for x in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        if acc == 0:
            return False
    for d in range(2, k // 2 + 1):
        for tail in range(p**d):
            div = tuple(tail // p**i % p for i in range(d)) + (1,)
            if _poly_divides(div, coeffs, p):
                return False
    return True


def smallest_irreducible_by_search(p, k):
    """The monic irreducible of degree k >= 2 whose tail has the least base-p encoding."""
    for tail in range(p**k):
        coeffs = tuple(tail // p**i % p for i in range(k)) + (1,)
        if irreducible_by_search(coeffs, p):
            return coeffs
    raise AssertionError("no irreducible polynomial")


def primes_by_trial_division(lo, hi):
    """Primes p with lo <= p <= hi, each integer tried by every d with d^2 <= p."""
    return [n for n in range(max(lo, 2), hi + 1)
            if all(n % d for d in range(2, math.isqrt(n) + 1))]
