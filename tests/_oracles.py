"""Independent brute-force oracles used to freeze expected test values.

Everything here deliberately avoids the library's fast paths: sums are
enumerated tuple by tuple, orders by repeated multiplication, counts by
nested loops.
"""

import cmath
import itertools


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


def ext_exp_table_loop(p, modulus):
    """Powers 1, g, g^2, ... of the first unit g of order q - 1 in F_p[T]/(modulus).

    Units are tried in encoding order; each is powered by repeated
    products until the power returns to 1, and the first whose walk
    visits all q - 1 units is the generator.  Returns the encodings.
    """
    from polysieve.fields import _poly_mul_mod

    k = len(modulus) - 1
    q = p**k

    def decode(x):
        return tuple(x // p**i % p for i in range(k))

    def encode(tup):
        return sum(c * p**i for i, c in enumerate(tup))

    one = decode(1)
    for cand in range(1, q):
        g = decode(cand)
        walk, acc = [1], _poly_mul_mod(one, g, modulus, p)
        while acc != one:
            walk.append(encode(acc))
            acc = _poly_mul_mod(acc, g, modulus, p)
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
    """F_{p^k} as coefficient tuples over F_p, multiplied by _poly_mul_mod.

    Elements are exchanged as the same integer encodings the library
    uses (digit i is the coefficient of T^i), but every operation decodes
    to a tuple, works digit by digit or by schoolbook product mod the
    given modulus, and encodes back.  Addition and multiplication tables
    are filled once, so scans over small fields stay cheap.
    """

    def __init__(self, p, modulus):
        from polysieve.fields import _poly_mul_mod

        self.p = p
        self.k = len(modulus) - 1
        self.q = p**self.k
        elems = range(self.q)
        tups = [self.decode(x) for x in elems]
        self.add_tab = [[self.encode(tuple((a + b) % p for a, b in zip(ta, tb)))
                         for tb in tups] for ta in tups]
        self.mul_tab = [[self.encode(_poly_mul_mod(ta, tb, modulus, p))
                         for tb in tups] for ta in tups]
        self.neg_tab = [self.encode(tuple(-a % p for a in ta)) for ta in tups]

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

    def neg(self, a):
        return self.neg_tab[a]

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
            if all(tf.add(tf.mul(g[a], ured[b]), tf.neg(tf.mul(g[b], ured[a]))) == 0
                   for a in range(n_vars) for b in range(a + 1, n_vars)):
                return "bad", j, tuple(x)
    return "good", None, None


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


def fourier_dense(values, field, conjugate=False):
    """y -> sum_x psi(xy) values[x] through the q x q kernel psi(x y)."""
    import numpy as np

    xs = field.elements()
    kernel = field.psi_table[field.mul(xs[None, :], xs[:, None])]
    return (np.conj(kernel) if conjugate else kernel) @ np.asarray(values)


def te_dense(values, e, field, conjugate=False):
    """y -> sum_z psi(z^e y) values[z] through the q x q kernel psi(y z^e)."""
    import numpy as np

    xs = field.elements()
    kernel = field.psi_table[field.mul(xs[:, None], field.pow(xs, e)[None, :])]
    return (np.conj(kernel) if conjugate else kernel) @ np.asarray(values)
