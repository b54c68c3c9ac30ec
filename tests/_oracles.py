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
