"""Arithmetic contexts for F_q, q = p^k: ExtField(p, k), with F_p = ExtField(p, 1).

Elements are plain ints, the base-p digit encodings c_0 + c_1*p + ... of
c_0 + c_1*T + ... in F_p[T]/(modulus).  A field precomputes exp/log tables of
the cyclic unit group and digit, trace and psi tables, so products and powers
are index arithmetic plus table gathers and sums are digit sums mod p.  Every
table comes from the companion matrix of the modulus (ExtField._build_tables).
Contexts are immutable after construction.
"""

from functools import lru_cache, reduce

import numpy as np

_Q_CAP = 2_000_000  # full dlog tables only; keep desk scale
EXT_DEGREE_CAP = 4  # largest k for which ExtField(p, k) builds tables


def is_prime(n):
    """Trial-division primality test, adequate below the table cap."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def prime_factors(n):
    """Distinct prime factors of n by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def primes_in(lo, hi):
    """Primes p with lo <= p <= hi."""
    return [p for p in range(max(2, lo), hi + 1) if is_prime(p)]


def _matpow(m, e, p):
    """m^e mod p for a square matrix m given as a list of rows, by binary powering."""
    def mul(a, b):
        return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]

    out = [[int(i == j) for j in range(len(m))] for i in range(len(m))]
    while e:
        if e & 1:
            out = mul(out, m)
        m, e = mul(m, m), e >> 1
    return out


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


def _digits(n, p, k):
    """The k base-p digits of n, least significant first."""
    return tuple(n // p**i % p for i in range(k))


def _irreducible(coeffs, p):
    """Exhaustive factor search: no monic factor of degree <= deg/2."""
    k = len(coeffs) - 1
    # degree-1 factors <=> roots
    for x in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        if acc == 0:
            return False
    for d in range(2, k // 2 + 1):
        for tail in range(p**d):
            # only irreducible candidates matter, but divisibility is cheap
            if _poly_divides(_digits(tail, p, d) + (1,), coeffs, p):
                return False
    return True


class ExtField:
    """F_{p^k} as F_p[T]/(modulus) with exp/log and trace tables; k = 1 is F_p.

    g is the encoding of the generator that exp_table powers, the least
    encoding of any generator: the smallest primitive root when k = 1.
    """

    def __init__(self, p, k=1):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if not 1 <= k <= EXT_DEGREE_CAP:
            raise ValueError(f"extension degree {k} unsupported (cap is {EXT_DEGREE_CAP})")
        q = p**k
        if q > _Q_CAP:
            raise ValueError(f"q=p^k={q} beyond the table cap {_Q_CAP}")
        self.p = p
        self.k = k
        self.q = q
        self.modulus = self._smallest_irreducible(p, k)
        self._build_tables()

    @staticmethod
    def _smallest_irreducible(p, k):
        """Monic T^k + a_{k-1}T^{k-1} + ... + a_0, smallest digit encoding."""
        if k == 1:
            return (0, 1)
        for tail in range(p**k):
            if _irreducible(_digits(tail, p, k) + (1,), p):
                return _digits(tail, p, k) + (1,)
        raise RuntimeError("no irreducible polynomial found")  # unreachable

    def _build_tables(self):
        p, k, q = self.p, self.k, self.q
        # the companion matrix C of the modulus is times T on digit columns, so times the
        # element with digits d is sum_t d_t C^t, and Tr(T^t) = trace C^t
        C = [[int(i == j + 1) if j < k - 1 else -self.modulus[i] % p for j in range(k)]
             for i in range(k)]
        powers = [_matpow(C, t, p) for t in range(k)]

        def times(x):
            return [[sum(d * c[i][j] for d, c in zip(_digits(x, p, k), powers)) % p
                     for j in range(k)] for i in range(k)]

        # the least generator; F_p^* is too small to hold one when k >= 2
        factors = prime_factors(q - 1)
        self.g = next(x for x in range(p if k > 1 else 1, q) if all(
            _matpow(times(x), (q - 1) // ell, p) != powers[0] for ell in factors))
        # digit rows g^0 ... g^(n-1), doubled by G^n in one array; sums stay below k p^2
        rows = np.zeros((q - 1, k), dtype=np.int64)
        rows[0, 0] = 1
        step, n = np.array(times(self.g), dtype=np.int64).T, 1
        while n < q - 1:
            m = min(n, q - 1 - n)
            np.remainder(rows[:m] @ step, p, out=rows[n:n + m])
            step, n = step @ step % p, n + m
        self.exp_table = rows @ p ** np.arange(k, dtype=np.int64)
        del rows
        self.log_table = np.full(q, -1, dtype=np.int64)
        self.log_table[self.exp_table] = np.arange(q - 1)
        # row i: base-p digit i of every element
        self.digit_table = (np.arange(q, dtype=np.int64)[None, :]
                            // p ** np.arange(k, dtype=np.int64)[:, None]) % p
        # the trace on the power basis, checked against the Frobenius sum
        # T^t + T^(tp) + ... + T^(tp^(k-1)) read from the tables
        basis_traces = [sum(c[i][i] for i in range(k)) % p for c in powers]
        for t, tr in enumerate(basis_traces):
            if reduce(self.add, (self.pow(p**t, p**i) for i in range(k))) != tr:
                raise RuntimeError(f"the Frobenius sum of T^{t} is not trace C^{t} = {tr}")
        self.trace_table = np.array(basis_traces, dtype=np.int64) @ self.digit_table % p
        self.psi_table = np.exp(2j * np.pi * self.trace_table / p)

    def __repr__(self):
        return f"ExtField(p={self.p}, k={self.k})"

    def elements(self):
        return np.arange(self.q, dtype=np.int64)

    def embed(self, c):
        return int(c) % self.p

    def dlog(self, u):
        """Exponent e in [0, q-2] with g^e = u; u must be a unit in [1, q)."""
        u = int(u)
        if not 0 < u < self.q:
            raise ValueError(f"dlog needs a unit of F_{self.q}, not {u}")
        return int(self.log_table[u])

    def add(self, a, b):
        """Sum digit by digit mod p."""
        digits = (self.digit_table.T[a] + self.digit_table.T[b]) % self.p
        out = digits @ self.p ** np.arange(self.k)
        return out if out.ndim else int(out)

    def mul(self, a, b):
        """g^(log a + log b), 0 where a or b is 0."""
        la, lb = self.log_table[a], self.log_table[b]
        out = np.where((la < 0) | (lb < 0), 0, self.exp_table[(la + lb) % (self.q - 1)])
        return out if out.ndim else int(out)

    def pow(self, a, e):
        a = np.asarray(a, dtype=np.int64)
        la = self.log_table[a]
        out = self.exp_table[(la * int(e)) % (self.q - 1)]
        out = np.where(la < 0, 0 if e else 1, out)
        return out if out.ndim else int(out)

    def trace(self, x):
        out = self.trace_table[np.asarray(x, dtype=np.int64)]
        return out if out.ndim else int(out)


def _residues(x, p):
    """x mod p as int64, elementwise: an integer array is cast and reduced; an int, a
    list or an object array is reduced exactly first, so it may hold ints past int64."""
    if getattr(x, "dtype", object) == object:
        x = np.asarray(x, dtype=object) % p
    return np.asarray(x, dtype=np.int64) % p


@lru_cache(maxsize=64)
def cached_field(p, k=1):
    """Shared immutable field contexts; construction is the only mutation."""
    return ExtField(p, k)


def additive_char(field, x):
    """psi(x) = e(Tr(x)/p); accepts scalars or index arrays."""
    out = field.psi_table[np.asarray(x, dtype=np.int64) % field.q]
    return out if out.ndim else complex(out)


def mult_char(field, r, j):
    """Multiplicative character table chi(x) = e(j*dlog(x)/r), chi(0)=0.

    Requires r | p-1; the returned table has exact order r/gcd(j, r).
    """
    from .tracefn import TraceFunction

    if field.k != 1:
        raise ValueError("mult_char is defined on prime fields")
    p = field.p
    if r < 1 or (p - 1) % r != 0:
        raise ValueError(f"order {r} does not divide p-1={p - 1}")
    j = int(j) % r
    values = np.zeros(p, dtype=np.complex128)
    units = np.arange(1, p)
    values[units] = np.exp(2j * np.pi * j * field.log_table[units] / r)
    return TraceFunction(q=p, values=values, label=f"chi(p={p},r={r},j={j})", sup_bound=1.0)
