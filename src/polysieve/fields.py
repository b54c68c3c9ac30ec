"""Arithmetic contexts for F_q, q = p^k: ExtField(p, k), with F_p = ExtField(p, 1).

Elements are plain ints, the base-p digit encodings c_0 + c_1*p + ... of
c_0 + c_1*T + ... in F_p[T]/(modulus).  A field precomputes exp/log tables of
the cyclic unit group and digit, trace and psi tables, so products and powers
are index arithmetic plus table gathers and sums are digit sums mod p.  The
modulus is the least monic irreducible of degree k: no root in F_p (one pass),
and for k = 4 C^(p^2) - C invertible for its companion matrix C.  Every table
comes from C (ExtField._build_tables).  Contexts are immutable after construction.
"""

import math
from functools import lru_cache, reduce

import numpy as np

from .errors import _Q_CAP, EXT_DEGREE_CAP


def is_prime(n):
    """Trial-division primality test, adequate below the table cap."""
    return n == 2 or n > 2 and n % 2 == 1 and all(n % d for d in range(3, math.isqrt(n) + 1, 2))


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


def _prime_sieve(lo, hi):
    """Primes p with lo <= p <= hi, as int64: a sieve of Eratosthenes over hi + 1 cells."""
    sieve = np.ones(max(hi + 1, 2), dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(len(sieve) - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return np.flatnonzero(sieve[max(lo, 2):]) + max(lo, 2)


def primes_in(lo, hi):
    """Primes p with lo <= p <= hi, as ints (_prime_sieve)."""
    return _prime_sieve(lo, hi).tolist()


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


def _digits(n, p, k):
    """The k base-p digits of n, least significant first."""
    return tuple(n // p**i % p for i in range(k))


def _companion(modulus, p):
    """The companion matrix of the monic modulus mod p (rows): times T on digit columns."""
    k = len(modulus) - 1
    return [[int(i == j + 1) if j < k - 1 else -modulus[i] % p for j in range(k)]
            for i in range(k)]


def _irreducible(coeffs, p):
    """Whether the monic f of degree 2 <= k <= 4 is irreducible mod p: no root in F_p, from
    one pass over F_p, and for k = 4 no quadratic factor, gcd(f, T^(p^2) - T) = 1, that is
    C^(p^2) - C invertible for the companion matrix C (Rabin's test)."""
    from .polynomials import _det_bareiss

    xs = np.arange(p, dtype=np.int64)
    if not reduce(lambda acc, c: (acc * xs + c) % p, reversed(coeffs), 0 * xs).all():
        return False
    C = _companion(coeffs, p)
    return len(C) < 4 or _det_bareiss(
        [[x - y for x, y in zip(*rows)] for rows in zip(_matpow(C, p * p, p), C)], p) != 0


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
        powers = [_matpow(_companion(self.modulus, p), t, p) for t in range(k)]

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
