"""Arithmetic contexts for F_q, q = p^k: ExtField(p, k), with F_p = ExtField(p, 1).

A field precomputes exp/log tables for the unit group (cyclic), so
multiplication and powering vectorize as integer index arithmetic plus
table gathers.  Elements are plain ints, the base-p digit
encodings c_0 + c_1*p + ... + c_{k-1}*p^{k-1} (residues when k = 1).
Each field also keeps a digit table (row i: base-p digit i of every
element); lane_tables packs those digits into base-2p lanes of one int64,
so sums of elements are integer sums read back by one gather.  Contexts
are immutable after construction.
"""

import math
from functools import lru_cache

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


def _poly_mul_mod(a, b, modulus, p):
    """Multiply coefficient tuples mod (modulus, p); modulus monic."""
    k = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    for i in range(len(prod) - 1, k - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(k):
                prod[i - k + j] = (prod[i - k + j] - c * modulus[j]) % p
    out = prod[:k] + [0] * (k - len(prod))
    return tuple(x % p for x in out[:k])


def _poly_mul_outer(a, b, modulus, p):
    """Products a[j] * b[i] mod (modulus, p) for every pair of rows.

    a and b are digit arrays of shape (r, k) and (s, k), digit t being
    the coefficient of T^t; the result has shape (r, s, k).  Before the
    final reduction entries stay below p * (p+1)^(k-1) in magnitude.
    """
    k = len(modulus) - 1
    prod = np.zeros((len(a), len(b), 2 * k - 1), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            prod[:, :, i + j] += np.multiply.outer(a[:, i], b[:, j])
    prod %= p
    for t in range(2 * k - 2, k - 1, -1):  # T^t = T^(t-k) * (T^k - modulus)
        for j in range(k):
            prod[:, :, t - k + j] -= prod[:, :, t] * modulus[j]
    return prod[:, :, :k] % p


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
        # find a generator of the unit group by scalar powering
        factors = prime_factors(q - 1) if q > 2 else []
        for cand in range(1, q):
            gen = _digits(cand, p, k)
            if all(self._scalar_pow(gen, (q - 1) // ell) != self._one_tup()
                   for ell in factors):
                self.g = cand
                break
        # baby steps gen^i (i < s) times giant steps gen^(s*j): gen^(s*j + i),
        # about 2*sqrt(q) scalar products and one outer product of digits
        s = math.isqrt(q - 1) + 1
        baby, giant = [self._one_tup()], [self._one_tup()]
        step = self._scalar_pow(gen, s)
        for _ in range(1, s):
            baby.append(_poly_mul_mod(baby[-1], gen, self.modulus, p))
            giant.append(_poly_mul_mod(giant[-1], step, self.modulus, p))
        digits = _poly_mul_outer(np.array(giant), np.array(baby), self.modulus, p)
        exp = (digits @ p ** np.arange(k, dtype=np.int64)).ravel()[:q - 1]
        self.exp_table = exp
        log = np.full(q, -1, dtype=np.int64)
        log[exp] = np.arange(len(exp))
        self.log_table = log
        # trace to F_p is linear: evaluate it on the power basis only
        basis_traces = []
        for i in range(k):
            tup = tuple(1 if j == i else 0 for j in range(k))
            acc_t = (0,) * k
            cur = tup
            for _ in range(k):
                acc_t = tuple((a + b) % p for a, b in zip(acc_t, cur))
                cur = self._scalar_pow(cur, p)
            if any(acc_t[1:]):  # trace must land in the base field
                raise RuntimeError("trace computation left the base field")
            basis_traces.append(acc_t[0])
        # row i: base-p digit i of every element
        self.digit_table = (np.arange(q, dtype=np.int64)[None, :]
                            // p ** np.arange(k, dtype=np.int64)[:, None]) % p
        self.trace_table = np.array(basis_traces, dtype=np.int64) @ self.digit_table % p
        self.psi_table = np.exp(2j * np.pi * self.trace_table / p)

    def _one_tup(self):
        return (1,) + (0,) * (self.k - 1)

    def _scalar_pow(self, tup, e):
        out = self._one_tup()
        base = tup
        while e > 0:
            if e & 1:
                out = _poly_mul_mod(out, base, self.modulus, self.p)
            base = _poly_mul_mod(base, base, self.modulus, self.p)
            e >>= 1
        return out

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
        """Sum in base-2p lanes: pack both, add, one gather back to an element."""
        pack, unpack, _ = lane_tables(self)
        out = gather(unpack, pack[a] + pack[b])
        return out if out.ndim else int(out)

    def mul(self, a, b):
        """g^(log a + log b) from the degree-1 exponent table, read back as an element."""
        logs, exps = exponent_tables(self, 1)
        out = gather(lane_tables(self)[1], gather(exps, logs[a] + logs[b]))
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


def gather(table, idx):
    """table[idx], written over idx when it is an array; idx past the end reads the last entry."""
    return table.take(idx, mode="clip", out=idx if np.ndim(idx) else None)


def _residues(x, p):
    """x mod p as int64, elementwise: an integer array is cast and reduced; an int, a
    list or an object array is reduced exactly first, so it may hold ints past int64."""
    if getattr(x, "dtype", object) == object:
        x = np.asarray(x, dtype=object) % p
    return np.asarray(x, dtype=np.int64) % p


@lru_cache(maxsize=64)
def lane_tables(field):
    """(pack, unpack, repack): base-p digit i of an element in lane i, base 2p.

    A sum of two packed elements has every lane below 2p - 1: unpack reads
    it back as an element, repack as a packed element.  pack has q entries,
    unpack and repack (2p)^k = 2^k q each.
    """
    p, k = field.p, field.k
    lanes = (2 * p) ** np.arange(k, dtype=np.int64)
    digits = np.arange((2 * p) ** k)[None, :] // lanes[:, None] % (2 * p) % p
    return lanes @ field.digit_table, p ** np.arange(k) @ digits, lanes @ digits


@lru_cache(maxsize=64)
def exponent_tables(field, d):
    """(logs, exps): log x with log 0 = S = (d+1)(q-1); packed g^e for e < S, 0 at S.

    For c != 0 and sum e_i <= d, log c + sum e_i logs[x_i] is below S unless
    some x_i with e_i > 0 is 0, and at least S if one is, so the monomial is
    exps[min(that, S)], with no remainder mod q-1.  exps has S + 1 entries.
    """
    logs = field.log_table.copy()
    logs[0] = (d + 1) * (field.q - 1)
    return logs, np.append(np.tile(lane_tables(field)[0][field.exp_table], d + 1), 0)


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
