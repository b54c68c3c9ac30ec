"""Arithmetic contexts for F_p and F_{p^k}.

Both field classes precompute exp/log tables for the unit group (cyclic),
so multiplication, powering and inversion vectorize as integer index
arithmetic plus table gathers.  Elements are plain ints: residues for
F_p, base-p digit encodings c_0 + c_1*p + ... + c_{k-1}*p^{k-1} for
F_{p^k}.  Each field also keeps a digit table (row i: base-p digit i of
every element), so F_{p^k} addition is integer addition minus the
carries read off the digit rows, with no division.  Contexts are
immutable after construction.
"""

import math
from functools import lru_cache

import numpy as np

_PRIME_CAP = 2_000_000  # full dlog tables only; keep desk scale
_EXT_Q_CAP = 1_000_000


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


def find_primitive_root(p):
    """Smallest g whose multiplicative order mod p is p-1."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2:
        return 1
    factors = prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // ell, p) != 1 for ell in factors):
            return g
    raise RuntimeError("no primitive root found")  # unreachable for prime p


class PrimeField:
    """F_p with primitive root, dlog table and additive-character table."""

    def __init__(self, p):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p > _PRIME_CAP:
            raise ValueError(f"p={p} beyond the dlog-table cap {_PRIME_CAP}")
        self.p = p
        self.q = p
        self.k = 1
        self.g = find_primitive_root(p)
        # baby steps g^i (i < s) times giant steps g^(s*j): g^(s*j + i);
        # every product stays below p^2 < 2^42
        s = math.isqrt(p - 1) + 1
        baby = np.ones(s, dtype=np.int64)
        giant = np.ones(s, dtype=np.int64)
        for i in range(1, s):
            baby[i] = baby[i - 1] * self.g % p
        step = pow(self.g, s, p)
        for j in range(1, s):
            giant[j] = giant[j - 1] * step % p
        exp = (giant[:, None] * baby[None, :] % p).ravel()[:max(p - 1, 1)]
        self.exp_table = exp
        log = np.full(p, -1, dtype=np.int64)
        log[exp] = np.arange(len(exp))
        self.log_table = log
        self.psi_table = np.exp(2j * np.pi * np.arange(p) / p)
        self.digit_table = np.arange(p, dtype=np.int64)[None, :]
        self.trace_table = self.digit_table[0]

    def __repr__(self):
        return f"PrimeField(p={self.p})"

    def dlog(self, u):
        """Exponent e in [0, p-2] with g^e = u; u must be a unit."""
        u = int(u) % self.p
        if u == 0:
            raise ValueError("dlog of 0 is undefined")
        return int(self.log_table[u])

    def exp(self, e):
        return int(self.exp_table[e % (self.p - 1)]) if self.p > 2 else 1

    def elements(self):
        return np.arange(self.q, dtype=np.int64)

    def units(self):
        return np.arange(1, self.q, dtype=np.int64)

    def embed(self, c):
        return int(c) % self.p

    # array-friendly ring ops
    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def pow(self, a, e):
        if np.isscalar(a):
            return pow(int(a), int(e), self.p)
        out = np.ones_like(a)
        base = a % self.p
        e = int(e)
        while e > 0:
            if e & 1:
                out = out * base % self.p
            base = base * base % self.p
            e >>= 1
        return out

    def inv(self, a):
        if np.isscalar(a):
            a = int(a) % self.p
            if a == 0:
                raise ZeroDivisionError("inverse of 0")
            return pow(a, self.p - 2, self.p)
        if np.any(a % self.p == 0):
            raise ZeroDivisionError("inverse of 0")
        return self.pow(a, self.p - 2)

    def trace(self, x):
        return x % self.p


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
            cand = []
            t = tail
            for _ in range(d):
                cand.append(t % p)
                t //= p
            cand.append(1)
            # only irreducible candidates matter, but divisibility is cheap
            if _poly_divides(tuple(cand), coeffs, p):
                return False
    return True


class ExtField:
    """F_{p^k} as F_p[T]/(modulus) with exp/log and trace tables."""

    def __init__(self, p, k, modulus=None):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if not 1 <= k <= 4:
            raise ValueError(f"extension degree {k} unsupported (cap is 4)")
        q = p**k
        if q > _EXT_Q_CAP:
            raise ValueError(f"q=p^k={q} beyond the table cap {_EXT_Q_CAP}")
        self.p = p
        self.k = k
        self.q = q
        if modulus is None:
            modulus = self._smallest_irreducible(p, k)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree k")
        if k > 1 and not _irreducible(modulus, p):
            raise ValueError("modulus is reducible")
        self.modulus = tuple(c % p for c in modulus)
        self._build_tables()

    @staticmethod
    def _smallest_irreducible(p, k):
        """Monic T^k + a_{k-1}T^{k-1} + ... + a_0, smallest digit encoding."""
        if k == 1:
            return (0, 1)
        for tail in range(p**k):
            coeffs = []
            t = tail
            for _ in range(k):
                coeffs.append(t % p)
                t //= p
            coeffs.append(1)
            if _irreducible(tuple(coeffs), p):
                return tuple(coeffs)
        raise RuntimeError("no irreducible polynomial found")  # unreachable

    def _build_tables(self):
        p, k, q = self.p, self.k, self.q
        # find a generator of the unit group by scalar powering
        factors = prime_factors(q - 1) if q > 2 else []
        gen = None
        for cand in range(1, q):
            tup = self._decode(cand)
            if all(self._scalar_pow(tup, (q - 1) // ell) != self._one_tup()
                   for ell in factors):
                gen = tup
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

    def _decode(self, idx):
        out = []
        for _ in range(self.k):
            out.append(idx % self.p)
            idx //= self.p
        return tuple(out)

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

    def units(self):
        return self.exp_table.copy()

    def embed(self, c):
        return int(c) % self.p

    def dlog(self, u):
        u = int(u)
        if u == 0:
            raise ValueError("dlog of 0 is undefined")
        return int(self.log_table[u])

    def add(self, a, b):
        """Digitwise sum: a + b minus p^(i+1) for each carry out of digit i."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        p = self.p
        out = a + b
        for i, row in enumerate(self.digit_table[:-1]):
            out -= (row[a] + row[b] >= p) * p ** (i + 1)
        out -= (out >= self.q) * self.q
        return out if out.ndim else int(out)

    def neg(self, a):
        """Digitwise negation: each nonzero digit c becomes p - c."""
        a = np.asarray(a, dtype=np.int64)
        out = -a
        for i, row in enumerate(self.digit_table):
            out += (row[a] != 0) * self.p ** (i + 1)
        return out if out.ndim else int(out)

    def mul(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        la, lb = self.log_table[a], self.log_table[b]
        out = self.exp_table[(la + lb) % (self.q - 1)]
        out = np.where((la < 0) | (lb < 0), 0, out)
        return out if out.ndim else int(out)

    def pow(self, a, e):
        a = np.asarray(a, dtype=np.int64)
        la = self.log_table[a]
        out = self.exp_table[(la * int(e)) % (self.q - 1)]
        out = np.where(la < 0, 0 if e else 1, out)
        return out if out.ndim else int(out)

    def inv(self, a):
        a = np.asarray(a, dtype=np.int64)
        la = self.log_table[a]
        if np.any(la < 0):
            raise ZeroDivisionError("inverse of 0")
        out = self.exp_table[(-la) % (self.q - 1)]
        return out if out.ndim else int(out)

    def trace(self, x):
        out = self.trace_table[np.asarray(x, dtype=np.int64)]
        return out if out.ndim else int(out)


@lru_cache(maxsize=64)
def cached_field(p, k=1):
    """Shared immutable field contexts; construction is the only mutation."""
    return PrimeField(p) if k == 1 else ExtField(p, k)


def additive_char(field, x):
    """psi(x) = e(Tr(x)/p); accepts scalars or index arrays."""
    out = field.psi_table[np.asarray(x, dtype=np.int64) % field.q]
    return out if out.ndim else complex(out)


def mult_char(field, r, j):
    """Multiplicative character table chi(x) = e(j*dlog(x)/r), chi(0)=0.

    Requires r | p-1; the returned table has exact order r/gcd(j, r).
    """
    from .tracefn import TraceFunction

    if not isinstance(field, PrimeField):
        raise ValueError("mult_char is defined on prime fields")
    p = field.p
    if r < 1 or (p - 1) % r != 0:
        raise ValueError(f"order {r} does not divide p-1={p - 1}")
    j = int(j) % r
    values = np.zeros(p, dtype=np.complex128)
    units = np.arange(1, p)
    values[units] = np.exp(2j * np.pi * j * field.log_table[units] / r)
    order = r // math.gcd(j, r) if j else 1
    return TraceFunction(q=p, values=values, label=f"chi(p={p},r={r},j={j})",
                         sup_bound=1.0, meta={"order": order})
