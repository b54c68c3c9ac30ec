"""The polynomial sieve with exact per-prime detectors.

For h in Z[T] of degree d >= 2 and a prime p > d with h(F_p) != F_p,
the per-prime data records the value-set bitmap, the multiplicity table
nu, and the exceptional set of critical values.  The detector

    D_p(n) = 1_{h(F_p)}(n mod p) - |h(F_p)| / p

is an exactly computable stand-in for the nontrivial part of the
indicator decomposition: it has mean zero on F_p and is at least
(p-1)/(dp) on every residue that h hits.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation
from .fields import PrimeField, is_prime, mult_char
from .polynomials import UniPoly, critical_value_poly


@dataclass(frozen=True)
class SievePrimeData:
    """Per-prime sieve state for a fixed h."""

    p: int
    d: int                 # degree of h mod p
    image: np.ndarray      # bool bitmap over F_p for h(F_p)
    image_size: int
    exceptional: frozenset # critical values of h landing in F_p
    nu: np.ndarray         # nu[n] = |{x in F_p : h(x) = n}|

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        if self.image_size != int(self.image.sum()):
            raise InvariantViolation("image_size disagrees with the bitmap")
        if not np.array_equal(self.image, self.nu >= 1):
            raise InvariantViolation("nu and image bitmap disagree")
        if int(self.nu.sum()) != self.p:
            raise InvariantViolation("nu must sum to p")
        if self.image_size < self.p:
            # value-set bound for non-surjective h (proof of the sieve lemma)
            if self.image_size > self.p - (self.p - 1) / self.d:
                raise InvariantViolation(
                    f"|h(F_p)|={self.image_size} violates p-(p-1)/d at p={self.p}")

    @property
    def surjective(self):
        return self.image_size == self.p

    @property
    def bound_tight(self):
        """Whether |h(F_p)| meets p - ceil((p-1)/d) exactly."""
        return self.image_size == self.p - math.ceil((self.p - 1) / self.d)


@dataclass(frozen=True)
class SieveConfig:
    """A sieve instance: h over Z plus the primes used for detection."""

    h: UniPoly
    primes: tuple
    threshold_mode: str = "lemma"  # "lemma": P/(2d); "logp": P/(2d log P)

    def __post_init__(self):
        if self.h.ring is not None:
            raise ValueError("h must have integer coefficients")
        if self.h.degree < 2:
            raise ValueError("deg h must be >= 2")
        if len(set(self.primes)) != len(self.primes):
            raise ValueError("primes must be distinct")
        if self.threshold_mode not in ("lemma", "logp"):
            raise ValueError(f"unknown threshold mode {self.threshold_mode!r}")
        for p in self.primes:
            if build_prime_data(self.h, p).surjective:
                raise ValueError(f"h is onto F_{p}; p={p} detects nothing")

    def threshold(self):
        """S-multiplicity cutoff; both variants appear in the source material."""
        P = len(self.primes)
        d = self.h.degree
        if self.threshold_mode == "lemma":
            return P / (2 * d)
        return P / (2 * d * math.log(P)) if P > 1 else P / (2 * d)


def build_prime_data(h, p):
    """Evaluate h on F_p and compute image, nu and the exceptional set.

    Requires p prime, p > deg h (and the reduction must keep degree >= 2).
    """
    if h.ring is not None:
        raise ValueError("h must have integer coefficients")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p <= h.degree:
        raise ValueError(f"need p > deg h (p={p}, deg={h.degree})")
    hp = h.reduce_mod(p)
    if hp.degree < 2:
        raise ValueError(f"h degenerates mod {p}")
    xs = np.arange(p, dtype=np.int64)
    vals = hp.eval(xs)
    nu = np.bincount(vals, minlength=p)
    image = nu >= 1
    r = critical_value_poly(hp, p)
    exceptional = frozenset(r.roots_mod())
    return SievePrimeData(p=p, d=hp.degree, image=image,
                          image_size=int(image.sum()),
                          exceptional=exceptional, nu=nu)


def detector(data, n):
    """D_p(n) = 1_{h(F_p)}(n mod p) - |h(F_p)|/p, always in (-1, 1)."""
    hit = bool(data.image[int(n) % data.p])
    return (1.0 if hit else 0.0) - data.image_size / data.p


def power_decomposition_check(d, p):
    """Max deviation of 1_{d-th powers} from its character average on units.

    Both sides of the order-d character decomposition are evaluated on
    all of F_p^x; requires d | p - 1.
    """
    field = PrimeField(p)
    if (p - 1) % d != 0:
        raise ValueError(f"{d} does not divide p-1={p - 1}")
    units = np.arange(1, p)
    is_power = np.zeros(p, dtype=bool)
    is_power[np.unique(field.pow(units, d))] = True
    lhs = is_power[units].astype(float)
    rhs = np.full(p - 1, 1.0 + 0j) / d
    for j in range(1, d):
        chi = mult_char(field, d, j)
        rhs = rhs + chi.values[units] / d
    return float(np.abs(lhs - rhs).max())


def multiplicity_weight(data, n, alpha):
    """alpha + (nu(n) - 1)(d - nu(n)): the concrete per-residue sieve weight."""
    nu = int(data.nu[int(n) % data.p])
    return alpha + (nu - 1) * (data.d - nu)


def membership_filter(prime_data, n):
    """True iff n mod p lies in h(F_p) for every prime; False proves n not in h(Z)."""
    n = int(n)
    return all(bool(data.image[n % data.p]) for data in prime_data)


def _critical_radius(h):
    """Integer radius containing every real critical point of h."""
    dh = h.derivative()
    return 1 + max((abs(c) for c in dh.coeffs), default=0)


def h_image_table(h, n_max):
    """Sorted array of {h(t) : t in Z} values with |h(t)| <= n_max.

    The scan walks outward from 0 and stops once past both the window
    and the critical zone, so no value inside the window is missed.
    """
    if h.degree < 1:
        raise ValueError("constant h")
    crit = _critical_radius(h)
    vals = []
    for direction in (1, -1):
        t = 0 if direction == 1 else -1
        while True:
            v = h.eval(t)
            if abs(v) <= n_max:
                vals.append(v)
            elif abs(t) > crit:
                break
            t += direction
    return np.array(sorted(set(vals)), dtype=np.int64) \
        if vals else np.empty(0, dtype=np.int64)


def integer_preimage_exists(h, n):
    """Whether h(t) = n for some integer t; exact for arbitrarily large n.

    Scans the critical zone directly, then binary-searches the two
    strictly monotone tails with exact integer arithmetic.
    """
    if h.degree == 1:
        a, b = h.lc, h.coeffs[0]
        return (n - b) % a == 0
    if h.degree < 1:
        return h.eval(0) == n
    crit = _critical_radius(h)
    for t in range(-crit, crit + 1):
        if h.eval(t) == n:
            return True
    return (_tail_has_root(h, n, crit, right=True)
            or _tail_has_root(h, n, crit, right=False))


def _tail_has_root(h, n, crit, right):
    def val(s):
        t = crit + s if right else -(crit + s)
        return h.eval(t)

    inc = val(1) > val(0)
    if (n < val(0)) if inc else (n > val(0)):
        return False
    s_hi = 1
    while (val(s_hi) < n) if inc else (val(s_hi) > n):
        s_hi *= 2
    lo, hi = 0, s_hi
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


def in_h_image(h, ns, table=None):
    """Exact membership n in h(Z), elementwise over an integer array."""
    ns = np.asarray(ns, dtype=np.int64)
    if table is None:
        table = h_image_table(h, int(np.abs(ns).max()) if ns.size else 0)
    if table.size == 0:
        return np.zeros(ns.shape, dtype=bool)
    idx = np.searchsorted(table, ns)
    idx = np.clip(idx, 0, table.size - 1)
    return table[idx] == ns


@dataclass(frozen=True)
class SieveBoundReport:
    """Both sides of the sieve inequality with exact detectors."""

    v_h: float             # mass of the sequence on h(Z)
    total: float           # sum_n a(n) |sum_p D_p(n)|^2
    diagonal: float        # p = q part
    cross: float           # p != q part
    first_term: float      # P^-1 sum_n a(n)
    hypothesis_ok: bool
    s_condition_ok: bool   # a vanishes where the S-multiplicity is over threshold
    support_condition_ok: bool  # a(n) = 0 for n = 0 and n >= e^P
    threshold: float
    P: int
    d: int

    @property
    def inequality_holds(self):
        return self.P**2 * self.v_h <= (2 * self.d) ** 2 * self.total + 1e-9


def sieve_bound_eval(config, prime_data, a):
    """Evaluate the sieve inequality P^2 V_h <= (2d)^2 Sigma on a sequence.

    a maps integers to nonnegative weights with finite support.  The
    membership side V_h uses the exact integer-image test.  Raises
    InvariantViolation if the inequality fails while hypothesis_ok.
    """
    if not a:
        raise ValueError("empty sequence")
    ns = sorted(a)  # plain ints: sequence values may exceed int64
    ws = np.array([a[n] for n in ns], dtype=float)
    if (ws < 0).any():
        raise ValueError("weights must be nonnegative")
    P = len(prime_data)
    d = config.h.degree
    member = np.array([integer_preimage_exists(config.h, n) for n in ns])
    v_h = float(ws[member].sum())
    dsum = np.zeros(len(ns))
    dsq = np.zeros(len(ns))
    s_count = np.zeros(len(ns))
    for data in prime_data:
        res = np.array([n % data.p for n in ns], dtype=np.int64)
        dvals = data.image[res].astype(float) - data.image_size / data.p
        dsum += dvals
        dsq += dvals**2
        if data.exceptional:
            exc = np.array(sorted(data.exceptional), dtype=np.int64)
            s_count += np.isin(res, exc)
    total = float(ws @ dsum**2)
    diagonal = float(ws @ dsq)
    thresh = config.threshold()
    supported = ws > 0
    s_ok = not bool((supported & (s_count >= thresh)).any())
    eligible = supported & member & (s_count < thresh)
    hypothesis_ok = bool((dsum[eligible] >= P / (2 * d) - 1e-12).all())
    big = np.array([n == 0 or n >= math.exp(P) for n in ns])
    support_ok = not bool((supported & big).any())
    report = SieveBoundReport(
        v_h=v_h, total=total, diagonal=diagonal, cross=total - diagonal,
        first_term=float(ws.sum()) / P if P else float("inf"),
        hypothesis_ok=hypothesis_ok, s_condition_ok=s_ok,
        support_condition_ok=support_ok, threshold=thresh, P=P, d=d)
    if hypothesis_ok and not report.inequality_holds:
        raise InvariantViolation(
            f"sieve inequality failed: P^2 V_h = {P**2 * v_h:.6g} > "
            f"(2d)^2 Sigma = {(2 * d)**2 * total:.6g}")
    return report


def power_sieve_rhs(d, primes, a):
    """Character-form right-hand side of the power sieve for h = T^d.

    Returns first, cross and their sum: P^-1 sum a(n) + P^-2 sum over
    p != q and nontrivial order-d character pairs of |sum a(n) chi_p(n)
    conj(chi_q(n))|.  Demonstrates the failure mode when the sequence
    violates the support condition.
    """
    P = len(primes)
    fields = {}
    chis = {}
    for p in primes:
        if (p - 1) % d:
            raise ValueError(f"p={p} is not 1 mod d={d}")
        fields[p] = PrimeField(p)
        chis[p] = [mult_char(fields[p], d, j) for j in range(1, d)]
    ns = sorted(a)  # plain ints: values may exceed int64
    ws = np.array([a[n] for n in ns], dtype=float)
    res = {p: np.array([n % p for n in ns], dtype=np.int64) for p in primes}
    cross = 0.0
    for p in primes:
        for q in primes:
            if p == q:
                continue
            for cp in chis[p]:
                vp = cp.values[res[p]]
                for cq in chis[q]:
                    vq = np.conj(cq.values[res[q]])
                    cross += abs(np.sum(ws * vp * vq))
    first = float(ws.sum()) / P
    return {"first_term": first, "cross_term": cross / P**2,
            "rhs": first + cross / P**2}
