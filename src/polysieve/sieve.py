"""The polynomial sieve with exact per-prime detectors.

For h in Z[T] of degree d >= 2 and a prime p > d with h(F_p) != F_p,
the per-prime data records bitmaps over F_p of the value set and of the
exceptional set of critical values, and the multiplicity table nu.  The detector

    D_p(n) = 1_{h(F_p)}(n mod p) - |h(F_p)| / p

is an exactly computable stand-in for the nontrivial part of the
indicator decomposition: it has mean zero on F_p and is at least
(p-1)/(dp) on every residue that h hits.  It and the membership filter take
one integer, or an array or list of any size.
"""

import math
from dataclasses import dataclass, field as dc_field
from functools import lru_cache, reduce

import numpy as np

from .errors import DEFAULT_BUDGET, InvariantViolation, charge
from .fields import _residues, cached_field, is_prime, mult_char
from .polynomials import UniPoly, critical_value_poly
from .varieties import _INT64_SAFE


@dataclass(frozen=True)
class SievePrimeData:
    """Per-prime sieve state for a fixed h."""

    p: int
    d: int                 # degree of h mod p
    image: np.ndarray      # bool bitmap over F_p for h(F_p)
    image_size: int
    exceptional: np.ndarray  # bool bitmap over F_p of the critical values of h
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
        if self.exceptional.shape != (self.p,):
            raise InvariantViolation("the exceptional bitmap must have length p")
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
    prime_data: tuple = dc_field(default=(), init=False, compare=False, repr=False)  # one per prime

    def __post_init__(self):
        if self.h.ring is not None:
            raise ValueError("h must have integer coefficients")
        if self.h.degree < 2:
            raise ValueError("deg h must be >= 2")
        if len(set(self.primes)) != len(self.primes):
            raise ValueError("primes must be distinct")
        self.threshold()  # rejects an unknown mode
        object.__setattr__(self, "prime_data",
                           tuple(detecting_prime_data(self.h, p) for p in self.primes))

    def threshold(self):
        return sieve_threshold(len(self.primes), self.h.degree, self.threshold_mode)


def sieve_threshold(P, d, mode="lemma"):
    """S-multiplicity cutoff for P primes and deg h = d; both variants appear
    in the source material: "lemma" P/(2d), "logp" P/(2d log P) (P/(2d) at P = 1)."""
    if mode not in ("lemma", "logp"):
        raise ValueError(f"unknown threshold mode {mode!r}")
    return P / (2 * d * math.log(P)) if mode == "logp" and P > 1 else P / (2 * d)


# R_h(s) = Res_T(h - s, h') over Z, built once per h, as dual_polynomial is per (m, d)
_integer_critical_values = lru_cache(maxsize=64)(critical_value_poly)


def build_prime_data(h, p):
    """Evaluate h on F_p and compute image, nu and the exceptional set.

    Requires p prime, p > deg h (and the reduction must keep degree >= 2).  The
    exceptional set is the zero set of R_h mod p, R_h = _integer_critical_values(h):
    for p not dividing lc(h) the Sylvester matrices reduce entry by entry.  Where p
    divides lc(h), h loses degree mod p and its own critical_value_poly is taken.
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
    nu = np.bincount(hp.eval(xs), minlength=p)
    image = nu >= 1
    crit = critical_value_poly(hp) if h.lc % p == 0 else _integer_critical_values(h).reduce_mod(p)
    return SievePrimeData(p=p, d=hp.degree, image=image, image_size=int(image.sum()),
                          exceptional=crit.eval(xs) == 0, nu=nu)


def detecting_prime_data(h, p):
    """build_prime_data(h, p), refusing a prime on which h is onto F_p."""
    data = build_prime_data(h, p)
    if data.surjective:
        raise ValueError(f"h is onto F_{p}; p={p} detects nothing")
    return data


def pick_primes(h, primes):
    """The data of each prime on which h detects, and why each other prime is skipped:
    "degenerate: <reason>" where build_prime_data refuses it, "f surjective" where h
    is onto F_p."""
    picked, skipped = [], {}
    for p in primes:
        try:
            data = build_prime_data(h, p)
        except ValueError as exc:
            skipped[p] = f"degenerate: {exc}"
            continue
        if data.surjective:
            skipped[p] = "f surjective"
        else:
            picked.append(data)
    return picked, skipped


def _scalar_or_array(out):
    return out if out.ndim else out.item()


def detector(data, n):
    """D_p(n) = 1_{h(F_p)}(n mod p) - |h(F_p)|/p, always in (-1, 1)."""
    return _scalar_or_array(data.image[_residues(n, data.p)] - data.image_size / data.p)


def power_decomposition_check(d, p):
    """Max deviation of 1_{d-th powers} from its character average on units.

    Both sides of the order-d character decomposition are evaluated on
    all of F_p^x; requires d >= 1 and d | p - 1.
    """
    if d < 1:
        raise ValueError(f"d={d} must be at least 1")
    field = cached_field(p)
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


def membership_filter(prime_data, n):
    """True iff n mod p lies in h(F_p) for every prime; False proves n not in h(Z)."""
    keep = np.ones(np.shape(n), dtype=bool)
    for data in prime_data:
        keep &= data.image[_residues(n, data.p)]
    return _scalar_or_array(keep)


def _critical_radius(h):
    """Integer radius containing every real critical point of h."""
    dh = h.derivative()
    return 1 + max((abs(c) for c in dh.coeffs), default=0)


def _values_within(h, reach, budget, what):
    """h(t) for |t| <= reach, in blocks of 2^20 points once all 2 reach + 1 are charged:
    in int64 where sum |c_i| reach^d fits it, in Python ints otherwise."""
    charge(0, 2 * reach + 1, budget, what)
    exact = np.int64 if sum(map(abs, h.coeffs)) * reach**h.degree < _INT64_SAFE else object
    for lo in range(-reach, reach + 1, 1 << 20):
        yield h.eval(np.arange(lo, min(lo + (1 << 20), reach + 1), dtype=np.int64).astype(exact))


def _root_reach(h, n_max):
    """Fujiwara's bound on |t| over the roots of h - v, |v| <= n_max, rounded up plus one,
    elementwise over an array n_max:
    2 max(|c_i / c_d|^(1/(d-i)), ((|c_0| + n_max) / (2 |c_d|))^(1/d))."""
    d = h.degree
    if d < 1:
        raise ValueError("constant h")
    low = [(abs(h.coeffs[0]) + n_max) / 2] + [abs(c) for c in h.coeffs[1:d]]
    return np.ceil(2 * reduce(np.maximum, ((x / abs(h.lc)) ** (1 / (d - i))
                                           for i, x in enumerate(low)))) + 1


# One bisection step (a scalar Python-int evaluation and a comparison, about 1 us) costs
# about as much as 32 walk points evaluated in int64 (about 30 ns each) on a 2-core x86-64.
_STEP_POINTS = 32


def in_h_image(h, ns, budget=DEFAULT_BUDGET):
    """Exact membership n in h(Z), elementwise, for integers of any size.  An int64
    array is looked up in the image walk (_in_table).  Otherwise the walk serves the
    values with |n| <= m, for the largest m whose walk (2 _root_reach(h, m) + 1 points)
    costs no more than bisecting those values; every other value is looked up among h's
    values on [-C, C], C = _critical_radius(h), then by one exact bisection on each tail
    |t| > C, where h is strictly monotone.  The walk and the zone are charged."""
    if isinstance(ns, np.ndarray) and ns.dtype == np.int64:
        return _in_table(h, ns, budget)
    ns = np.asarray(ns, dtype=object)
    near = np.asarray(np.abs(ns) < 2**63)  # the walk compares in int64
    mags = np.abs(ns[near].astype(np.int64))
    srt = np.sort(mags)
    steps = 2 * np.log2(srt / abs(h.lc) + 2)  # two tails up to Cauchy's bound, about |n| / |c_d|
    cheap = np.flatnonzero(2 * _root_reach(h, srt.astype(float)) + 1
                           <= _STEP_POINTS * np.cumsum(steps))
    near[near] = mags <= (srt[cheap[-1]] if cheap.size else -1)
    out = np.zeros(ns.shape, dtype=bool)
    if near.any():
        out[near] = _in_table(h, ns[near].astype(np.int64), budget)
    if not near.all():
        crit = _critical_radius(h)
        zone = np.sort(np.concatenate(list(_values_within(h, crit, budget, "critical zone"))))
        for i in np.flatnonzero(~near):
            out.flat[i] = _far_in_image(h, int(ns.flat[i]), zone, crit)
    return out


def _in_table(h, ns, budget):
    """ns in h(Z), int64: looked up in each sorted block of h on |t| <= _root_reach."""
    n_max = int(np.abs(ns).max()) if ns.size else 0
    out = np.zeros(ns.shape, dtype=bool)
    for vals in _values_within(h, int(_root_reach(h, n_max)), budget, "image walk"):
        vals = np.sort(vals[np.abs(vals) <= n_max].astype(np.int64))  # drops the raw block
        if vals.size:
            out |= vals[np.searchsorted(vals, ns).clip(0, vals.size - 1)] == ns
    return out


def _far_in_image(h, n, zone, crit):
    """n in h(Z) for one int n: in the sorted zone (h on [-crit, crit]) or on a tail,
    bisected up to Cauchy's bound 1 + (|n| + sum_{i<d} |c_i|) // |c_d| on integer roots."""
    if int(zone[0]) <= n <= int(zone[-1]) and zone[np.searchsorted(zone, n)] == n:
        return True
    reach = 1 + (abs(n) + sum(map(abs, h.coeffs[:-1]))) // abs(h.lc)
    for sign in (1, -1):
        up = h.eval(sign * (crit + 1)) > h.eval(sign * crit)
        lo, hi = crit, reach
        while lo <= hi:
            mid = (lo + hi) // 2
            v = h.eval(sign * mid)
            if v == n:
                return True
            lo, hi = (mid + 1, hi) if (v < n) == up else (lo, mid - 1)
    return False


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


def sieve_bound_eval(config, a):
    """Evaluate the sieve inequality P^2 V_h <= (2d)^2 Sigma on a sequence.

    a maps integers to nonnegative weights with finite support; the
    detectors are those of config.prime_data, one per prime.  The
    membership side V_h uses the exact integer-image test.  Raises
    InvariantViolation if the inequality fails while hypothesis_ok.
    """
    if not a:
        raise ValueError("empty sequence")
    ns = sorted(a)  # plain ints: sequence values may exceed int64
    ws = np.array([a[n] for n in ns], dtype=float)
    if (ws < 0).any():
        raise ValueError("weights must be nonnegative")
    P = len(config.prime_data)
    d = config.h.degree
    member = in_h_image(config.h, ns)
    v_h = float(ws[member].sum())
    dsum, dsq, s_count = np.zeros((3, len(ns)))
    for data in config.prime_data:
        res = _residues(ns, data.p)
        dvals = detector(data, res)
        dsum += dvals
        dsq += dvals**2
        s_count += data.exceptional[res]
    total = float(ws @ dsum**2)
    diagonal = float(ws @ dsq)
    thresh = config.threshold()
    supported = ws > 0
    s_ok = not bool((supported & (s_count >= thresh)).any())
    eligible = supported & member & (s_count < thresh)
    hypothesis_ok = bool((dsum[eligible] >= P / (2 * d) - 1e-12).all())
    big = np.array([n == 0 or n > 0 and math.log(n) >= P for n in ns])  # e^P overflows at 710
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
    violates the support condition.  Requires d >= 1.
    """
    if d < 1:
        raise ValueError(f"d={d} must be at least 1")
    P = len(primes)
    ns = sorted(a)  # plain ints: values may exceed int64
    ws = np.array([a[n] for n in ns], dtype=float)
    chis = {}  # the nontrivial order-d characters mod p at the sequence values
    for p in primes:
        if (p - 1) % d:
            raise ValueError(f"p={p} is not 1 mod d={d}")
        chis[p] = [mult_char(cached_field(p), d, j).values[_residues(ns, p)] for j in range(1, d)]
    cross = sum(abs(np.sum(ws * vp * np.conj(vq))) for p in primes for q in primes if p != q
                for vp in chis[p] for vq in chis[q]) / P**2
    first = float(ws.sum()) / P
    return {"first_term": first, "cross_term": cross, "rhs": first + cross}
