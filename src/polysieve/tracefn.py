"""Complex-valued tables on F_q and the transforms acting on them.

A TraceFunction is a concrete table indexed by field elements, with a
label recording provenance and a declared sup-norm bound.  All
transforms are pure and return fresh tables; each is FFT-based,
O(q log q) on any F_q, and builds no q x q kernel.
"""

import csv
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TraceFunction:
    """Table of complex values on F_q.

    sup_bound is a declared bound on max |value|; construction fails if
    the table exceeds it by more than 1e-9, or holds a value that is not finite.
    """

    q: int
    values: np.ndarray
    label: str
    sup_bound: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        object.__setattr__(self, "values", vals)
        if len(vals) != self.q:
            raise ValueError(f"table length {len(vals)} != q={self.q}")
        if not np.isfinite(vals).all():
            raise ValueError(f"table {self.label} holds a value that is not finite")
        peak = float(np.abs(vals).max()) if self.q else 0.0
        if peak > self.sup_bound + 1e-9:
            raise ValueError(
                f"table peak {peak:.6g} exceeds declared sup bound {self.sup_bound}")

    def conj(self):
        return TraceFunction(self.q, np.conj(self.values), f"conj({self.label})", self.sup_bound)

    def to_csv(self, path):
        """Rows a, re, im."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["a", "re", "im"])
            for a, v in enumerate(self.values):
                writer.writerow([a, repr(float(v.real)), repr(float(v.imag))])


def constant_trace(field):
    return TraceFunction(field.q, np.ones(field.q, dtype=np.complex128), "const", 1.0)


def kloosterman(m, field):
    """Hyper-Kloosterman table Kl_m on F_q, weight-0 normalization.

    Kl_m(a) = (-1)^(m-1) q^(-(m-1)/2) sum over unit tuples y_1...y_m = a
    of psi(y_1 + ... + y_m); Kl_m(0) = 0 (empty sum).  The sum is the
    m-fold multiplicative convolution of the unit-restricted psi table,
    computed as one FFT power, O(q log q) on any F_q.  The transform is
    scaled by q^(-1/2) before the power, so its entries stay of modulus
    at most 1 and no m overflows.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    q = field.q
    # work in the exponent domain: unit g^i <-> index i, so the
    # multiplicative convolution becomes a cyclic convolution
    psi_units = field.psi_table[field.exp_table]
    acc = np.fft.ifft((np.fft.fft(psi_units) / np.sqrt(q)) ** m)
    table = np.zeros(q, dtype=np.complex128)
    table[field.exp_table] = acc * ((-1) ** (m - 1) * np.sqrt(q))
    return TraceFunction(q, table, f"Kl{m}(q={q})", float(m))


def _transform(values, field, conjugate, label):
    """y -> -q^(-1/2) sum_x psi(xy) values[x] (psi-bar when conjugate), O(q log q).

    On base-p digit vectors Tr(xy) = x^T M y with M_ij = Tr(w_i w_j) for
    the power basis w_i = T^i, so the sum is the k-dim DFT of the
    digit-indexed table, read at M y mod p; on F_p it is one length-p DFT.
    """
    p, k, q = field.p, field.k, field.q
    M = field.trace(field.mul(*np.ix_(p ** np.arange(k), p ** np.arange(k))))
    cube = values.reshape((p,) * k).transpose()  # cube[c_0, ..., c_{k-1}]
    spec = np.fft.fftn(cube) if conjugate else np.fft.ifftn(cube) * q
    vals = -spec[tuple(M @ field.digit_table % p)] / np.sqrt(q)
    return TraceFunction(q, vals, label, float(np.abs(vals).max()) + 1e-12)


def fourier_transform(t, field, conjugate=False):
    """FT(t)(y) = -q^(-1/2) sum_x psi(xy) t(x), by one k-dim DFT.

    Applying with psi and then with the conjugated character recovers t
    exactly.  conjugate=True uses psi-bar.  No q x q kernel is built.
    """
    if t.q != field.q:
        raise ValueError("table size does not match the field")
    tag = "FTbar" if conjugate else "FT"
    return _transform(t.values, field, conjugate, f"{tag}({t.label})")


def te_transform(t, e, field, conjugate=False):
    """Power-twisted transform: y -> -q^(-1/2) sum_z psi(z^e y) t(z).

    The transform of the pushforward x -> sum over z^e = x of t(z): one
    bincount and one DFT.  e=1 coincides with fourier_transform.
    """
    if e < 1:
        raise ValueError("e must be >= 1")
    if t.q != field.q:
        raise ValueError("table size does not match the field")
    zpow = field.pow(field.elements(), e)
    pushed = (np.bincount(zpow, t.values.real, field.q)
              + 1j * np.bincount(zpow, t.values.imag, field.q))
    return _transform(pushed, field, conjugate, f"T{e}({t.label})")


def pullback_power(t, d, field):
    """y -> t(y^d)."""
    ys = field.elements()
    vals = t.values[field.pow(ys, d)]
    return TraceFunction(t.q, vals, f"[x^{d}]*({t.label})", t.sup_bound)


def pullback_scale(t, alpha, field):
    """y -> t(alpha * y); alpha must be a unit."""
    alpha = int(alpha) % field.q
    if alpha == 0:
        raise ValueError("scale factor must be nonzero")
    ys = field.elements()
    vals = t.values[field.mul(np.full_like(ys, alpha), ys)]
    return TraceFunction(t.q, vals, f"[x*{alpha}]*({t.label})", t.sup_bound)


def second_moment(t):
    """(1/q) sum |t(x)|^2."""
    return float(np.mean(np.abs(t.values) ** 2))
