"""Complex-valued tables on F_q: the trace functions t that the sums weigh.

A TraceFunction is a concrete table indexed by field elements, with a
label recording provenance and a declared sup-norm bound.  The tables
here are the constant, Kl_m (built by one FFT power, no q x q kernel)
and the pullbacks y -> t(y^d); a second moment reads any of them.
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


def pullback_power(t, d, field):
    """y -> t(y^d)."""
    ys = field.elements()
    vals = t.values[field.pow(ys, d)]
    return TraceFunction(t.q, vals, f"[x^{d}]*({t.label})", t.sup_bound)


def second_moment(t):
    """(1/q) sum |t(x)|^2."""
    return float(np.mean(np.abs(t.values) ** 2))
