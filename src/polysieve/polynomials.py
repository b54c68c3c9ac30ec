"""Sparse multivariate and dense univariate polynomials.

Coefficients are Python ints, either over Z (ring=None) or over F_p
(ring=p, coefficients stored reduced).  Polynomials are immutable
values; every operation returns a fresh object.

Text format (the CLI surface): sums of monomials with integer
coefficients, variables X0..Xn for multivariate and T for univariate,
e.g. "X1^2 + 3*X2^2 - 1" or "2*T^3+1".  Whitespace only separates
tokens.  A term is any number of signs ("--X0" is X0), then factors:
integers, and variables each raised by ^ to an integer or not.  Factors
next to each other multiply as if joined by *: "2 X0" is 2*X0 and
"X1 2" is 2*X1.  X needs an index: "X" alone is an error.  Every
PolyParseError names the offset in the text where it arose.  Read
without an arity, a multivariate polynomial has its indices shifted down
so the smallest one used is X0: "X1^2+X2^2" is a binary form.
"""

import math
import re
from collections import defaultdict
from functools import lru_cache

import numpy as np

from .errors import PolyParseError
from .fields import _residues, is_prime


def _red(c, ring):
    return c % ring if ring is not None else c


class UniPoly:
    """Dense univariate polynomial; coeffs ascending, no trailing zeros."""

    __slots__ = ("coeffs", "ring")

    def __init__(self, coeffs, ring=None):
        coeffs = [_red(int(c), ring) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)
        self.ring = ring

    @property
    def degree(self):
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    @property
    def lc(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, UniPoly) and self.coeffs == other.coeffs
                and self.ring == other.ring)

    def __hash__(self):
        return hash((self.coeffs, self.ring))

    def __repr__(self):
        return f"UniPoly({self.to_text()!r}, ring={self.ring})"

    def eval(self, x):
        """Horner evaluation; x may be an int or an integer array."""
        if np.isscalar(x) or isinstance(x, int):
            acc = 0
            for c in reversed(self.coeffs):
                acc = acc * x + c
            return _red(acc, self.ring)
        acc = np.zeros_like(np.asarray(x, dtype=np.int64))
        for c in reversed(self.coeffs):
            acc = acc * x + c
            if self.ring is not None:
                acc %= self.ring
        return acc

    def derivative(self):
        return UniPoly([i * c for i, c in enumerate(self.coeffs)][1:], self.ring)

    def reduce_mod(self, p):
        return UniPoly(self.coeffs, ring=p)

    def sub_const(self, c):
        """self - c."""
        if not self.coeffs:
            return UniPoly([-c], self.ring)
        coeffs = list(self.coeffs)
        coeffs[0] -= c
        return UniPoly(coeffs, self.ring)

    def height(self):
        return max((abs(c) for c in self.coeffs), default=0)

    def to_text(self):
        return _poly_text([((i,), c) for i, c in enumerate(self.coeffs) if c], lambda i: "T")


def _times(a, b, ring):
    """Product of two polynomials held as {key: coeff}, keys adding as monomials multiply."""
    out = defaultdict(int)
    for ka, ca in a.items():
        for kb, cb in b.items():
            out[ka + kb] += ca * cb
    return out if ring is None else {key: c % ring for key, c in out.items() if c % ring}


def _iadd(a, b):
    """a + b, written over a where a is an array of the shape of the sum."""
    if isinstance(a, np.ndarray) and np.broadcast(a, b).shape == a.shape:
        return np.add(a, b, out=a)
    return a + b


def _gather(table, idx):
    """table[idx], written over idx when it is an array; idx past the end reads the last entry."""
    return table.take(idx, mode="clip", out=idx if np.ndim(idx) else None)


@lru_cache(maxsize=64)
def _lane_tables(field):
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
def _exponent_tables(field, d):
    """(logs, exps): log x with log 0 = S = (d+1)(q-1); packed g^e for e < S, 0 at S.

    For c != 0 and sum e_i <= d, log c + sum e_i logs[x_i] is below S unless
    some x_i with e_i > 0 is 0, and at least S if one is, so the monomial is
    exps[min(that, S)], with no remainder mod q-1.  exps has S + 1 entries.
    """
    logs = field.log_table.copy()
    logs[0] = (d + 1) * (field.q - 1)
    return logs, np.append(np.tile(_lane_tables(field)[0][field.exp_table], d + 1), 0)


class MultiPoly:
    """Sparse multivariate polynomial: {exponent tuple: coefficient}."""

    __slots__ = ("n_vars", "terms", "ring")

    def __init__(self, n_vars, terms, ring=None):
        clean = {}
        for expo, c in terms.items() if isinstance(terms, dict) else terms:
            expo = tuple(int(e) for e in expo)
            if len(expo) != n_vars:
                raise ValueError("exponent arity mismatch")
            c = _red(int(c), ring)
            if c:
                clean[expo] = clean.get(expo, 0) + c
        clean = {e: _red(c, ring) for e, c in clean.items() if _red(c, ring)}
        self.n_vars = n_vars
        self.terms = clean
        self.ring = ring

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.n_vars == other.n_vars
                and self.terms == other.terms and self.ring == other.ring)

    def __hash__(self):
        return hash((self.n_vars, frozenset(self.terms.items()), self.ring))

    def __repr__(self):
        return f"MultiPoly({self.to_text()!r}, n_vars={self.n_vars}, ring={self.ring})"

    @property
    def total_degree(self):
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def height(self):
        return max((abs(c) for c in self.terms.values()), default=0)

    def reduce_mod(self, p):
        return MultiPoly(self.n_vars, self.terms, ring=p)

    def eval(self, point):
        """Exact evaluation at a tuple of ints (or int arrays); over F_p, eval_mod."""
        if self.ring is not None:
            return self.eval_mod(point, self.ring)
        if len(point) != self.n_vars:
            raise ValueError(f"expected {self.n_vars} coordinates, got {len(point)}")
        scalar = all(np.isscalar(x) or isinstance(x, int) for x in point)
        acc = 0 if scalar else np.zeros(np.broadcast(*point).shape, dtype=np.int64)
        for expo, c in self.terms.items():
            term = c
            for x, e in zip(point, expo):
                if e:
                    term = term * x**e
            acc = acc + term
        return acc

    def eval_mod(self, point, p):
        """Evaluation mod p; coordinates may be int64 arrays (broadcast) or ints of any size."""
        if len(point) != self.n_vars:
            raise ValueError(f"expected {self.n_vars} coordinates, got {len(point)}")
        arrs = [_residues(x, p) for x in point]
        acc = np.zeros(np.broadcast(*arrs).shape, dtype=np.int64)
        # the reduced terms add up unreduced, unless their sum could pass 2^62;
        # a lone term is already reduced
        each = len(self.terms) * p >= 2**62
        for expo, c in self.terms.items():
            term = c % p  # grows only to the shape of the variables it uses
            for base, e in zip(arrs, expo):
                while e > 0:  # square-and-multiply keeps products < p^2
                    if e & 1:
                        term = term * base % p
                    base = base * base % p
                    e >>= 1
            acc += term
            if each:
                acc %= p
        if len(self.terms) > 1:
            acc %= p
        return acc if acc.ndim else int(acc)

    def eval_field(self, field, point):
        """Evaluation with coordinates given as field element indices in [0, q).

        A monomial c * prod x_i^e_i is one gather of packed digits at
        log c + sum e_i log x_i, clipped at the sentinel log 0
        (_exponent_tables).  Terms of one broadcast shape add first, then the
        shapes, smallest first; each sum of two is reduced by one gather in
        place, repack while more follow and unpack to indices at the last.
        """
        if len(point) != self.n_vars:
            raise ValueError(f"expected {self.n_vars} coordinates, got {len(point)}")
        arrs = [np.asarray(x, dtype=np.int64) for x in point]
        groups = {}  # broadcast shape -> [(c, [(i, e_i)])]; x^e = x^((e-1) % (q-1) + 1)
        for expo, c in self.terms.items():
            if field.embed(c):
                used = [(i, (e - 1) % (field.q - 1) + 1) for i, e in enumerate(expo) if e]
                shape = np.broadcast(*(arrs[i] for i, _ in used)).shape
                groups.setdefault(shape, []).append((field.embed(c), used))
        terms = [t for g in groups.values() for t in g]
        logs, exps = _exponent_tables(field, max((sum(e for _, e in u) for _, u in terms),
                                                 default=0))
        log_of = {i: logs[arrs[i]] for i in {i for _, used in terms for i, _ in used}}
        _, unpack, repack = _lane_tables(field)
        left = len(terms) - 1  # additions still to come

        def add(a, b):  # written over a where a has the shape of the sum
            nonlocal left
            left -= 1
            return _gather(repack if left else unpack, _iadd(a, b))

        out = None
        for shape in sorted(groups, key=math.prod):
            part = None
            for c, used in groups[shape]:
                ex = logs[c]
                for i, e in used:
                    ex = _iadd(ex, e * log_of[i] if e > 1 else log_of[i])
                part = _gather(exps, ex) if part is None else add(part, _gather(exps, ex))
            out = part if out is None else add(part, out)
        out = 0 if out is None else _gather(unpack, out) if len(terms) == 1 else out
        if np.shape(out) != (shape := np.broadcast(*arrs).shape):
            out = np.broadcast_to(out, shape).copy()
        return out if np.ndim(out) else int(out)

    def gradient(self):
        """Formal partials, one polynomial per variable."""
        out = []
        for i in range(self.n_vars):
            terms = {}
            for expo, c in self.terms.items():
                if expo[i]:
                    e = list(expo)
                    e[i] -= 1
                    terms[tuple(e)] = c * expo[i]
            out.append(MultiPoly(self.n_vars, terms, self.ring))
        return out

    def substitute(self, vectors):
        """self(sum_r y_r vectors[r]): a polynomial in len(vectors) variables y.

        y^a is keyed by sum_r a_r D^r, D = deg + 1, so monomials multiply by adding keys;
        each power of x_i = sum_r vectors[r][i] y_r that a term uses is built once, by
        halving the exponent, and every product is reduced mod the ring.
        """
        k, ring, D = len(vectors), self.ring, max(self.total_degree, 0) + 1
        powers = {(i, 1): {D**r: v[i] for r, v in enumerate(vectors) if v[i]}
                  for i in range(self.n_vars)}

        def power(i, e):
            if (i, e) not in powers:
                half = _times(power(i, e // 2), power(i, e // 2), ring)
                powers[i, e] = _times(half, powers[i, 1], ring) if e % 2 else half
            return powers[i, e]

        out = defaultdict(int)
        for expo, c in self.terms.items():
            acc = {0: c}
            for i, e in enumerate(expo):
                if e:
                    acc = _times(acc, power(i, e), ring)
            for key, a in acc.items():
                out[key] += a
        return MultiPoly(k, {tuple(key // D**r % D for r in range(k)): c
                             for key, c in out.items()}, ring)

    def as_diagonal(self):
        """(coeffs, d) when the form is sum_i c_i X_i^d with all c_i != 0."""
        if not self.terms:
            return None
        coeffs = [0] * self.n_vars
        d = None
        for expo, c in self.terms.items():
            nz = [i for i, e in enumerate(expo) if e]
            if len(nz) != 1:
                return None
            if d is None:
                d = expo[nz[0]]
            elif expo[nz[0]] != d:
                return None
            coeffs[nz[0]] = c
        if d is None or any(c == 0 for c in coeffs):
            return None
        return coeffs, d

    def to_text(self):
        ordered = sorted(self.terms.items(), key=lambda t: (-sum(t[0]), t[0]))
        return _poly_text(ordered, lambda i: f"X{i}")


def broadcast_grid(sides):
    """Open grid over a product of 1-d arrays: sides[i] runs along axis i.

    The returned arrays broadcast against each other to the full product
    shape, so a polynomial evaluated on them covers every grid point.
    """
    m = len(sides)
    return [np.asarray(s).reshape((1,) * i + (-1,) + (1,) * (m - 1 - i))
            for i, s in enumerate(sides)]


SLAB_POINTS = 1 << 17  # measured as fast as one grid pass; 2^16 (a 211^2 row a slab) 1.6x slower


def grid_slabs(N, k, cells=0, width=1):
    """broadcast_grid over [0, N)^k in runs of whole rows of axis 0, each the fewest rows
    whose points times width reach max(SLAB_POINTS, cells); the last may be shorter."""
    side = np.arange(N, dtype=np.int64)
    rows = -(-max(SLAB_POINTS, cells) // (width * N ** max(k - 1, 0)))
    for lo in range(0, N if k else 1, rows):
        yield broadcast_grid([side[lo:lo + rows]][:k] + [side] * (k - 1))


def _poly_text(terms, var):
    """Render (exponent tuple, coeff) pairs, var(i) naming variable i: "3*X0^2 - X1 + 1"."""
    text = ""
    for expo, c in terms:
        body = "*".join([var(i) if e == 1 else f"{var(i)}^{e}" for i, e in enumerate(expo) if e])
        piece = (str(c) if not body else body if c == 1 else f"-{body}" if c == -1
                 else f"{c}*{body}")
        text += piece if not text else f" - {piece[1:]}" if piece[0] == "-" else f" + {piece}"
    return text or "0"


# ---------------------------------------------------------------------------
# text parsing: tokens are (token, offset) pairs, a token an operator character,
# ("num", n) or ("var", i), T as i = -1; _END closes the list

_TOKEN = re.compile(r"(\d+)|X(\d*)|(T)|([-+*^()])|(\S)")
_END = "end"


def _tokenize(text):
    tokens = []
    for m in _TOKEN.finditer(text):
        num, index, tee, op, other = m.groups()
        if other:
            raise PolyParseError(f"unexpected character {other!r}", m.start())
        if index == "":
            raise PolyParseError("variable X needs an index", m.start())
        tok = op or (("num", int(num)) if num else ("var", -1 if tee else int(index)))
        tokens.append((tok, m.start()))
    return tokens


def _parse_terms(text):
    """[(coeff, {var_index: exponent})], one pair a monomial; T is index -1."""
    tokens = _tokenize(text) + [(_END, len(text))]
    if tokens[0][0] == _END:
        raise PolyParseError("empty polynomial", 0)
    terms, pos = [], 0
    while tokens[pos][0] != _END:
        coeff, expos = 1, {}
        while tokens[pos][0] in ("+", "-"):
            coeff = -coeff if tokens[pos][0] == "-" else coeff
            pos += 1
        if tokens[pos][0] == _END:
            raise PolyParseError("dangling sign", tokens[pos - 1][1])
        while True:  # a factor, then a '*', another factor or the end of the term
            tok, at = tokens[pos]
            if tok[0] == "num":  # an operator token is one character: never "num" or "var"
                coeff *= tok[1]
            elif tok[0] == "var":
                e = 1
                if tokens[pos + 1][0] == "^":
                    pos += 2
                    if tokens[pos][0][0] != "num":
                        raise PolyParseError("exponent must be an integer", tokens[pos - 1][1])
                    e = tokens[pos][0][1]
                expos[tok[1]] = expos.get(tok[1], 0) + e
            else:
                raise PolyParseError("misplaced '*'" if tok == "*" else f"unexpected token {tok!r}",
                                     at)
            pos += 1
            if tokens[pos][0] == "*":
                pos += 1
                if tokens[pos][0] == _END:
                    raise PolyParseError("dangling '*'", tokens[pos - 1][1])
            elif tokens[pos][0] in ("+", "-", _END):
                break
        terms.append((coeff, expos))
    return terms


def parse_unipoly(text):
    """Parse a polynomial in the single variable T."""
    coeffs = defaultdict(int)
    for c, expos in _parse_terms(text):
        if any(idx != -1 for idx in expos):
            raise PolyParseError("univariate polynomials use the variable T", 0)
        coeffs[expos.get(-1, 0)] += c
    vec = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        vec[e] = c
    return UniPoly(vec)


def parse_multipoly(text, n_vars=None):
    """Parse a polynomial in variables X0..Xk; without n_vars, the arity is the largest
    index + 1 after the shift down to X0 (the module docstring)."""
    terms = _parse_terms(text)
    used = {idx for _, expos in terms for idx in expos}
    if -1 in used:
        raise PolyParseError("multivariate polynomials use X<i> variables", 0)
    shift = min(used, default=0) if n_vars is None else 0
    if n_vars is None:
        n_vars = max(used, default=0) - shift + 1
    elif used and max(used) >= n_vars:
        raise PolyParseError(f"variable X{max(used)} exceeds arity {n_vars}", 0)
    out = defaultdict(int)
    for c, expos in terms:
        out[tuple(expos.get(i + shift, 0) for i in range(n_vars))] += c
    return MultiPoly(n_vars, out)


# ---------------------------------------------------------------------------
# resultants: the Sylvester determinant by _det_bareiss (Bareiss over Z, elimination mod p)

def sylvester_matrix(a, b):
    """Sylvester matrix: deg(b) shifted rows of a above deg(a) rows of b."""
    if a.is_zero() or b.is_zero():
        raise ValueError("resultant of the zero polynomial")
    m, n = a.degree, b.degree
    size = m + n
    arow = list(reversed(a.coeffs))
    brow = list(reversed(b.coeffs))
    mat = [[0] * size for _ in range(size)]
    for i in range(n):
        mat[i][i:i + m + 1] = arow
    for i in range(m):
        mat[n + i][i:i + n + 1] = brow
    return mat


def _det_bareiss(mat, ring=None):
    """Exact determinant: Bareiss over Z, modular elimination over F_p."""
    n = len(mat)
    if n == 0:
        return 1
    m = [row[:] for row in mat]
    if ring is None:
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                pivot = next((i for i in range(k + 1, n) if m[i][k]), None)
                if pivot is None:
                    return 0
                m[k], m[pivot] = m[pivot], m[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]
    p = ring
    det = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k] % p), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det = det * m[k][k] % p
        inv = pow(m[k][k], p - 2, p)
        for i in range(k + 1, n):
            f = m[i][k] * inv % p
            if f:
                for j in range(k, n):
                    m[i][j] = (m[i][j] - f * m[k][j]) % p
    return det % p


def resultant_uni(a, b):
    """Resultant of two univariate polynomials: the Sylvester determinant.

    Over Z by fraction-free Bareiss elimination, over F_p by modular
    elimination (_det_bareiss); a ring that is not prime is refused,
    since the elimination inverts pivots mod p.
    """
    if a.is_zero() or b.is_zero():
        raise ValueError("resultant of the zero polynomial")
    if a.ring != b.ring:
        raise ValueError("mixed rings")
    if a.ring is not None and not is_prime(a.ring):
        raise ValueError(f"{a.ring} is not prime")
    return _det_bareiss(sylvester_matrix(a, b), a.ring)


def critical_value_poly(h, p=None):
    """r(s) = Res_T(h - s, h'), of degree d - 1 for d = deg h, over F_p or, where p and
    h.ring are None, over Z: h - s is resolved at s = 0, ..., d - 1 and r is Newton's
    interpolant through those values, r(s) = sum_k (Delta^k r)(0) / k! s(s-1)...(s-k+1).

    r vanishes exactly at the critical values of h.  Over Z every division by k! is
    asserted exact.  Over F_p, p must be prime, p > d = deg(h mod p) >= 2 and h' != 0
    mod p; where p > deg h and p does not divide lc(h), r over F_p is r over Z mod p,
    since the Sylvester matrices reduce entry by entry.
    """
    p = h.ring if p is None else p
    if p is not None and not is_prime(p):
        raise ValueError(f"{p} is not prime")
    hp = h.reduce_mod(p) if h.ring is None else h
    if hp.ring != p:
        raise ValueError("polynomial must live mod p")
    d = hp.degree
    if d < 2:
        raise ValueError("degree below 2 (mod p)")
    dh = hp.derivative()
    if dh.is_zero():
        raise ValueError("derivative vanishes identically mod p")
    if p is not None and p < d + 1:
        raise ValueError("p too small to interpolate the critical-value polynomial")
    ys = [resultant_uni(hp.sub_const(s), dh) for s in range(d)]
    coeffs, falling = [0] * d, [1]  # falling: s(s-1)...(s-k+1), ascending
    for k in range(d):
        fact = math.factorial(k)
        c, rem = divmod(ys[0], fact) if p is None else (ys[0] * pow(fact, -1, p), 0)
        if rem:
            raise ArithmeticError("critical-value interpolation was not exact")
        coeffs = [a + c * b for a, b in zip(coeffs, falling + [0] * d)]
        falling = [b - k * a for a, b in zip(falling + [0], [0] + falling)]
        ys = [b - a for a, b in zip(ys, ys[1:])]
    return UniPoly(coeffs, ring=p)
