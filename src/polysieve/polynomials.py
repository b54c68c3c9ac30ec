"""Sparse multivariate and dense univariate polynomials.

Coefficients are Python ints, either over Z (ring=None) or over F_p
(ring=p, coefficients stored reduced).  Polynomials are immutable
values; every operation returns a fresh object.

Text format (the CLI surface): sums of monomials with integer
coefficients, variables X0..Xn for multivariate and T for univariate,
e.g. "X1^2 + 3*X2^2 - 1" or "2*T^3+1".
"""

import numpy as np

from .errors import InvariantViolation, PolyParseError
from .fields import is_prime


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

    def __call__(self, x):
        return self.eval(x)

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
        return _poly_text([((i,), c) for i, c in enumerate(self.coeffs) if c],
                          names=lambda e: "T" if e else None)

    def roots_mod(self):
        """All roots in F_p (ring must be a prime p)."""
        if self.ring is None:
            raise ValueError("roots_mod needs a mod-p polynomial")
        xs = np.arange(self.ring, dtype=np.int64)
        return set(int(x) for x in xs[self.eval(xs) == 0])


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

    def is_zero(self):
        return not self.terms

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

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return MultiPoly(self.n_vars, terms, self.ring)

    def __neg__(self):
        return MultiPoly(self.n_vars, {e: -c for e, c in self.terms.items()},
                         self.ring)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if isinstance(other, int):
            return MultiPoly(self.n_vars,
                             {e: c * other for e, c in self.terms.items()},
                             self.ring)
        other = self._coerce(other)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return MultiPoly(self.n_vars, terms, self.ring)

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, int):
            return MultiPoly(self.n_vars, {(0,) * self.n_vars: other}, self.ring)
        if other.n_vars != self.n_vars or other.ring != self.ring:
            raise ValueError("incompatible polynomials")
        return other

    def eval(self, point):
        """Exact evaluation at a tuple of ints (or int arrays)."""
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
            if self.ring is not None:
                acc = acc % self.ring
        return acc

    def eval_mod(self, point, p):
        """Evaluation mod p; coordinates may be int64 arrays (broadcast)."""
        if len(point) != self.n_vars:
            raise ValueError(f"expected {self.n_vars} coordinates, got {len(point)}")
        arrs = [np.asarray(x, dtype=np.int64) % p for x in point]
        acc = np.zeros(np.broadcast(*arrs).shape, dtype=np.int64)
        for expo, c in self.terms.items():
            term = np.full_like(acc, c % p)
            for x, e in zip(arrs, expo):
                ee = e
                base = x
                while ee > 0:  # square-and-multiply keeps products < p^2
                    if ee & 1:
                        term = term * base % p
                    base = base * base % p
                    ee >>= 1
            acc = (acc + term) % p
        return acc if acc.ndim else int(acc)

    def eval_field(self, field, point):
        """Evaluation with coordinates given as field element indices."""
        if len(point) != self.n_vars:
            raise ValueError(f"expected {self.n_vars} coordinates, got {len(point)}")
        arrs = [np.asarray(x, dtype=np.int64) for x in point]
        shape = np.broadcast(*arrs).shape
        acc = np.zeros(shape, dtype=np.int64)
        for expo, c in self.terms.items():
            term = np.full(shape, field.embed(c), dtype=np.int64)
            for x, e in zip(arrs, expo):
                if e:
                    term = field.mul(term, field.pow(x, e))
            acc = field.add(acc, term)
        return acc if np.ndim(acc) else int(acc)

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

    def homogenize(self, new_var_index=0):
        """Insert a fresh variable and pad every term up to the total degree.

        Dehomogenizing (setting the new variable to 1) recovers the input.
        """
        d = max(self.total_degree, 0)
        terms = {}
        for expo, c in self.terms.items():
            e = list(expo)
            e.insert(new_var_index, d - sum(expo))
            terms[tuple(e)] = c
        return MultiPoly(self.n_vars + 1, terms, self.ring)

    def drop_var(self, index, value=1):
        """Substitute a constant for one variable (inverse of homogenize)."""
        terms = {}
        for expo, c in self.terms.items():
            e = list(expo)
            pw = e.pop(index)
            key = tuple(e)
            terms[key] = terms.get(key, 0) + c * value**pw
        return MultiPoly(self.n_vars - 1, terms, self.ring)

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
        return _poly_text(ordered, names=lambda e: None)


def broadcast_grid(sides):
    """Open grid over a product of 1-d arrays: sides[i] runs along axis i.

    The returned arrays broadcast against each other to the full product
    shape, so a polynomial evaluated on them covers every grid point.
    """
    m = len(sides)
    return [np.asarray(s).reshape((1,) * i + (-1,) + (1,) * (m - 1 - i))
            for i, s in enumerate(sides)]


def _poly_text(terms, names):
    """Render (exponent tuple, coeff) pairs; `names` unused for X-style vars."""
    if not terms:
        return "0"
    parts = []
    for expo, c in terms:
        factors = []
        for i, e in enumerate(expo):
            if e == 0:
                continue
            var = "T" if len(expo) == 1 and names((1,)) == "T" else f"X{i}"
            factors.append(var if e == 1 else f"{var}^{e}")
        body = "*".join(factors)
        if not body:
            piece = str(c)
        elif c == 1:
            piece = body
        elif c == -1:
            piece = f"-{body}"
        else:
            piece = f"{c}*{body}"
        parts.append(piece)
    text = parts[0]
    for piece in parts[1:]:
        text += f" - {piece[1:]}" if piece.startswith("-") else f" + {piece}"
    return text


# ---------------------------------------------------------------------------
# text parsing

def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^()":
            tokens.append((ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append((("num", int(text[i:j])), i))
            i = j
            continue
        if ch in "XT":
            if ch == "T":
                tokens.append((("var", -1), i))
                i += 1
                continue
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise PolyParseError("variable X needs an index", i)
            tokens.append((("var", int(text[i + 1:j])), i))
            i = j
            continue
        raise PolyParseError(f"unexpected character {ch!r}", i)
    return tokens


def _parse_terms(text):
    """Yield (coeff, {var_index: exponent}) monomials; T is index -1."""
    tokens = _tokenize(text)
    if not tokens:
        raise PolyParseError("empty polynomial", 0)
    pos = 0
    n = len(tokens)
    terms = []
    while pos < n:
        sign = 1
        while pos < n and tokens[pos][0] in ("+", "-"):
            if tokens[pos][0] == "-":
                sign = -sign
            pos += 1
        if pos >= n:
            raise PolyParseError("dangling sign", tokens[-1][1])
        coeff = sign
        expos = {}
        expect_factor = True
        while pos < n:
            tok, at = tokens[pos]
            if tok in ("+", "-") and not expect_factor:
                break
            if tok == "*":
                raise PolyParseError("misplaced '*'", at)
            if isinstance(tok, tuple) and tok[0] == "num":
                coeff *= tok[1]
                pos += 1
            elif isinstance(tok, tuple) and tok[0] == "var":
                idx = tok[1]
                e = 1
                pos += 1
                if pos < n and tokens[pos][0] == "^":
                    pos += 1
                    if pos >= n or not (isinstance(tokens[pos][0], tuple)
                                        and tokens[pos][0][0] == "num"):
                        raise PolyParseError("exponent must be an integer",
                                             tokens[pos - 1][1])
                    e = tokens[pos][0][1]
                    pos += 1
                expos[idx] = expos.get(idx, 0) + e
            else:
                raise PolyParseError(f"unexpected token {tok!r}", at)
            expect_factor = False
            if pos < n and tokens[pos][0] == "*":
                pos += 1
                expect_factor = True
                if pos >= n:
                    raise PolyParseError("dangling '*'", tokens[-1][1])
        terms.append((coeff, expos))
    return terms


def parse_unipoly(text, ring=None):
    """Parse a polynomial in the single variable T."""
    terms = _parse_terms(text)
    coeffs = {}
    for c, expos in terms:
        if any(idx != -1 for idx in expos):
            raise PolyParseError("univariate polynomials use the variable T", 0)
        e = expos.get(-1, 0)
        coeffs[e] = coeffs.get(e, 0) + c
    size = max(coeffs, default=0) + 1
    vec = [0] * size
    for e, c in coeffs.items():
        vec[e] = c
    return UniPoly(vec, ring)


def parse_multipoly(text, n_vars=None, ring=None):
    """Parse a polynomial in variables X0..Xk.

    Without an explicit n_vars, indices are shifted so the smallest one
    used becomes position 0 (so "X1^2+X2^2" is a 2-variable form), and
    the arity is the largest shifted index + 1.
    """
    terms = _parse_terms(text)
    used = set()
    for _, expos in terms:
        for idx in expos:
            if idx == -1:
                raise PolyParseError("multivariate polynomials use X<i> variables", 0)
            used.add(idx)
    shift = 0
    if n_vars is None:
        shift = min(used, default=0)
        n_vars = max((i - shift for i in used), default=0) + 1
    else:
        if used and max(used) >= n_vars:
            raise PolyParseError(f"variable X{max(used)} exceeds arity {n_vars}", 0)
    out = {}
    for c, expos in terms:
        key = tuple(expos.get(i + shift, 0) for i in range(n_vars))
        out[key] = out.get(key, 0) + c
    return MultiPoly(n_vars, out, ring)


# ---------------------------------------------------------------------------
# resultants and discriminants

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


def resultant_sylvester(a, b):
    """Resultant as the Sylvester determinant (the sign-convention oracle)."""
    if a.ring != b.ring:
        raise ValueError("mixed rings")
    return _det_bareiss(sylvester_matrix(a, b), a.ring)


def _resultant_euclid_modp(a, b, p):
    """Euclidean-recursion resultant over F_p, Sylvester sign convention.

    Each step must drop the degree of the remainder below deg(B), so the
    loop ends after at most deg(B) steps; a step that fails to (possible
    only when p is not prime) raises InvariantViolation.
    """
    A = [c % p for c in a.coeffs]
    B = [c % p for c in b.coeffs]

    def deg(v):
        return len(v) - 1

    res = 1
    if deg(A) < deg(B):
        if (deg(A) * deg(B)) % 2:
            res = p - 1
        A, B = B, A
    while True:
        if deg(B) == 0:
            return res * pow(B[0], deg(A), p) % p
        # R = A mod B
        R = A[:]
        inv_lc = pow(B[-1], p - 2, p)
        dB = deg(B)
        for i in range(len(R) - 1, dB - 1, -1):
            c = R[i] * inv_lc % p
            if c:
                for j in range(dB + 1):
                    R[i - dB + j] = (R[i - dB + j] - c * B[j]) % p
        while len(R) > 1 and R[-1] % p == 0:
            R.pop()
        if deg(R) >= dB:  # only when lc(B) has no inverse, i.e. p is not prime
            raise InvariantViolation(
                f"remainder degree {deg(R)} did not drop below {dB} mod {p}")
        if len(R) == 1 and R[0] % p == 0:
            return 0  # common factor
        res = res * pow(B[-1], deg(A) - deg(R), p) % p
        if (deg(A) * deg(B)) % 2:
            res = (p - res) % p
        A, B = B, R


def _resultant_subres_z(a, b):
    """Subresultant-PRS resultant over Z, Sylvester sign convention."""

    def deg(v):
        return len(v) - 1

    def prem(u, v):
        # pseudo-remainder: lc(v)^(deg u - deg v + 1) * u mod v
        dv = deg(v)
        lcv = v[-1]
        r = u[:]
        steps = deg(u) - dv + 1
        while deg(r) >= dv and any(r):
            lead = r[-1]
            r = [c * lcv for c in r]
            dr = deg(r)
            for j in range(dv + 1):
                r[dr - dv + j] -= lead * v[j]
            while len(r) > 1 and r[-1] == 0:
                r.pop()
            steps -= 1
        if not any(r):
            return [0]
        if steps > 0:
            f = lcv**steps
            r = [c * f for c in r]
        return r

    A = list(a.coeffs)
    B = list(b.coeffs)
    sign = 1
    if deg(A) < deg(B):
        if (deg(A) * deg(B)) % 2:
            sign = -sign
        A, B = B, A
    g, h = 1, 1
    while True:
        dA, dB = deg(A), deg(B)
        if dB == 0:
            num = B[0] ** dA
            return sign * (num // h ** (dA - 1)) if dA > 1 else sign * num
        delta = dA - dB
        if (dA * dB) % 2:
            sign = -sign
        R = prem(A, B)
        if R == [0]:
            return 0
        denom = g * h**delta
        A = B
        B = [c // denom for c in R]
        g = A[-1]
        h = h if delta == 0 else g**delta // h ** (delta - 1)


def resultant_uni(a, b):
    """Resultant of two univariate polynomials (Sylvester sign convention).

    Fast paths: Euclidean recursion mod p, subresultant PRS over Z; both
    are pinned to the Sylvester determinant in the test suite.
    """
    if a.is_zero() or b.is_zero():
        raise ValueError("resultant of the zero polynomial")
    if a.ring != b.ring:
        raise ValueError("mixed rings")
    if a.degree == 0:
        return _red(a.coeffs[0] ** b.degree, a.ring)
    if b.degree == 0:
        return _red(b.coeffs[0] ** a.degree, a.ring)
    if a.ring is not None:
        return _resultant_euclid_modp(a, b, a.ring)
    return _resultant_subres_z(a, b)


def discriminant_uni(a):
    """(-1)^(d(d-1)/2) Res(a, a') / lc(a); zero iff a has a multiple root."""
    if a.degree < 1:
        raise ValueError("discriminant needs degree >= 1")
    da = a.derivative()
    sign = -1 if (a.degree * (a.degree - 1) // 2) % 2 else 1
    if da.is_zero():
        return 0
    res = resultant_uni(a, da)
    if a.ring is not None:
        return sign * res * pow(a.lc, a.ring - 2, a.ring) % a.ring
    quo, rem = divmod(sign * res, a.lc)
    if rem:
        raise ArithmeticError("discriminant division was not exact")
    return quo


def critical_value_poly(h, p):
    """r(s) = Res_T(h - s, h') over F_p, by evaluation and interpolation.

    r vanishes exactly at the critical values of h that lie in F_p.
    Requires p prime, deg(h mod p) >= 2 and h' != 0 mod p.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    hp = h.reduce_mod(p) if h.ring is None else h
    if hp.ring != p:
        raise ValueError("polynomial must live mod p")
    d = hp.degree
    if d < 2:
        raise ValueError("degree collapsed below 2 mod p")
    dh = hp.derivative()
    if dh.is_zero():
        raise ValueError("derivative vanishes identically mod p")
    if p < d + 1:
        raise ValueError("p too small to interpolate the critical-value polynomial")
    # r has degree <= d-1, so d sample points determine it
    xs = list(range(d))
    ys = [resultant_uni(hp.sub_const(s0), dh) for s0 in xs]
    return _lagrange_interpolate(xs, ys, p)


def _lagrange_interpolate(xs, ys, p):
    """UniPoly over F_p through the given points."""
    n = len(xs)
    coeffs = [0] * n
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        num = [1]  # prod_{j != i} (T - xj)
        denom = 1
        for j, xj in enumerate(xs):
            if j == i:
                continue
            new = [0] * (len(num) + 1)
            for k, c in enumerate(num):
                new[k + 1] = (new[k + 1] + c) % p
                new[k] = (new[k] - c * xj) % p
            num = new
            denom = denom * (xi - xj) % p
        scale = yi * pow(denom, p - 2, p) % p
        for k, c in enumerate(num):
            coeffs[k] = (coeffs[k] + scale * c) % p
    return UniPoly(coeffs, ring=p)
