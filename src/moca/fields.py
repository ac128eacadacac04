"""Exact coefficient fields: GF(p), GF(p^k), and the rationals.

Extension field elements are coefficient vectors of length k over GF(p),
ascending degree, reduced modulo a monic irreducible polynomial in the
generator t.  Rationals ride on fractions.Fraction, which keeps every value
reduced.  All arithmetic is exact; there is no floating point anywhere.

scalar_rank fixes a bijection field -> [0, q): the rank of an element is the
base-p value of its coefficient vector, so 0 -> 0 and 1 -> 1 always, and the
remaining elements sort lexicographically by descending-degree coefficients.
Deterministic witness selection everywhere else in the package leans on this
ordering.

Factories return one object per field, interned by key ((p), or (p, k,
normalised modulus); rationals() is a singleton), so every carrier check is
`is`; another modulus gives another field.  Primes must be below the bound
where Miller-Rabin on the first 13 prime bases is exact.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import CarrierMismatch, NotFinite, ParseError, ValidationError

__all__ = [
    "Field",
    "PrimeField",
    "ExtensionField",
    "RationalField",
    "Scalar",
    "field_make",
    "rationals",
    "parse_field_spec",
    "random_scalar",
    "decode_digits",
    "DEFAULT_MODULI",
]


# Miller-Rabin on the first 13 prime bases is exact below this bound
# (Sorenson and Webster 2015); larger characteristics are rejected
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin; exact for n < _MR_BOUND."""
    if n < 2 or any(n % b == 0 for b in _MR_BASES):
        return n in _MR_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    for b in _MR_BASES:
        x = pow(b, (n - 1) >> s, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_prime(p):
    if p >= _MR_BOUND:
        raise ValidationError(
            f"characteristic too large for an exact primality test; "
            f"p must be below {_MR_BOUND}",
            witness=p)
    if not _is_prime(p):
        raise ValidationError(f"{p} is not prime", witness=p)


# polynomial helpers over GF(p); tuples ascending degree, no trailing zeros


def _ptrim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _pdivmod(a, b, p):
    a = list(_ptrim(a))
    b = _ptrim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = len(b) - 1
    if len(a) - 1 < db:
        return (), _ptrim(a)
    linv = pow(b[-1], -1, p)
    q = [0] * (len(a) - db)
    for da in range(len(a) - 1, db - 1, -1):
        c = (a[da] * linv) % p
        if c:
            q[da - db] = c
            for i in range(db + 1):
                a[da - db + i] = (a[da - db + i] - c * b[i]) % p
    return _ptrim(q), _ptrim(a)


def _pmod(a, b, p):
    return _pdivmod(a, b, p)[1]


def _pmulmod(a, b, f, p):
    prod = [0] * (len(a) + len(b))
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    return _pmod(prod, f, p)


def _ppowmod(a, e, f, p):
    out, base = (1,), _pmod(a, f, p)
    while e:
        if e & 1:
            out = _pmulmod(out, base, f, p)
        base = _pmulmod(base, base, f, p)
        e >>= 1
    return out


def _pgcd(a, b, p):
    """The monic gcd (or () when both are zero)."""
    a, b = _ptrim(a), _ptrim(b)
    while b:
        a, b = b, _pmod(a, b, p)
    if not a:
        return a
    linv = pow(a[-1], -1, p)
    return tuple(c * linv % p for c in a)


def _format_poly(coeffs):
    """Canonical text for a GF(p)[t] polynomial, descending degree."""
    parts = []
    for d in range(len(coeffs) - 1, -1, -1):
        c = coeffs[d] if d < len(coeffs) else 0
        if c == 0:
            continue
        if d == 0:
            parts.append(str(c))
        else:
            head = "" if c == 1 else f"{c}*"
            parts.append(f"{head}t" + (f"^{d}" if d > 1 else ""))
    return "+".join(parts) if parts else "0"


def _irreducibility_witness(modulus, p):
    """Return a proper monic factor of `modulus` over GF(p), or None.

    The least degree of a factor is the least i with gcd(f, t^(p^i) - t)
    != 1 (Rabin), and every monic divisor of that degree is irreducible,
    hence divides the gcd; candidates are enumerated only there, so an
    irreducible modulus costs O(k log p) products, not p^(k/2) divisions.
    """
    k = len(modulus) - 1
    frob = (0, 1)  # t^(p^deg) mod f
    for deg in range(1, k // 2 + 1):
        frob = _ppowmod(frob, p, modulus, p)
        diff = list(frob) + [0] * (2 - len(frob))
        diff[1] = (diff[1] - 1) % p
        g = _pgcd(modulus, diff, p)
        if len(g) == 1:
            continue
        if len(g) == deg + 1:
            return g
        # all monic polynomials of this degree
        for idx in range(p**deg):
            coeffs = []
            r = idx
            for _ in range(deg):
                coeffs.append(r % p)
                r //= p
            cand = tuple(coeffs) + (1,)
            if not _pmod(g, cand, p):
                return cand
    return None


# default monic irreducible moduli for every prime power q <= 64 with k > 1
DEFAULT_MODULI = {
    (2, 2): (1, 1, 1),            # t^2+t+1
    (2, 3): (1, 1, 0, 1),         # t^3+t+1
    (2, 4): (1, 1, 0, 0, 1),      # t^4+t+1
    (2, 5): (1, 0, 1, 0, 0, 1),   # t^5+t^2+1
    (2, 6): (1, 1, 0, 0, 0, 0, 1),  # t^6+t+1
    (3, 2): (1, 0, 1),            # t^2+1
    (3, 3): (1, 2, 0, 1),         # t^3+2t+1
    (5, 2): (1, 1, 1),            # t^2+t+1
    (7, 2): (1, 0, 1),            # t^2+1
}


class Scalar:
    """One field element in canonical form."""

    __slots__ = ("field", "v")

    def __init__(self, field, v):
        self.field = field
        self.v = v

    def _same(self, other):
        if other.field is not self.field:
            raise CarrierMismatch(
                f"mixed fields: {self.field.name()} vs {other.field.name()}")

    def __add__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        self._same(other)
        return Scalar(self.field, self.field.add_v(self.v, other.v))

    def __sub__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        self._same(other)
        return Scalar(self.field, self.field.sub_v(self.v, other.v))

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        self._same(other)
        return Scalar(self.field, self.field.mul_v(self.v, other.v))

    def __truediv__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        self._same(other)
        return Scalar(self.field, self.field.mul_v(self.v, self.field.inv_v(other.v)))

    def __neg__(self):
        return Scalar(self.field, self.field.neg_v(self.v))

    def inverse(self):
        return Scalar(self.field, self.field.inv_v(self.v))

    def is_zero(self):
        return self.v == self.field.zero_v

    def is_one(self):
        return self.v == self.field.one_v

    def rank(self):
        return self.field.rank_v(self.v)

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.field is other.field and self.v == other.v

    def __hash__(self):
        return hash(self.v)

    def __str__(self):
        return self.field.literal_of_v(self.v)

    def __repr__(self):
        return f"Scalar({str(self)!r}, {self.field.spec_string()!r})"


class Field:
    """Common surface for the three carrier kinds."""

    is_rational = False

    def scalar_from_int(self, n):
        return Scalar(self, self.int_v(n))

    @property
    def zero(self):
        return Scalar(self, self.zero_v)

    @property
    def one(self):
        return Scalar(self, self.one_v)

    def is_finite(self):
        return self.order is not None

    def elements(self):
        if self.order is None:
            raise NotFinite(f"{self.name()} is infinite")
        return [self.unrank(r) for r in range(self.order)]

    def unrank(self, r):
        return Scalar(self, self.unrank_v(r))

    def parse_literal(self, text):
        return Scalar(self, self.parse_literal_v(text))

    def rank_tables(self):
        """Cayley tables for + and * indexed by rank; finite fields only."""
        if self.order is None:
            raise NotFinite(f"{self.name()} has no rank tables")
        tabs = getattr(self, "_rank_tables", None)
        if tabs is None:
            q = self.order
            vals = [self.unrank_v(r) for r in range(q)]
            add = [[self.rank_v(self.add_v(vals[i], vals[j])) for j in range(q)] for i in range(q)]
            mul = [[self.rank_v(self.mul_v(vals[i], vals[j])) for j in range(q)] for i in range(q)]
            tabs = (add, mul)
            self._rank_tables = tabs
        return tabs

    def __repr__(self):
        return f"<{self.name()}>"


class PrimeField(Field):
    def __init__(self, p):
        _check_prime(p)
        self.p = p
        self.k = 1
        self.order = p
        self.zero_v = 0
        self.one_v = 1 % p

    def key(self):
        return ("prime", self.p)

    def name(self):
        return f"GF({self.p})"

    def spec_string(self):
        return str(self.p)

    def int_v(self, n):
        return n % self.p

    def add_v(self, a, b):
        return (a + b) % self.p

    def sub_v(self, a, b):
        return (a - b) % self.p

    def mul_v(self, a, b):
        return (a * b) % self.p

    def neg_v(self, a):
        return (-a) % self.p

    def inv_v(self, a):
        if a == 0:
            raise ZeroDivisionError(f"division by zero in {self.name()}")
        return pow(a, -1, self.p)

    def rank_v(self, a):
        return a

    def unrank_v(self, r):
        if not 0 <= r < self.p:
            raise ValidationError(f"rank {r} out of range for {self.name()}")
        return r

    def literal_of_v(self, a):
        return str(a)

    def parse_literal_v(self, text):
        s = re.sub(r"\s+", "", text)
        if not re.fullmatch(r"[+-]?[0-9]+", s):
            raise ParseError(f"bad {self.name()} literal {text!r}")
        return int(s) % self.p


class ExtensionField(Field):
    def __init__(self, p, k, modulus=None):
        _check_prime(p)
        if k < 2:
            raise ValidationError(f"extension degree must be >= 2, got {k}")
        if modulus is None:
            modulus = DEFAULT_MODULI.get((p, k))
            if modulus is None:
                raise ValidationError(
                    f"no default modulus for GF({p}^{k}); supply one")
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ValidationError(
                f"modulus must be monic of degree {k}", witness=modulus)
        factor = _irreducibility_witness(modulus, p)
        if factor is not None:
            raise ValidationError(
                f"modulus {_format_poly(modulus)} is reducible over GF({p}); "
                f"factor {_format_poly(factor)}",
                witness=factor)
        self.p = p
        self.k = k
        self.modulus = modulus
        self.order = p**k
        self.zero_v = (0,) * k
        self.one_v = (1,) + (0,) * (k - 1)
        # t^(k+j) reduced, for folding products back below degree k
        red = []
        cur = tuple((-modulus[i]) % p for i in range(k))  # t^k
        red.append(cur)
        for _ in range(k - 2):
            shifted = (0,) + cur[: k - 1]
            top = cur[k - 1]
            cur = tuple((shifted[i] + top * red[0][i]) % p for i in range(k))
            red.append(cur)
        self._red = red
        self._inv_cache = {}

    def key(self):
        return ("ext", self.p, self.k, self.modulus)

    def name(self):
        return f"GF({self.p}^{self.k})"

    def spec_string(self):
        return f"{self.p}^{self.k}"

    def int_v(self, n):
        return (n % self.p,) + (0,) * (self.k - 1)

    def add_v(self, a, b):
        p = self.p
        return tuple((a[i] + b[i]) % p for i in range(self.k))

    def sub_v(self, a, b):
        p = self.p
        return tuple((a[i] - b[i]) % p for i in range(self.k))

    def neg_v(self, a):
        p = self.p
        return tuple((-a[i]) % p for i in range(self.k))

    def mul_v(self, a, b):
        p, k = self.p, self.k
        prod = [0] * (2 * k - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        prod[i + j] = (prod[i + j] + ai * bj) % p
        out = prod[:k]
        for e in range(k, 2 * k - 1):
            c = prod[e]
            if c:
                row = self._red[e - k]
                for i in range(k):
                    out[i] = (out[i] + c * row[i]) % p
        return tuple(out)

    def inv_v(self, a):
        if a == self.zero_v:
            raise ZeroDivisionError(f"division by zero in {self.name()}")
        inv = self._inv_cache.get(a)
        if inv is None:
            # a^(q-2), since the nonzero elements form a group of order q-1
            inv, base, e = self.one_v, a, self.order - 2
            while e:
                if e & 1:
                    inv = self.mul_v(inv, base)
                base = self.mul_v(base, base)
                e >>= 1
            self._inv_cache[a] = inv
        return inv

    def rank_v(self, a):
        r = 0
        for c in reversed(a):
            r = r * self.p + c
        return r

    def unrank_v(self, r):
        if not 0 <= r < self.order:
            raise ValidationError(f"rank {r} out of range for {self.name()}")
        out = []
        for _ in range(self.k):
            out.append(r % self.p)
            r //= self.p
        return tuple(out)

    def from_coeffs(self, coeffs):
        """Scalar from an arbitrary-degree coefficient list, reduced."""
        coeffs = tuple(c % self.p for c in coeffs)
        rem = _pmod(_ptrim(coeffs), self.modulus, self.p)
        return Scalar(self, tuple(rem) + (0,) * (self.k - len(rem)))

    @property
    def generator(self):
        return Scalar(self, (0, 1) + (0,) * (self.k - 2))

    def literal_of_v(self, a):
        return _format_poly(a)

    def parse_literal_v(self, text):
        s = re.sub(r"\s+", "", text)
        if not s:
            raise ParseError(f"empty {self.name()} literal")
        # split into signed terms at top level (no parens in field literals)
        terms = []
        cur = ""
        sign = 1
        first = True
        i = 0
        while i < len(s):
            ch = s[i]
            if ch in "+-" and not first and cur:
                terms.append((sign, cur))
                sign = 1 if ch == "+" else -1
                cur = ""
            elif ch in "+-" and (first or not cur):
                if ch == "-":
                    sign = -sign
            else:
                cur += ch
            first = False
            i += 1
        if not cur:
            raise ParseError(f"bad {self.name()} literal {text!r}")
        terms.append((sign, cur))
        degs = {}
        for sg, term in terms:
            m = re.fullmatch(r"(?:([0-9]+)\*?)?(t(?:\^([0-9]+))?)?", term)
            if not m or (m.group(1) is None and m.group(2) is None):
                raise ParseError(f"bad term {term!r} in {self.name()} literal")
            coeff = int(m.group(1)) if m.group(1) is not None else 1
            if m.group(2) is None:
                deg = 0
            else:
                deg = int(m.group(3)) if m.group(3) is not None else 1
            degs[deg] = degs.get(deg, 0) + sg * coeff
        top = max(degs) if degs else 0
        vec = [degs.get(d, 0) % self.p for d in range(top + 1)]
        return self.from_coeffs(vec).v


class RationalField(Field):
    is_rational = True
    p = 0
    k = 1
    order = None
    zero_v = Fraction(0)
    one_v = Fraction(1)

    def key(self):
        return ("rational",)

    def name(self):
        return "Q"

    def spec_string(self):
        return "Q"

    def int_v(self, n):
        return Fraction(n)

    def add_v(self, a, b):
        return a + b

    def sub_v(self, a, b):
        return a - b

    def mul_v(self, a, b):
        return a * b

    def neg_v(self, a):
        return -a

    def inv_v(self, a):
        if a == 0:
            raise ZeroDivisionError("division by zero in Q")
        return 1 / a

    def rank_v(self, a):
        raise NotFinite("Q has no scalar rank")

    def unrank_v(self, r):
        raise NotFinite("Q has no scalar rank")

    def literal_of_v(self, a):
        if a.denominator == 1:
            return str(a.numerator)
        return f"{a.numerator}/{a.denominator}"

    def parse_literal_v(self, text):
        s = re.sub(r"\s+", "", text)
        m = re.fullmatch(r"([+-]?[0-9]+)(?:/([0-9]+))?", s)
        if not m:
            raise ParseError(f"bad rational literal {text!r}")
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) is not None else 1
        if den == 0:
            raise ParseError(f"zero denominator in {text!r}")
        return Fraction(num, den)


_RATIONALS = RationalField()


def rationals():
    return _RATIONALS


_FIELDS = {}


def field_make(p, k=1, modulus=None):
    """Build GF(p^k), then intern it by key; modulus defaults from a table."""
    if k == 1:
        if modulus is not None:
            raise ValidationError("prime fields take no modulus")
        field = PrimeField(p)
    else:
        field = ExtensionField(p, k, modulus)
    return _FIELDS.setdefault(field.key(), field)


def parse_field_spec(text):
    """Parse a CLI field spec: 'p', 'p^k', or 'Q'."""
    s = text.strip()
    if s in ("Q", "q"):
        return rationals()
    # int() refuses more than 4300 digits
    m = re.fullmatch(r"([0-9]{1,4000})(?:\^([0-9]{1,4000}))?", s)
    if not m:
        raise ParseError(f"bad field spec {text!r}; expected p, p^k, or Q")
    p = int(m.group(1))
    k = int(m.group(2)) if m.group(2) is not None else 1
    return field_make(p, k)


def random_scalar(rng, field):
    """A uniform element of a finite field; a small random fraction over Q."""
    if field.is_finite():
        return field.unrank(rng.randrange(field.order))
    return Scalar(field, Fraction(rng.randrange(-9, 10), rng.randrange(1, 10)))


def decode_digits(idx, base, length):
    """The `length` base-`base` digits of idx, most significant first."""
    out = [0] * length
    for pos in range(length - 1, -1, -1):
        out[pos] = idx % base
        idx //= base
    return out
