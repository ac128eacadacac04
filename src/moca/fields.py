"""Exact coefficient fields: GF(p), GF(p^k), and the rationals.

A finite field value is its rank, an int in [0, q).  Over GF(p) that is the
residue mod p.  Over GF(p^k) the base-p digits of the rank, low digit first,
are the coefficients of a polynomial in the generator t reduced modulo a
monic irreducible polynomial of degree k; literals are parsed and printed
through those digits, and all arithmetic reads q x q Cayley tables built
with the field.  So 0 -> 0 and 1 -> 1 always, and the remaining elements sort
lexicographically by descending-degree coefficients.  Deterministic witness
selection everywhere else in the package leans on this ordering.  Extension
fields are bounded at q <= 256, which keeps each table at 65536 entries.
Irreducibility of the modulus is read from the multiplication table: a
reducible modulus has a product of two monic factors that is zero there.
Rationals ride on fractions.Fraction, which keeps every value reduced.  All
arithmetic is exact; there is no floating point anywhere.  Literals of every
field take one optional sign per term: `t-1` and `-t+1` parse over GF(p^k),
`t+-1` and `--t` do not.

field_make returns one object per field, interned by (p) or (p, k,
normalised modulus), and rationals() is a singleton, so every carrier check
is `is`; another modulus gives another field.  Primes must be below the
bound where Miller-Rabin on the first 13 prime bases is exact.
decode_digits and encode_digits are the one mixed-radix digit codec, most
significant digit first, for rule tables, configurations and witnesses.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import CarrierMismatch, NotFinite, ParseError, ValidationError, _DIGITS, _check_space

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
    "encode_digits",
    "DEFAULT_MODULI",
    "MAX_EXTENSION_ORDER",
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


def _extension_tables(p, k, modulus):
    """(add, mul, neg, inv) of GF(p^k) indexed by rank, inv[0] = 0; a
    reducible monic `modulus` raises ValidationError with its least monic
    factor of least degree.

    Write b = c + t*b', with c the constant term (the low base-p digit of
    the rank) and b' the rank shifted down one digit.  Then a + b and -b
    recur digit by digit, and a*b = c*a + t*(a*b') reads entries already
    filled, so no polynomial is ever multiplied.  The same recursion builds
    the ring GF(p)[t]/(modulus) for any monic modulus, and there a monic g of
    degree i divides the modulus iff g*h = 0 for some monic h of degree
    k - i.  The monic polynomials of degree i are the ranks in [p^i, 2p^i).
    """
    q = p**k
    top = q // p
    digits = [(r % p, r // p) for r in range(q)]
    add = [list(range(q))]
    for a in range(1, q):
        a0, rest = a % p, add[a // p]
        add.append([(a0 + c) % p + p * rest[b] for c, b in digits])
    neg = [0] * q
    for r in range(1, q):
        neg[r] = -r % p + p * neg[r // p]
    # t*x shifts the digits of x up and folds the top digit d back in as
    # d * t^k, where t^k = -(the modulus below its leading term)
    tk = 0
    for m in reversed(modulus[:k]):
        tk = tk * p + -m % p
    fold = [0]
    for _ in range(1, p):
        fold.append(add[fold[-1]][tk])
    times_t = [add[x % top * p][fold[x // top]] for x in range(q)]
    mul = []
    for a in range(q):
        row = [0]
        for _ in range(1, p):
            row.append(add[row[-1]][a])
        scaled = row[:]  # c*a for each constant c
        for b in range(1, top):
            shifted = add[times_t[row[b]]]
            row += [shifted[v] for v in scaled]
        mul.append(row)
    for i in range(1, k // 2 + 1):
        lo, hi = p**i, q // p**i
        for g in range(lo, 2 * lo):
            if 0 in mul[g][hi:2 * hi]:
                factor = tuple(decode_digits(g, p, i + 1)[::-1])
                raise ValidationError(
                    f"modulus {_format_poly(modulus)} is reducible over "
                    f"GF({p}); factor {_format_poly(factor)}",
                    witness=factor)
    inv = [0] + [row.index(1) for row in mul[1:]]
    return add, mul, neg, inv


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


def _check_field(field, x):
    """Raise unless x (a Scalar, element or matrix) lives over `field`."""
    if x.field is not field:
        raise CarrierMismatch(f"mixed fields: {field.name()} vs {x.field.name()}")


class Scalar:
    """One field element in canonical form."""

    __slots__ = ("field", "v")

    def __init__(self, field, v):
        self.field = field
        self.v = v

    def __add__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        _check_field(self.field, other)
        return Scalar(self.field, self.field.add_v(self.v, other.v))

    def __sub__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        _check_field(self.field, other)
        return Scalar(self.field, self.field.sub_v(self.v, other.v))

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        _check_field(self.field, other)
        return Scalar(self.field, self.field.mul_v(self.v, other.v))

    def __neg__(self):
        return Scalar(self.field, self.field.neg_v(self.v))

    def inverse(self):
        return Scalar(self.field, self.field.inv_v(self.v))

    def is_zero(self):
        return self.v == self.field.zero_v

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
    """Common surface for the three carrier kinds; finite values are ranks."""

    is_rational = False
    zero_v = 0
    one_v = 1
    _tables = None

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

    def rank_v(self, a):
        """A finite field value is its own rank."""
        if self.order is None:
            raise NotFinite(f"{self.name()} has no scalar rank")
        return a

    def unrank_v(self, r):
        if not 0 <= self.rank_v(r) < self.order:
            raise ValidationError(f"rank {r} out of range for {self.name()}")
        return r

    def unrank(self, r):
        return Scalar(self, self.unrank_v(r))

    def parse_literal(self, text):
        return Scalar(self, self.parse_literal_v(text))

    def rank_tables(self):
        """Cayley tables (add, mul, neg, inv) indexed by rank, inv[0] = 0;
        finite fields only.  GF(p^k) builds them with the field, GF(p) on
        first use."""
        if self.order is None:
            raise NotFinite(f"{self.name()} has no rank tables")
        if self._tables is None:
            els = range(self.order)
            self._tables = ([[self.add_v(a, b) for b in els] for a in els],
                            [[self.mul_v(a, b) for b in els] for a in els],
                            [self.neg_v(a) for a in els],
                            [0] + [self.inv_v(a) for a in els[1:]])
        return self._tables

    def __repr__(self):
        return f"<{self.name()}>"


class PrimeField(Field):
    def __init__(self, p):
        self.p = p
        self.k = 1
        self.order = p

    def name(self):
        return f"GF({self.p})"

    def spec_string(self):
        return str(self.p)

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

    def literal_of_v(self, a):
        return str(a)

    def parse_literal_v(self, text):
        s = re.sub(r"\s+", "", text)
        if not re.fullmatch(f"[+-]?{_DIGITS}", s):
            raise ParseError(f"bad {self.name()} literal {text!r}")
        return int(s) % self.p


class ExtensionField(Field):
    """GF(p^k) for a monic modulus, whose irreducibility the table build
    checks; every operation is a read of the tables built here."""

    def __init__(self, p, k, modulus):
        self.p = p
        self.k = k
        self.modulus = modulus
        self.order = p**k
        self._tables = _extension_tables(p, k, modulus)
        self._add, self._mul, self._neg, self._inv = self._tables

    def name(self):
        return f"GF({self.p}^{self.k})"

    def spec_string(self):
        return f"{self.p}^{self.k}"

    def add_v(self, a, b):
        return self._add[a][b]

    def sub_v(self, a, b):
        return self._add[a][self._neg[b]]

    def mul_v(self, a, b):
        return self._mul[a][b]

    def neg_v(self, a):
        return self._neg[a]

    def inv_v(self, a):
        if a == 0:
            raise ZeroDivisionError(f"division by zero in {self.name()}")
        return self._inv[a]

    def literal_of_v(self, a):
        return _format_poly(decode_digits(a, self.p, self.k)[::-1])

    def parse_literal_v(self, text):
        s = re.sub(r"\s+", "", text)
        if not s:
            raise ParseError(f"empty {self.name()} literal")
        # one optional sign per term, as in every other literal grammar
        if not re.fullmatch(r"[+-]?[^+-]+(?:[+-][^+-]+)*", s):
            raise ParseError(f"bad {self.name()} literal {text!r}")
        degs = {}
        for sign, term in re.findall(r"([+-]?)([^+-]+)", s):
            # a coefficient's `*` must be followed by t: `2*t`, never `2*`
            m = re.fullmatch(rf"(?:({_DIGITS})(?:\*(?=t))?)?(t(?:\^({_DIGITS}))?)?", term)
            if not m:
                raise ParseError(f"bad term {term!r} in {self.name()} literal")
            digits, t, exp = m.groups()
            coeff = int(digits or 1)
            # t is a unit, so t^(q-1) = 1
            deg = 0 if t is None else int(exp or 1) % (self.order - 1)
            degs[deg] = degs.get(deg, 0) + (-coeff if sign == "-" else coeff)
        # Horner's rule in t, whose rank is p
        r = 0
        for d in range(max(degs), -1, -1):
            r = self._add[self._mul[r][self.p]][degs.get(d, 0) % self.p]
        return r


class RationalField(Field):
    is_rational = True
    p = 0
    k = 1
    order = None
    zero_v = Fraction(0)
    one_v = Fraction(1)

    def name(self):
        return "Q"

    def spec_string(self):
        return "Q"

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

    def literal_of_v(self, a):
        if a.denominator == 1:
            return str(a.numerator)
        return f"{a.numerator}/{a.denominator}"

    def parse_literal_v(self, text):
        s = re.sub(r"\s+", "", text)
        m = re.fullmatch(f"([+-]?{_DIGITS})(?:/({_DIGITS}))?", s)
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


# the q x q tables of an extension field hold at most 256^2 entries
MAX_EXTENSION_ORDER = 256

_FIELDS = {}


def field_make(p, k=1, modulus=None):
    """GF(p^k), built once per key and then interned; the modulus defaults
    from a table.  Extension orders above MAX_EXTENSION_ORDER are refused
    before p**k is formed."""
    if k == 1 and modulus is not None:
        raise ValidationError("prime fields take no modulus")
    _check_prime(p)
    if k == 1:
        key = (p,)
    else:
        if k < 2:
            raise ValidationError(f"extension degree must be >= 2, got {k}")
        if modulus is None:
            modulus = DEFAULT_MODULI.get((p, k))
            if modulus is None:
                raise ValidationError(
                    f"no default modulus for GF({p}^{k}); supply one")
        _check_space(p, k, MAX_EXTENSION_ORDER, "extension field order")
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ValidationError(
                f"modulus must be monic of degree {k}", witness=modulus)
        key = (p, k, modulus)
    field = _FIELDS.get(key)
    if field is None:
        field = PrimeField(p) if k == 1 else ExtensionField(p, k, modulus)
        _FIELDS[key] = field
    return field


def parse_field_spec(text):
    """Parse a CLI field spec: 'p', 'p^k', or 'Q'."""
    s = text.strip()
    if s in ("Q", "q"):
        return rationals()
    m = re.fullmatch(rf"({_DIGITS})(?:\^({_DIGITS}))?", s)
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


def encode_digits(digits, base):
    """The index whose base-`base` digits, most significant first, are `digits`."""
    idx = 0
    for d in digits:
        idx = idx * base + d
    return idx
