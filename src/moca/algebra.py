"""Finitely supported elements of the monoid algebra K[M], and square
matrices over it.

An element is a dict from monoid elements (canonical forms) to nonzero raw
field values: the Scalar.v of each coefficient, a rank over GF(q) and a
Fraction over Q.  The product is convolution: coefficients of products of
support elements multiply and accumulate.  Matrices multiply the usual way
with entries in K[M]; mat_support is the union of entry supports, which is
also the minimal memory set of the cellular automaton the matrix induces.

Every sum and product, of elements and of matrices, goes through one
accumulator, _collect: it adds the raw values of equal monoid elements and
drops zero sums.  Scalars exist only at the edges of this layer.  They come
in through alg_from_terms and scale, which check their field, and go out
through coeff.

Literal grammar (whitespace-insensitive):

    literal  = term (("+" | "-") term)*     |  "0"
    term     = [coeff "*"] element
    coeff    = field literal, parenthesized when it contains +/- itself

so `p + q`, `2*e + g`, `(t+1)*q^2p^3`, `1/3*x1` all parse.  The split
between coefficient and element is the last top-level `*`; element names
never contain `*`, which keeps the grammar unambiguous.
"""

from __future__ import annotations

from itertools import chain

from .errors import CarrierMismatch, ParseError, ValidationError, _content_lines, _on_line
from .fields import Scalar, _check_field
from .monoids import canonical_sorted

__all__ = [
    "AlgElem",
    "AlgMatrix",
    "alg_zero",
    "alg_basis",
    "alg_one",
    "alg_from_terms",
    "parse_alg_literal",
    "mat_identity",
    "mat_zero",
    "mat_from_entries",
    "parse_matrix_text",
    "serialize_matrix",
]


def _check_carriers(a, b):
    """Raise unless a and b share their field and their monoid."""
    _check_field(a.field, b)
    if a.monoid is not b.monoid:
        raise CarrierMismatch(
            f"mixed monoids: {a.monoid.spec_string()} vs {b.monoid.spec_string()}")


def _products(field, left, right):
    """(m1*m2, c1*c2) for every term of `left` times every term of `right`,
    both terms dicts."""
    mul = field.mul_v
    right = right.items()
    for m1, a in left.items():
        for m2, b in right:
            yield m1 * m2, mul(a, b)


def _collect(field, monoid, pairs):
    """The element sum of (monoid element, raw value) pairs: values of equal
    elements add with field.add_v and zero sums drop out."""
    add = field.add_v
    acc = {}
    for m, v in pairs:
        old = acc.get(m)
        acc[m] = v if old is None else add(old, v)
    zero = field.zero_v
    return AlgElem(field, monoid, {m: v for m, v in acc.items() if v != zero})


class AlgElem:
    """One element of K[M], finitely supported: `terms` maps each support
    element to its raw field value, never zero; coeff(m) is the Scalar."""

    __slots__ = ("field", "monoid", "terms")

    def __init__(self, field, monoid, terms):
        # terms must already be normalized: no zero coefficients
        self.field = field
        self.monoid = monoid
        self.terms = terms

    def support(self):
        return tuple(canonical_sorted(self.terms))

    def is_zero(self):
        return not self.terms

    def coeff(self, m):
        return Scalar(self.field, self.terms.get(m, self.field.zero_v))

    def __add__(self, other):
        if not isinstance(other, AlgElem):
            return NotImplemented
        _check_carriers(self, other)
        return _collect(self.field, self.monoid,
                        chain(self.terms.items(), other.terms.items()))

    def __neg__(self):
        neg = self.field.neg_v
        return AlgElem(self.field, self.monoid,
                       {m: neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, AlgElem):
            return NotImplemented
        return self + (-other)

    def scale(self, scalar):
        if not isinstance(scalar, Scalar):
            raise ValidationError("scale expects a field scalar")
        _check_field(self.field, scalar)
        mul, a = self.field.mul_v, scalar.v
        return _collect(self.field, self.monoid,
                        ((m, mul(a, c)) for m, c in self.terms.items()))

    def __mul__(self, other):
        if not isinstance(other, AlgElem):
            return NotImplemented
        _check_carriers(self, other)
        return _collect(self.field, self.monoid,
                        _products(self.field, self.terms, other.terms))

    def __eq__(self, other):
        if not isinstance(other, AlgElem):
            return NotImplemented
        return (self.terms == other.terms and self.field is other.field
                and self.monoid is other.monoid)

    __hash__ = None

    def __str__(self):
        if not self.terms:
            return "0"
        field = self.field
        parts = []
        for m in canonical_sorted(self.terms):
            c = self.terms[m]
            if c == field.one_v:
                parts.append(str(m))
            else:
                cs = field.literal_of_v(c)
                if "+" in cs or "-" in cs:
                    cs = f"({cs})"
                parts.append(f"{cs}*{m}")
        return " + ".join(parts)

    def __repr__(self):
        return f"AlgElem({self})"


def alg_zero(field, monoid):
    return AlgElem(field, monoid, {})


def alg_basis(field, monoid, m):
    return AlgElem(field, monoid, {m: field.one_v})


def alg_one(field, monoid):
    return alg_basis(field, monoid, monoid.identity)


def alg_from_terms(field, monoid, pairs):
    """Build from (element, scalar) pairs, accumulating and dropping zeros;
    a scalar from another field raises CarrierMismatch."""
    def raw():
        for m, c in pairs:
            _check_field(field, c)
            yield m, c.v
    return _collect(field, monoid, raw())


def _split_top_level(text, seps):
    """Split at top-level occurrences of any sep char, keeping the seps."""
    parts = []
    buf = ""
    depth = 0
    for ch in text:
        if ch == "(":
            depth += 1
            buf += ch
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced ')' in {text!r}")
            buf += ch
        elif depth == 0 and ch in seps:
            parts.append(buf)
            parts.append(ch)
            buf = ""
        else:
            buf += ch
    if depth != 0:
        raise ParseError(f"unbalanced '(' in {text!r}")
    parts.append(buf)
    return parts


def parse_alg_literal(text, monoid, field):
    """Parse the algebra literal grammar into an AlgElem."""
    s = "".join(text.split())
    if not s:
        raise ParseError("empty algebra literal")
    chunks = _split_top_level(s, "+-")
    # chunks alternate term, sign, term, ...: pair each term with the sign
    # before it ('+' if the literal starts with none); no term may be empty
    chunks = chunks[1:] if not chunks[0] else ["+"] + chunks
    terms = list(zip(chunks[::2], chunks[1::2]))
    if not all(term for _, term in terms):
        raise ParseError(f"dangling operator in {text!r}")
    pairs = []
    for sign, term in terms:
        if term == "0":
            continue
        parts = _split_top_level(term, "*")
        if len(parts) > 1:  # the coefficient ends at the last top-level '*'
            coeff_text, elem_text = "".join(parts[:-2]), parts[-1]
            if coeff_text.startswith("(") and coeff_text.endswith(")"):
                coeff_text = coeff_text[1:-1]
            if not coeff_text or not elem_text:
                raise ParseError(f"bad term {term!r}")
            coeff = field.parse_literal(coeff_text)
        else:
            coeff, elem_text = field.one, term
        if sign == "-":
            coeff = -coeff
        elem = monoid.parse_element(elem_text)
        pairs.append((elem, coeff))
    return alg_from_terms(field, monoid, pairs)


class AlgMatrix:
    """A d x d matrix over K[M]."""

    __slots__ = ("field", "monoid", "d", "entries", "_supp")

    def __init__(self, field, monoid, entries):
        entries = tuple(tuple(row) for row in entries)
        d = len(entries)
        if d == 0 or any(len(row) != d for row in entries):
            raise ValidationError("matrix must be square and nonempty")
        self.field = field
        self.monoid = monoid
        for row in entries:
            for e in row:
                if not isinstance(e, AlgElem):
                    raise ValidationError("matrix entries must be AlgElem")
                _check_carriers(self, e)
        self.d = d
        self.entries = entries
        self._supp = None

    def support(self):
        """Union of entry supports, canonically sorted."""
        if self._supp is None:
            acc = set()
            for row in self.entries:
                for e in row:
                    acc.update(e.terms)
            self._supp = tuple(canonical_sorted(acc))
        return self._supp

    def __add__(self, other):
        if not isinstance(other, AlgMatrix):
            return NotImplemented
        self._check(other)
        return AlgMatrix(self.field, self.monoid,
                         [[self.entries[i][j] + other.entries[i][j]
                           for j in range(self.d)] for i in range(self.d)])

    def scale(self, scalar):
        return AlgMatrix(self.field, self.monoid,
                         [[e.scale(scalar) for e in row] for row in self.entries])

    def _check(self, other):
        if self.d != other.d:
            raise CarrierMismatch(f"dimension mismatch: {self.d} vs {other.d}")
        _check_carriers(self, other)

    def __mul__(self, other):
        if not isinstance(other, AlgMatrix):
            return NotImplemented
        self._check(other)
        field, monoid, d = self.field, self.monoid, self.d
        a, b = self.entries, other.entries
        return AlgMatrix(field, monoid, [
            [_collect(field, monoid, chain.from_iterable(
                _products(field, a[i][k].terms, b[k][j].terms) for k in range(d)))
             for j in range(d)]
            for i in range(d)])

    def __eq__(self, other):
        if not isinstance(other, AlgMatrix):
            return NotImplemented
        return (self.d == other.d and self.field is other.field
                and self.monoid is other.monoid and self.entries == other.entries)

    __hash__ = None

    def is_zero(self):
        return all(e.is_zero() for row in self.entries for e in row)

    def __str__(self):
        return serialize_matrix(self).rstrip("\n")

    def __repr__(self):
        return f"AlgMatrix(d={self.d}, {self.field.name()}[{self.monoid.spec_string()}])"


def mat_identity(field, monoid, d):
    one = alg_one(field, monoid)
    zero = alg_zero(field, monoid)
    return AlgMatrix(field, monoid,
                     [[one if i == j else zero for j in range(d)] for i in range(d)])


def mat_zero(field, monoid, d):
    zero = alg_zero(field, monoid)
    return AlgMatrix(field, monoid, [[zero] * d for _ in range(d)])


def mat_from_entries(field, monoid, entries):
    return AlgMatrix(field, monoid, entries)


def parse_matrix_text(text, monoid, field):
    """Matrix file format: first line d, then d lines of d literals split on ';'."""
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError("empty matrix file")
    first_no, first = lines[0]
    try:
        d = int(first)
    except ValueError:
        raise ParseError(f"first line must be the dimension, got {first!r}",
                         line=first_no) from None
    if d < 1:
        raise ParseError(f"dimension must be >= 1, got {d}", line=first_no)
    if len(lines) != d + 1:
        raise ParseError(f"expected {d} rows after the dimension, got {len(lines) - 1}")
    rows = []
    for r, ln in lines[1:]:
        cells = ln.split(";")
        if len(cells) != d:
            raise ParseError(f"row has {len(cells)} entries, expected {d}", line=r)
        rows.append([_on_line(r, parse_alg_literal, c.strip(), monoid, field)
                     for c in cells])
    return AlgMatrix(field, monoid, rows)


def serialize_matrix(mat):
    lines = [str(mat.d)]
    for row in mat.entries:
        lines.append(" ; ".join(str(e) for e in row))
    return "\n".join(lines) + "\n"
