"""Monoid carriers: finite multiplication tables, cyclic groups, the
two-generator monoid with pq = 1, and free commutative monoids.

Canonical forms are hashable keys (table index, exponent, exponent pair,
exponent vector).  Sorting by key is the canonical element order used for
deterministic iteration and witness selection throughout the package.

Factories return one object per monoid, interned by key and printed label,
and `Monoid.elem` one object per element, so carriers and elements compare
and hash by identity (neither class defines __eq__ or __hash__).  A
relabelled table (a table:PATH file with the rows of enumerate_monoids(3)[k],
say) is a new monoid, and mixing the two raises CarrierMismatch.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .errors import CarrierMismatch, NotFinite, ParseError, ValidationError, _DIGITS, _content_lines

__all__ = [
    "Elem",
    "Monoid",
    "TableMonoid",
    "CyclicMonoid",
    "BicyclicMonoid",
    "FreeCommMonoid",
    "bicyclic",
    "cyclic",
    "free_commutative",
    "table_monoid",
    "parse_monoid_spec",
    "parse_table_text",
    "serialize_table",
    "product_set",
    "canonical_sorted",
    "monoid_directly_finite",
    "enumerate_monoids",
    "DirectFiniteness",
]

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


class Elem:
    """An element in canonical form, tied to its monoid."""

    __slots__ = ("monoid", "key")

    def __init__(self, monoid, key):
        self.monoid = monoid
        self.key = key

    def __mul__(self, other):
        if not isinstance(other, Elem):
            return NotImplemented
        m = self.monoid
        if other.monoid is not m:
            raise CarrierMismatch(
                f"mixed monoids: {m.spec_string()} vs {other.monoid.spec_string()}")
        return m.elem(m.mul_key(self.key, other.key))

    def __str__(self):
        return self.monoid.elem_name(self.key)

    def __repr__(self):
        return f"<{self} in {self.monoid.spec_string()}>"


class Monoid:
    order = None  # None means infinite
    _elements = None

    def elem(self, key):
        got = self._cache.get(key)
        if got is None:
            got = Elem(self, key)
            self._cache[key] = got
        return got

    @property
    def identity(self):
        return self.elem(self.identity_key())

    def is_finite(self):
        return self.order is not None

    def elements(self):
        """All elements in canonical order, identity first; one tuple, built once; finite only."""
        if self.order is None:
            raise NotFinite(f"{self.spec_string()} is infinite")
        if self._elements is None:
            self._elements = tuple(map(self.elem, range(self.order)))
        return self._elements

    def __repr__(self):
        return f"<monoid {self.spec_string()}>"


def _associativity_failure(rows):
    """The first index triple (i, j, k) with (ij)k != i(jk), or None."""
    n = len(rows)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if rows[rows[i][j]][k] != rows[i][rows[j][k]]:
                    return i, j, k
    return None


class TableMonoid(Monoid):
    """Finite monoid given by a full multiplication table.

    The identity must be the element at index 0; names must be simple
    identifiers so they cannot collide with the literal grammar.
    """

    def __init__(self, names, rows, label=None):
        names = tuple(names)
        rows = tuple(tuple(r) for r in rows)
        n = len(names)
        if n == 0:
            raise ValidationError("empty element list")
        if len(set(names)) != n:
            raise ValidationError("duplicate element names", witness=names)
        for nm in names:
            if not _NAME_RE.fullmatch(nm):
                raise ValidationError(
                    f"bad element name {nm!r}; need an identifier", witness=nm)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValidationError(f"table must be {n}x{n}")
        for r in rows:
            for v in r:
                if not 0 <= v < n:
                    raise ValidationError(f"table entry {v} out of range")
        for j in range(n):
            if rows[0][j] != j or rows[j][0] != j:
                raise ValidationError(
                    f"element {names[0]!r} (first listed) is not an identity",
                    witness=names[j])
        bad = _associativity_failure(rows)
        if bad is not None:
            raise ValidationError("not associative",
                                  witness=tuple(names[i] for i in bad))
        self.names = names
        self.rows = rows
        self.order = n
        self.label = label or "table"
        self._index = {nm: i for i, nm in enumerate(names)}
        self._cache = {}

    def key(self):
        return ("table", self.names, self.rows)

    def spec_string(self):
        return self.label

    def identity_key(self):
        return 0

    def mul_key(self, a, b):
        return self.rows[a][b]

    def elem_name(self, k):
        return self.names[k]

    def parse_element(self, tok):
        i = self._index.get(tok.strip())
        if i is None:
            raise ParseError(f"unknown element {tok!r} in {self.spec_string()}")
        return self.elem(i)


class CyclicMonoid(Monoid):
    """The cyclic group of order n, generator g."""

    def __init__(self, n):
        if n < 1:
            raise ValidationError(f"cyclic order must be >= 1, got {n}")
        self.n = n
        self.order = n
        self._cache = {}

    def key(self):
        return ("cyclic", self.n)

    def spec_string(self):
        return f"cyclic:{self.n}"

    def identity_key(self):
        return 0

    def mul_key(self, a, b):
        return (a + b) % self.n

    def elem_name(self, k):
        if k == 0:
            return "1"
        if k == 1:
            return "g"
        return f"g^{k}"

    def parse_element(self, tok):
        s = tok.strip()
        if s in ("1", "e"):
            return self.elem(0)
        m = re.fullmatch(rf"g(?:\^?({_DIGITS}))?", s)
        if not m:
            raise ParseError(f"unknown element {tok!r} in {self.spec_string()}")
        k = int(m.group(1)) if m.group(1) is not None else 1
        return self.elem(k % self.n)


class BicyclicMonoid(Monoid):
    """Generators p, q with pq = 1; canonical form q^a p^b."""

    def __init__(self):
        self._cache = {}

    def key(self):
        return ("bicyclic",)

    def spec_string(self):
        return "bicyclic"

    def identity_key(self):
        return (0, 0)

    def mul_key(self, x, y):
        a, b = x
        c, d = y
        m = b if b < c else c
        return (a + c - m, b + d - m)

    def elem_name(self, k):
        a, b = k
        if a == 0 and b == 0:
            return "1"
        out = ""
        if a:
            out += f"q^{a}"
        if b:
            out += f"p^{b}"
        return out

    @property
    def p(self):
        return self.elem((0, 1))

    @property
    def q(self):
        return self.elem((1, 0))

    def parse_element(self, tok):
        s = tok.strip()
        if s == "1":
            return self.elem((0, 0))
        if not re.fullmatch(rf"(?:[pq](?:\^{_DIGITS})?)+", s):
            raise ParseError(f"unknown element {tok!r} in bicyclic")
        key = (0, 0)
        for gen, exp in re.findall(r"([pq])(?:\^([0-9]+))?", s):
            e = int(exp) if exp else 1
            part = (e, 0) if gen == "q" else (0, e)
            key = self.mul_key(key, part)
        return self.elem(key)


class FreeCommMonoid(Monoid):
    """Free commutative monoid on generators x1..xr; keys are exponent vectors."""

    def __init__(self, rank):
        if rank < 1:
            raise ValidationError(f"rank must be >= 1, got {rank}")
        self.rank = rank
        self._cache = {}

    def key(self):
        return ("freecomm", self.rank)

    def spec_string(self):
        return f"freecomm:{self.rank}"

    def identity_key(self):
        return (0,) * self.rank

    def mul_key(self, a, b):
        return tuple(a[i] + b[i] for i in range(self.rank))

    def elem_name(self, k):
        if not any(k):
            return "1"
        return "".join(f"x{i + 1}^{e}" for i, e in enumerate(k) if e)

    def generator(self, i):
        if not 1 <= i <= self.rank:
            raise ValidationError(f"no generator x{i}; rank is {self.rank}")
        return self.elem(tuple(1 if j == i - 1 else 0 for j in range(self.rank)))

    def parse_element(self, tok):
        s = tok.strip()
        if s == "1":
            return self.elem(self.identity_key())
        if not re.fullmatch(rf"(?:x{_DIGITS}(?:\^{_DIGITS})?)+", s):
            raise ParseError(f"unknown element {tok!r} in {self.spec_string()}")
        exps = [0] * self.rank
        for idx, exp in re.findall(r"x([0-9]+)(?:\^([0-9]+))?", s):
            i = int(idx)
            if not 1 <= i <= self.rank:
                raise ParseError(f"generator x{i} out of range in {tok!r}")
            exps[i - 1] += int(exp) if exp else 1
        return self.elem(tuple(exps))


_MONOIDS = {}


def _intern(monoid):
    # the label is printed, so it is part of the carrier's identity
    return _MONOIDS.setdefault((monoid.key(), monoid.spec_string()), monoid)


def bicyclic():
    return _intern(BicyclicMonoid())


def cyclic(n):
    return _intern(CyclicMonoid(n))


def free_commutative(rank):
    return _intern(FreeCommMonoid(rank))


def table_monoid(names, rows, label=None):
    return _intern(TableMonoid(names, rows, label=label))


def canonical_sorted(elems):
    return sorted(elems, key=lambda e: e.key)


def product_set(S, T):
    """All products s*t for s in S, t in T, deduplicated and sorted."""
    T = tuple(T)  # read once, so T may be a generator
    return tuple(canonical_sorted({s * t for s in S for t in T}))


@dataclass(frozen=True)
class DirectFiniteness:
    ok: bool
    witness: tuple | None  # (a, b) with a*b = 1 but b*a != 1

    def __bool__(self):
        return self.ok


def monoid_directly_finite(monoid):
    """Exhaustive check that a*b = 1 forces b*a = 1; finite monoids only.
    The planned callers are the scans of ROADMAP items 12 and 13."""
    one = monoid.identity
    els = monoid.elements()
    for a in els:
        for b in els:
            if a * b == one and b * a != one:
                return DirectFiniteness(False, (a, b))
    return DirectFiniteness(True, None)


_ENUM_NAMES = ("e", "a", "b")


def enumerate_monoids(n):
    """Every monoid table on n labeled elements with identity first, n <= 3.

    No deduplication up to isomorphism; the order is the lexicographic order
    of the free (non-identity) block, row-major, so output is deterministic.
    """
    if not 1 <= n <= 3:
        raise ValidationError(f"order must be in 1..3, got {n}")
    names = _ENUM_NAMES[:n]
    out = []
    m = n - 1
    for block in itertools.product(range(n), repeat=m * m):
        rows = [[0] * n for _ in range(n)]
        for j in range(n):
            rows[0][j] = j
            rows[j][0] = j
        for i in range(m):
            for j in range(m):
                rows[i + 1][j + 1] = block[i * m + j]
        if _associativity_failure(rows) is None:
            out.append(table_monoid(names, rows, label=f"table{n}#{len(out)}"))
    return out


def parse_table_text(text, label=None):
    """Parse the table file format:

        elements: e a b
        row: e a b
        row: a b e
        row: b e a

    Row x lists the products (row element)*(column element) by name; the
    first listed element is the identity.
    """
    names = None
    rows = []
    for lineno, line in _content_lines(text):
        if line.startswith("elements:"):
            if names is not None:
                raise ParseError("duplicate elements line", line=lineno)
            names = line[len("elements:"):].split()
            if not names:
                raise ParseError("empty element list", line=lineno)
        elif line.startswith("row:"):
            if names is None:
                raise ParseError("row before elements line", line=lineno)
            toks = line[len("row:"):].split()
            if len(toks) != len(names):
                raise ParseError(
                    f"row has {len(toks)} entries, expected {len(names)}",
                    line=lineno)
            idx = {nm: i for i, nm in enumerate(names)}
            try:
                rows.append([idx[t] for t in toks])
            except KeyError as e:
                raise ParseError(f"unknown element {e.args[0]!r} in row",
                                 line=lineno) from None
        else:
            raise ParseError(f"unrecognized line {line!r}", line=lineno)
    if names is None:
        raise ParseError("missing elements line")
    if len(rows) != len(names):
        raise ParseError(f"expected {len(names)} rows, got {len(rows)}")
    return table_monoid(names, rows, label=label)


def serialize_table(monoid):
    """Render any finite monoid in the table file format.

    Element names that would not survive re-parsing (cyclic's "g^2", say)
    are replaced by m0, m1, ... so the output always round-trips.
    """
    els = monoid.elements()
    names = [str(e) for e in els]
    if not all(_NAME_RE.fullmatch(nm) for nm in names) or len(set(names)) != len(names):
        names = [f"m{i}" for i in range(len(els))]
    pos = {e: i for i, e in enumerate(els)}
    lines = ["elements: " + " ".join(names)]
    for x in els:
        lines.append("row: " + " ".join(names[pos[x * y]] for y in els))
    return "\n".join(lines) + "\n"


def parse_monoid_spec(spec):
    """CLI monoid spec: bicyclic | cyclic:n | freecomm:r | table:PATH."""
    s = spec.strip()
    if s == "bicyclic":
        return bicyclic()
    m = re.fullmatch(f"cyclic:({_DIGITS})", s)
    if m:
        return cyclic(int(m.group(1)))
    m = re.fullmatch(f"freecomm:({_DIGITS})", s)
    if m:
        return free_commutative(int(m.group(1)))
    m = re.fullmatch(r"table:(.+)", s)
    if m:
        path = m.group(1)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            raise ParseError(f"cannot read table file {path!r}: {e}") from None
        return parse_table_text(text, label=f"table:{path}")
    raise ParseError(f"bad monoid spec {spec!r}")
