"""Patterns: partial configurations on a monoid, with symbol or vector values.

A pattern assigns to each site of a finite domain either a symbol from a
finite alphabet or a vector of d field scalars.  Convolving a vector pattern
with an algebra element (or a matrix of them) evaluates

    (c * alpha)(m) = sum over s in supp(alpha) of c(s*m) * alpha_s
    (c * A)_j(m)   = sum over i, s of c_i(s*m) * A[i][j]_s

on a requested output window; the sites needed for a window W and support S
are exactly product_set(S, W).  Sites are read directly; only when a read
fails are the missing ones collected, into an error that names them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AlgMatrix, _check_carriers
from .errors import (CarrierMismatch, DomainError, NotFinite, ParseError, ValidationError,
                     _bindings, _on_line)
from .fields import Scalar, random_scalar
from .monoids import canonical_sorted, product_set

__all__ = [
    "SymbolAlphabet",
    "Pattern",
    "vector_pattern",
    "random_vector_pattern",
    "indicator_pattern",
    "pattern_add",
    "pattern_scale",
    "required_domain",
    "convolve_scalar",
    "convolve_matrix",
    "parse_symbol_pattern",
    "parse_vector_pattern",
    "serialize_pattern",
]


@dataclass(frozen=True)
class SymbolAlphabet:
    """The alphabet {0, ..., size-1}."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValidationError(f"alphabet size must be >= 1, got {self.size}")

    def check(self, sym):
        if not (isinstance(sym, int) and 0 <= sym < self.size):
            raise ValidationError(f"symbol {sym!r} outside alphabet of size {self.size}")


class Pattern:
    __slots__ = ("monoid", "kind", "alphabet", "field", "d", "values")

    def __init__(self, monoid, kind, values, alphabet=None, field=None, d=None):
        self.monoid = monoid
        self.kind = kind
        self.alphabet = alphabet
        self.field = field
        self.d = d
        self.values = values

    def domain(self):
        return tuple(canonical_sorted(self.values))

    def value(self, site):
        got = self.values.get(site)
        if got is None:
            raise DomainError([site], "pattern undefined at site")
        return got

    def missing_error(self, sites, message):
        """The DomainError naming each of `sites` outside the domain, once,
        in canonical order."""
        return DomainError(canonical_sorted({s for s in sites if s not in self.values}),
                           message)

    def restrict(self, sites):
        sites = list(sites)
        try:
            vals = {s: self.values[s] for s in sites}
        except KeyError:
            raise self.missing_error(sites, "restriction outside pattern domain") from None
        return Pattern(self.monoid, self.kind, vals,
                       alphabet=self.alphabet, field=self.field, d=self.d)

    def shift(self, m, candidates=None):
        """The pattern x -> self(x*m), defined where x*m lands in the domain.

        For an infinite monoid the candidate sites to examine must be given
        explicitly; for a finite one they default to every element.
        """
        if candidates is None:
            if not self.monoid.is_finite():
                raise NotFinite(
                    "shift over an infinite monoid needs an explicit candidate site set")
            candidates = self.monoid.elements()
        vals = {}
        for x in candidates:
            y = x * m
            if y in self.values:
                vals[x] = self.values[y]
        return Pattern(self.monoid, self.kind, vals,
                       alphabet=self.alphabet, field=self.field, d=self.d)

    def __eq__(self, other):
        if not isinstance(other, Pattern):
            return NotImplemented
        return (self.kind == other.kind and self.monoid is other.monoid
                and self.alphabet == other.alphabet and self.field is other.field
                and self.d == other.d and self.values == other.values)

    __hash__ = None

    def __str__(self):
        return serialize_pattern(self).rstrip("\n")

    def __repr__(self):
        return f"Pattern({self.kind}, {len(self.values)} sites)"


def vector_pattern(monoid, field, d, mapping):
    if d < 1:
        raise ValidationError(f"vector dimension must be >= 1, got {d}")
    vals = {}
    for site, vec in mapping.items():
        vec = tuple(vec)
        if len(vec) != d:
            raise ValidationError(f"value at {site} has length {len(vec)}, expected {d}")
        for c in vec:
            if c.field is not field:
                raise CarrierMismatch("vector entry from a different field")
        vals[site] = vec
    return Pattern(monoid, "vector", vals, field=field, d=d)


def random_vector_pattern(rng, monoid, field, d, sites):
    vals = {s: tuple(random_scalar(rng, field) for _ in range(d)) for s in sites}
    return vector_pattern(monoid, field, d, vals)


def indicator_pattern(monoid, field, d, domain, component, site):
    """All zeros on `domain` except a 1 in `component` at `site`."""
    vals = {}
    zero_vec = (field.zero,) * d
    for m in domain:
        vals[m] = zero_vec
    if site not in vals:
        raise ValidationError(f"site {site} not in the indicator domain")
    vec = list(zero_vec)
    vec[component] = field.one
    vals[site] = tuple(vec)
    return Pattern(monoid, "vector", vals, field=field, d=d)


def _check_vector(c, other, what):
    if c.kind != "vector":
        raise ValidationError(f"{what} needs a vector pattern")
    _check_carriers(c, other)


def pattern_add(a, b):
    if a.kind != "vector" or b.kind != "vector":
        raise ValidationError("pattern_add needs vector patterns")
    if a.values.keys() != b.values.keys() or a.d != b.d or a.field is not b.field:
        raise CarrierMismatch("pattern_add needs equal domains and carriers")
    vals = {m: tuple(x + y for x, y in zip(a.values[m], b.values[m]))
            for m in a.values}
    return Pattern(a.monoid, "vector", vals, field=a.field, d=a.d)


def pattern_scale(c, scalar):
    if c.kind != "vector":
        raise ValidationError("pattern_scale needs a vector pattern")
    vals = {m: tuple(scalar * x for x in vec) for m, vec in c.values.items()}
    return Pattern(c.monoid, "vector", vals, field=c.field, d=c.d)


def required_domain(window, support):
    """Sites a convolution with this support reads to fill this window."""
    return product_set(support, window)


def convolve_scalar(c, alpha, window):
    """(c * alpha) on `window` for a d=1 vector pattern c: convolve_matrix
    with the 1x1 matrix [alpha]."""
    _check_vector(c, alpha, "convolve_scalar")
    if c.d != 1:
        raise ValidationError("convolve_scalar needs d = 1; use convolve_matrix")
    return convolve_matrix(c, AlgMatrix(alpha.field, alpha.monoid, [[alpha]]), window)


def convolve_matrix(c, mat, window):
    """(c * A) on `window`; c has d components matching the matrix size."""
    _check_vector(c, mat, "convolve_matrix")
    if c.d != mat.d:
        raise CarrierMismatch(f"pattern has d={c.d}, matrix is {mat.d}x{mat.d}")
    supp = mat.support()
    window = list(window)
    field = mat.field
    d = mat.d
    add, mul, zero = field.add_v, field.mul_v, field.zero_v
    vals = {}
    try:
        for m in window:
            comps = [zero] * d
            for s in supp:
                cv = c.values[s * m]
                for i in range(d):
                    ci = cv[i].v
                    if ci == zero:
                        continue
                    row = mat.entries[i]
                    for j in range(d):
                        co = row[j].terms.get(s)
                        if co is not None:
                            comps[j] = add(comps[j], mul(ci, co))
            vals[m] = tuple(Scalar(field, v) for v in comps)
    except KeyError:
        raise c.missing_error((s * m for s in supp for m in window),
                              "convolution needs undefined sites") from None
    return Pattern(c.monoid, "vector", vals, field=field, d=d)


def parse_symbol_pattern(text, monoid, alphabet):
    """Pattern file lines: `site := symbol`."""
    vals = {}
    for lineno, site, value in _bindings(text, monoid.parse_element, "site"):
        try:
            sym = int(value)
        except ValueError:
            raise ParseError(f"bad symbol {value!r}", line=lineno) from None
        try:
            alphabet.check(sym)
        except ValidationError as e:
            raise ParseError(str(e), line=lineno) from None
        vals[site] = sym
    return Pattern(monoid, "symbol", vals, alphabet=alphabet)


def parse_vector_pattern(text, monoid, field):
    """Pattern file lines: `site := scalar, ..., scalar`."""
    vals = {}
    d = None
    for lineno, site, value in _bindings(text, monoid.parse_element, "site"):
        vec = tuple(_on_line(lineno, field.parse_literal, part.strip())
                    for part in value.split(","))
        if d is None:
            d = len(vec)
        elif len(vec) != d:
            raise ParseError(f"value has {len(vec)} components, expected {d}",
                             line=lineno)
        vals[site] = vec
    if d is None:
        raise ParseError("empty pattern file")
    return Pattern(monoid, "vector", vals, field=field, d=d)


def serialize_pattern(pattern):
    lines = []
    for site in pattern.domain():
        v = pattern.values[site]
        if pattern.kind == "symbol":
            lines.append(f"{site} := {v}")
        else:
            lines.append(f"{site} := " + ",".join(str(x) for x in v))
    return "\n".join(lines) + "\n"
