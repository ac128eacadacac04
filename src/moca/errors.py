"""Shared exception types.

Every failure the library can diagnose carries enough payload to print a
useful witness (the offending triple, the missing sites, the reducible
factor) instead of a bare message.
"""

from __future__ import annotations

__all__ = [
    "MocaError",
    "ParseError",
    "CarrierMismatch",
    "NotFinite",
    "BudgetExceeded",
    "DomainError",
    "ValidationError",
]


class MocaError(Exception):
    """Base class for all library errors."""


class ParseError(MocaError):
    """Malformed textual input; carries the line number when known."""

    def __init__(self, message, line=None):
        self.message = message
        self.line = line
        super().__init__(str(self))

    def __str__(self):
        where = "" if self.line is None else f" (line {self.line})"
        return f"{self.message}{where}"


class CarrierMismatch(MocaError):
    """Operands live over different fields, monoids, or dimensions."""


class NotFinite(MocaError):
    """A finite monoid or finite field was required."""


class BudgetExceeded(MocaError):
    """An exhaustive scan would overrun the configured budget.

    `required` is the pair (base, exponent) that the message renders as
    `base^exponent`; `.required` is the size as an int, formed only when read.
    """

    def __init__(self, required, budget, what):
        self._required = required
        self.budget = budget
        self.what = what
        super().__init__(f"{what} of size {'^'.join(map(str, required))} "
                         f"exceeds budget {budget}")

    @property
    def required(self):
        base, exponent = self._required
        return base ** exponent


def _content_lines(text):
    """(line number, stripped line) for each line that is neither blank nor
    a `#` comment, numbered as in the file so a ParseError can point at it."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _bindings(text, parse_name, what):
    """(line number, parsed name, value text) per `name := value` line; a
    line without `:=`, a name that does not parse, or a name parsed to a key
    seen before (`g` then `g^4` on cyclic:3) is a ParseError on its line."""
    seen = set()
    for lineno, line in _content_lines(text):
        left, sep, value = line.partition(":=")
        if not sep:
            raise ParseError(f"expected '{what} := value', got {line!r}",
                             line=lineno)
        name = _on_line(lineno, parse_name, left.strip())
        if name in seen:
            raise ParseError(f"duplicate {what} {left.strip()!r}", line=lineno)
        seen.add(name)
        yield lineno, name, value.strip()


def _on_line(lineno, parse, *args):
    """parse(*args), with a ParseError it raises tagged with the line number."""
    try:
        return parse(*args)
    except ParseError as e:
        raise ParseError(e.message, line=lineno) from None


def _check_space(base, exponent, budget, what):
    """base**exponent, or BudgetExceeded naming the space as base^exponent.

    An oversize space is never formed: for base >= 2, every exponent above
    the bit length of the budget already exceeds it.
    """
    if base >= 2 and exponent > max(budget, 1).bit_length():
        raise BudgetExceeded((base, exponent), budget, what)
    size = base ** exponent
    if size > budget:
        raise BudgetExceeded((base, exponent), budget, what)
    return size


class DomainError(MocaError):
    """A pattern is not defined on every site an operation needs."""

    def __init__(self, missing, message="pattern undefined on required sites"):
        # missing: sorted list of monoid elements
        self.missing = list(missing)
        names = ", ".join(str(m) for m in self.missing)
        super().__init__(f"{message}: {names}")


class ValidationError(MocaError):
    """Structurally invalid input; `witness` pinpoints the violation."""

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)
