"""Cellular automata on a monoid universe with a finite symbol alphabet.

A rule is a memory tuple S of monoid elements plus a lookup table for the
local map A^S -> A.  Indexing is mixed-radix with the first memory
coordinate most significant, and the same convention encodes full
configurations over a finite monoid (site order = canonical element order),
so a rule whose memory is the whole monoid reads a configuration index
directly.

Applying a rule: tau(c)(m) = table[ local pattern s -> c(s*m) ].  Composing
two rules gives memory product_set(S_inner, S_outer) and the local map that
first evaluates the inner rule at every outer memory site.

Global maps read cached plans of local-index columns (_plan); the scans
add packed lane weights instead (_bijections).

A rule maps constant configurations to constants, tau(x)(m) = table[x *
(a^k - 1) / (a - 1)] at every site m, so an injective rule permutes the
alphabet on these diagonal entries; the scans skip every other table.
"""

from __future__ import annotations

import functools
import itertools
import operator
import struct
from array import array
from dataclasses import dataclass

from .errors import (CarrierMismatch, NotFinite, ParseError, ValidationError, _check_space,
                     _content_lines)
from .fields import decode_digits, encode_digits
from .monoids import product_set
from .patterns import Pattern, SymbolAlphabet

__all__ = [
    "CARule",
    "ca_apply",
    "compose_rules",
    "minimal_memory",
    "full_map",
    "decode_config",
    "injectivity",
    "surjectivity",
    "left_inverse",
    "surjunctivity_scan",
    "direct_finiteness_scan",
    "parse_rule_text",
    "serialize_rule",
    "InjectivityVerdict",
    "SurjectivityVerdict",
    "ScanReport",
    "DEFAULT_CONFIG_BUDGET",
    "DEFAULT_RULE_BUDGET",
]

DEFAULT_CONFIG_BUDGET = 2**20
DEFAULT_RULE_BUDGET = 2**16


@dataclass(frozen=True)
class CARule:
    monoid: object
    alphabet: SymbolAlphabet
    memory: tuple
    table: tuple

    def __post_init__(self):
        mem = tuple(self.memory)
        tab = tuple(self.table)
        object.__setattr__(self, "memory", mem)
        object.__setattr__(self, "table", tab)
        if len({e.key for e in mem}) != len(mem):
            raise ValidationError("memory set has repeated canonical forms", witness=mem)
        if any(e.monoid is not self.monoid for e in mem):
            raise CarrierMismatch("memory element from a different monoid")
        a = self.alphabet.size
        if len(tab) != a ** len(mem):
            raise ValidationError(
                f"table has {len(tab)} entries, expected {a ** len(mem)}")
        for v in tab:
            self.alphabet.check(v)

    @classmethod
    def _trusted(cls, monoid, alphabet, memory, table):
        """A rule from tuples derived from checked rules, not checked again."""
        rule = object.__new__(cls)
        rule.__dict__.update(monoid=monoid, alphabet=alphabet, memory=memory, table=table)
        return rule

    def local(self, digits):
        """Evaluate the local map on symbols listed in memory order."""
        return self.table[encode_digits(digits, self.alphabet.size)]

    def __repr__(self):
        mem = ",".join(str(e) for e in self.memory)
        return f"CARule(|A|={self.alphabet.size}, S=[{mem}])"


def ca_apply(rule, pattern, window):
    if pattern.kind != "symbol":
        raise ValidationError("ca_apply needs a symbol pattern")
    if pattern.alphabet != rule.alphabet:
        raise CarrierMismatch("pattern alphabet differs from rule alphabet")
    if pattern.monoid is not rule.monoid:
        raise CarrierMismatch("pattern and rule over different monoids")
    window = list(window)
    try:
        vals = {m: rule.local([pattern.values[s * m] for s in rule.memory])
                for m in window}
    except KeyError:
        raise pattern.missing_error((s * m for s in rule.memory for m in window),
                                    "rule needs undefined sites") from None
    return Pattern(rule.monoid, "symbol", vals, alphabet=rule.alphabet)


def compose_rules(outer, inner, config_budget=DEFAULT_CONFIG_BUDGET):
    """The rule applying `inner` first and `outer` to the result."""
    if outer.monoid is not inner.monoid:
        raise CarrierMismatch("composing rules over different monoids")
    if outer.alphabet != inner.alphabet:
        raise CarrierMismatch("composing rules over different alphabets")
    a = outer.alphabet.size
    mem = _product_memory(inner.memory, outer.memory)
    size = _check_space(a, len(mem), config_budget, "composite rule table")
    # outer's local index at each composite pattern, then its output there
    outs = _image(_plan(a, inner.memory, outer.memory, mem), inner.table, a, size)
    return CARule._trusted(outer.monoid, outer.alphabet, mem,
                           tuple(map(outer.table.__getitem__, outs)))


# the composite memories of compose_rules, cached as its plans are
_product_memory = functools.lru_cache(maxsize=32)(product_set)


def minimal_memory(rule):
    """Coordinates the local map really reads, plus the reduced rule.

    A coordinate is kept iff two local patterns differing only there give
    different outputs.  Dropped coordinates are filled with symbol 0 when
    building the reduced table; the reduced rule is extensionally equal.
    """
    a, k, table = rule.alphabet.size, len(rule.memory), rule.table
    strides = [a ** (k - 1 - pos) for pos in range(k)]
    # keep pos iff zeroing its digit, li // st % a, changes some output
    keep = [pos for pos, st in enumerate(strides)
            if any(out != table[li - li // st % a * st] for li, out in enumerate(table))]
    mem = tuple(rule.memory[pos] for pos in keep)
    # the patterns that are 0 off `keep`, with the kept digits in lex order
    reduced = tuple(table[li] for li in _digit_sums([strides[pos] for pos in keep], a))
    return mem, CARule._trusted(rule.monoid, rule.alphabet, mem, reduced)


def _config_elements(monoid, alphabet, config_budget):
    """(elements, configuration count) of a finite monoid; the budget is
    checked from the order, before the element list is built."""
    if not monoid.is_finite():
        raise NotFinite(f"{monoid.spec_string()} is infinite")
    total = _check_space(alphabet.size, monoid.order, config_budget,
                         "configuration space")
    return monoid.elements(), total


def decode_config(monoid, alphabet, idx):
    els = monoid.elements()
    digits = decode_digits(idx, alphabet.size, len(els))
    return Pattern(monoid, "symbol", dict(zip(els, digits)), alphabet=alphabet)


_CACHED_PLAN_BYTES = 1 << 18  # larger plans are built per call, not cached
_PLANS = {}  # at most 32 cached plans, oldest first (ca-scan reuses 16)


def _plan(a, memory, sites, cells):
    """columns[t][c] = local index digit vector c over `cells` shows at site t
    (memory s read at cell s*t); cached if small; a^len(cells) is checked."""
    key, n = (a, memory, sites, cells), len(cells)
    columns = _PLANS.get(key)
    if columns is None:
        # digits[e][c] = digit of c at cell e, the first cell most significant
        digits = {e: array("B" if a <= 256 else "L",
                           [d for d in range(a) for _ in range(a ** (n - 1 - i))]) * a ** i
                  for i, e in enumerate(cells)}
        columns = [array("L", _image([digits[s * t] for s in memory], tuple(range(a)), a, a ** n))
                   for t in sites]
        if len(sites) * a ** n * 8 <= _CACHED_PLAN_BYTES:
            _PLANS[key] = columns
            if len(_PLANS) > 32:
                _PLANS.pop(next(iter(_PLANS)), None)
    return columns


def _image(columns, table, a, count):
    """Entry c of a table's image: sum_t table[columns[t][c]] * a^(len(columns)-1-t)."""
    out = (0,) * count
    for col in columns:
        out = [o * a + table[li] for o, li in zip(out, col)]
    return tuple(out)


def full_map(rule, config_budget=DEFAULT_CONFIG_BUDGET):
    """The induced map on configuration indices, as a tuple; finite only."""
    els, total = _config_elements(rule.monoid, rule.alphabet, config_budget)
    a = rule.alphabet.size
    return _image(_plan(a, rule.memory, els, els), rule.table, a, total)


@dataclass(frozen=True)
class InjectivityVerdict:
    ok: bool
    witness: tuple | None  # (pattern1, pattern2), least colliding pair

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class SurjectivityVerdict:
    ok: bool
    witness: object | None  # least configuration outside the image

    def __bool__(self):
        return self.ok


def _injectivity_of_map(rule, fmap):
    if len(set(fmap)) == len(fmap):
        return InjectivityVerdict(True, None)
    groups = {}
    for i, out in enumerate(fmap):
        groups.setdefault(out, []).append(i)
    colliding = [g for g in groups.values() if len(g) > 1]
    c1, c2 = min(colliding, key=lambda g: g[0])[:2]
    return InjectivityVerdict(False, (
        decode_config(rule.monoid, rule.alphabet, c1),
        decode_config(rule.monoid, rule.alphabet, c2)))


def injectivity(rule, config_budget=DEFAULT_CONFIG_BUDGET):
    return _injectivity_of_map(rule, full_map(rule, config_budget))


def surjectivity(rule, config_budget=DEFAULT_CONFIG_BUDGET):
    fmap = full_map(rule, config_budget)
    missed = next(itertools.filterfalse(set(fmap).__contains__, range(len(fmap))), None)
    if missed is None:
        return SurjectivityVerdict(True, None)
    return SurjectivityVerdict(False, decode_config(rule.monoid, rule.alphabet, missed))


def left_inverse(rule, config_budget=DEFAULT_CONFIG_BUDGET):
    """A rule sigma with memory the whole monoid and sigma(tau(c)) = c.

    Requires a finite monoid and an injective rule; the collision pair is
    the error witness otherwise.  On a finite configuration set an injective
    map is onto, so sigma is the two-sided inverse of tau.
    """
    els, _ = _config_elements(rule.monoid, rule.alphabet, config_budget)
    fmap = full_map(rule, config_budget)
    inj = _injectivity_of_map(rule, fmap)
    if not inj.ok:
        raise ValidationError("rule is not injective", witness=inj.witness)
    a = rule.alphabet.size
    top = a ** (len(els) - 1)  # stride of the identity site, listed first
    return CARule._trusted(rule.monoid, rule.alphabet, els,
                           tuple(pre // top % a for pre in _inverse_map(fmap)))


def _inverse_map(fmap):
    """The inverse of a bijective global map, as a tuple."""
    inv = [0] * len(fmap)
    for c, out in enumerate(fmap):
        inv[out] = c
    return tuple(inv)


@dataclass(frozen=True)
class ScanReport:
    total: int
    injective: int
    surjective: int
    ok: bool
    witness: object | None
    extra: dict


_HALF_TABLE_BYTES = 1 << 24  # lane bytes of the low-half sums held at once


def _digit_sums(weights, a):
    """sum_j d_j * weights[j] for each digit tuple d, in lexicographic order."""
    for digits in itertools.product(range(a), repeat=len(weights)):
        yield sum(map(operator.mul, digits, weights))


def _low_digits(a, length, nbytes):
    """Held trailing digits: half, or fewer if a^low maps pass the bound."""
    low = (length + 1) // 2
    while low and a ** low * nbytes > _HALF_TABLE_BYTES:
        low -= 1
    return low


def _bijections(monoid, alphabet, memory, rule_budget, config_budget):
    """(memory, rule count, bijections) over all rules on the memory set,
    where bijections maps each bijective global map to its (table index,
    table), in table order; distinct tables differ at the identity site.

    Injective = surjective = bijective here.  A rule's map in packed lanes
    is sum_li table[li] * W[li], W[li] the packed image of unit table li,
    summed as a meet in the middle (_permuting_sums); one set of the lanes,
    in C, decides each rule.  A rule maps the constant configuration x to
    the constant table[x * (a^k - 1) / (a - 1)], so only tables whose
    diagonal entries permute the alphabet can be injective, and only their
    lanes are packed.  Both budgets are checked before any plan or sum
    exists, configuration space first so that a^(a^|S|) is cheap."""
    els, configs = _config_elements(monoid, alphabet, config_budget)
    memory = els if memory is None else tuple(memory)
    a, length = alphabet.size, alphabet.size ** len(memory)
    count = _check_space(a, length, rule_budget, "rule space")
    if len(set(memory)) != len(memory):
        raise ValidationError("memory set has repeated canonical forms", witness=memory)
    columns = _plan(a, memory, els, els)
    code = next(c for c, w in zip("BHIQ", (1, 2, 4, 8)) if configs <= 1 << 8 * w)
    lanes = struct.Struct(f"<{configs}{code}")  # little-endian on every host
    units = ((0,) * li + (1,) + (0,) * (length - 1 - li) for li in range(length))
    weights = [int.from_bytes(lanes.pack(*_image(columns, u, a, configs)), "little")
               for u in units]
    bijections = {}
    for index, total in _permuting_sums(weights, a, len(memory),
                                        length - _low_digits(a, length, lanes.size)):
        packed = total.to_bytes(lanes.size, "little")
        # one byte per lane: the bytes are the map, so unpack none
        fmap = packed if code == "B" else lanes.unpack(packed)
        if len(set(fmap)) == configs:
            bijections[tuple(fmap)] = (index, tuple(decode_digits(index, a, length)))
    return memory, count, bijections


def _permuting_sums(weights, a, k, high):
    """(table index, sum_li table[li] * weights[li]) for each table over a
    memory of k sites whose diagonal entries permute the alphabet, in table
    (lex) order.  Each sum over the `high` leading digits meets only the
    held trailing-digit sums whose diagonal digits complete its own to a
    permutation; with fewer than a distinct diagonal entries none does."""
    diag = {encode_digits([x] * k, a) for x in range(a)}
    # strides of the diagonal digits in each half's digit-tuple index
    high_strides = [a ** (high - 1 - li) for li in diag if li < high]
    low_strides = [a ** (len(weights) - 1 - li) for li in diag if li >= high]
    completes = {}  # distinct low diagonal digits -> [(lo, low sum)] in lo order
    for lo, low_sum in enumerate(_digit_sums(weights[high:], a)):
        vals = frozenset(lo // st % a for st in low_strides)
        if len(vals) == len(low_strides):
            completes.setdefault(vals, []).append((lo, low_sum))
    symbols, lows = frozenset(range(a)), a ** (len(weights) - high)
    for hi, high_sum in enumerate(_digit_sums(weights[:high], a)):
        for lo, low_sum in completes.get(symbols - {hi // st % a for st in high_strides}, ()):
            yield hi * lows + lo, high_sum + low_sum


def surjunctivity_scan(monoid, alphabet, memory=None,
                       rule_budget=DEFAULT_RULE_BUDGET,
                       config_budget=DEFAULT_CONFIG_BUDGET):
    """Every rule over the memory set (default: the whole monoid): does
    injective imply surjective?  Returns counts; no rule can fail (see
    _bijections)."""
    memory, total, bijections = _bijections(monoid, alphabet, memory,
                                            rule_budget, config_budget)
    return ScanReport(total, len(bijections), len(bijections), True, None,
                      {"memory": memory,
                       "injective_tables": [t for _, t in bijections.values()]})


def direct_finiteness_scan(monoid, alphabet, memory=None,
                           rule_budget=DEFAULT_RULE_BUDGET,
                           config_budget=DEFAULT_CONFIG_BUDGET):
    """All ordered rule pairs over the memory set: does a one-sided identity
    force the two-sided one?  The witness, if any, is the least violating
    pair in table order.  The injective and surjective counts are both the
    number of bijective rules, as in surjunctivity_scan.

    The configuration space is finite, so sigma(tau(c)) = c for all c makes
    tau injective, hence bijective, and then sigma = tau^-1 is bijective as
    well.  So each bijective global map is inverted and paired with the
    rule whose map is that inverse: work linear in the rule count, with the
    same counts.  Each pair is re-checked apart from the maps that found
    it: both composites of its rules, by compose_rules, induce the identity.
    """
    memory, total, bijections = _bijections(monoid, alphabet, memory,
                                            rule_budget, config_budget)
    # (sigma entry, tau entry) for each tau whose inverse map has a rule
    found = [(bijections[inv], entry) for tmap, entry in bijections.items()
             if (inv := _inverse_map(tmap)) in bijections]
    identity = tuple(range(alphabet.size ** monoid.order))
    failures = []
    for (si, sigma), (ti, tau) in found:
        pair = tuple(CARule._trusted(monoid, alphabet, memory, t) for t in (sigma, tau))
        if any(full_map(compose_rules(*rules, config_budget),
                        config_budget) != identity
               for rules in (pair, pair[::-1])):
            failures.append(((si, ti), pair))
    witness = min(failures)[1] if failures else None
    return ScanReport(total, len(bijections), len(bijections), witness is None,
                      witness, {"pairs": total ** 2, "one_sided_identities": len(found)})


def parse_rule_text(text, monoid):
    """Rule file format:

        alphabet: 2
        memory: 1 g
        table: 0110

    The table lists outputs in mixed-radix order of the memory symbols,
    first memory site most significant.  Above 10 symbols the table line is
    always comma-separated, so there `10` is one entry.
    """
    got = {}
    for lineno, line in _content_lines(text):
        key, sep, body = line.partition(":")
        if not sep or key not in ("alphabet", "memory", "table"):
            raise ParseError(f"unrecognized line {line!r}", line=lineno)
        if key in got:
            raise ParseError(f"duplicate {key} line", line=lineno)
        body = body.strip()
        if key == "alphabet":
            try:
                got[key] = SymbolAlphabet(int(body))
            except ValueError:
                raise ParseError("bad alphabet size", line=lineno) from None
        elif key == "memory":
            got[key] = tuple(monoid.parse_element(t) for t in body.split())
        else:
            got[key] = lineno, body
    if len(got) != 3:
        raise ParseError("rule file needs alphabet, memory, and table lines")
    # read once the alphabet is known: above 10 symbols, `10` is one entry
    lineno, body = got["table"]
    entries = body.split(",") if got["alphabet"].size > 10 or "," in body else body
    try:
        table = tuple(map(int, entries))
    except ValueError:
        raise ParseError("bad table entry", line=lineno) from None
    try:
        return CARule(monoid, got["alphabet"], got["memory"], table)
    except ValidationError as e:
        raise ParseError(str(e)) from None


def serialize_rule(rule):
    sep = "," if rule.alphabet.size > 10 else ""
    return (f"alphabet: {rule.alphabet.size}\nmemory: {' '.join(map(str, rule.memory))}\n"
            f"table: {sep.join(map(str, rule.table))}\n")
