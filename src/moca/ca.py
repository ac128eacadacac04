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
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (CarrierMismatch, DomainError, NotFinite, ParseError, ValidationError,
                     _check_space, _content_lines)
from .fields import decode_digits
from .monoids import canonical_sorted, product_set
from .patterns import Pattern, SymbolAlphabet, required_domain

__all__ = [
    "CARule",
    "identity_rule",
    "constant_rule",
    "ca_apply",
    "compose_rules",
    "minimal_memory",
    "full_map",
    "decode_config",
    "encode_config",
    "injectivity",
    "surjectivity",
    "left_inverse",
    "all_rule_tables",
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
        for e in mem:
            if e.monoid is not self.monoid:
                raise CarrierMismatch("memory element from a different monoid")
        a = self.alphabet.size
        if len(tab) != a ** len(mem):
            raise ValidationError(
                f"table has {len(tab)} entries, expected {a ** len(mem)}")
        for v in tab:
            self.alphabet.check(v)

    def local(self, digits):
        """Evaluate the local map on symbols listed in memory order."""
        a = self.alphabet.size
        idx = 0
        for d in digits:
            idx = idx * a + d
        return self.table[idx]

    def __repr__(self):
        mem = ",".join(str(e) for e in self.memory)
        return f"CARule(|A|={self.alphabet.size}, S=[{mem}])"


def identity_rule(monoid, alphabet):
    return CARule(monoid, alphabet, (monoid.identity,), tuple(range(alphabet.size)))


def constant_rule(monoid, alphabet, sym):
    alphabet.check(sym)
    return CARule(monoid, alphabet, (), (sym,))


def ca_apply(rule, pattern, window):
    if pattern.kind != "symbol":
        raise ValidationError("ca_apply needs a symbol pattern")
    if pattern.alphabet != rule.alphabet:
        raise CarrierMismatch("pattern alphabet differs from rule alphabet")
    if pattern.monoid is not rule.monoid:
        raise CarrierMismatch("pattern and rule over different monoids")
    window = list(window)
    missing = [x for x in required_domain(window, rule.memory)
               if x not in pattern.values]
    if missing:
        raise DomainError(canonical_sorted(missing), "rule needs undefined sites")
    vals = {}
    for m in window:
        vals[m] = rule.local([pattern.values[s * m] for s in rule.memory])
    return Pattern(rule.monoid, "symbol", vals, alphabet=rule.alphabet)


def compose_rules(outer, inner, config_budget=DEFAULT_CONFIG_BUDGET):
    """The rule applying `inner` first and `outer` to the result."""
    if outer.monoid is not inner.monoid:
        raise CarrierMismatch("composing rules over different monoids")
    if outer.alphabet != inner.alphabet:
        raise CarrierMismatch("composing rules over different alphabets")
    a = outer.alphabet.size
    mem = product_set(inner.memory, outer.memory) if inner.memory and outer.memory else ()
    size = _check_space(a, len(mem), config_budget, "composite rule table")
    pos = {e: i for i, e in enumerate(mem)}
    table = []
    for idx in range(size):
        digits = decode_digits(idx, a, len(mem))
        inner_out = [inner.local([digits[pos[s * t]] for s in inner.memory])
                     for t in outer.memory]
        table.append(outer.local(inner_out))
    return CARule(outer.monoid, outer.alphabet, mem, tuple(table))


def minimal_memory(rule):
    """Coordinates the local map really reads, plus the reduced rule.

    A coordinate is kept iff two local patterns differing only there give
    different outputs.  Dropped coordinates are filled with symbol 0 when
    building the reduced table; the reduced rule is extensionally equal.
    """
    a = rule.alphabet.size
    k = len(rule.memory)
    keep = []
    for pos in range(k):
        stride = a ** (k - 1 - pos)
        dependent = False
        for idx in range(len(rule.table)):
            if (idx // stride) % a != 0:
                continue
            base = rule.table[idx]
            if any(rule.table[idx + v * stride] != base for v in range(1, a)):
                dependent = True
                break
        if dependent:
            keep.append(pos)
    mem = tuple(rule.memory[i] for i in keep)
    table = []
    for idx in range(a ** len(mem)):
        digits = decode_digits(idx, a, len(mem))
        full = [0] * k
        for j, posn in enumerate(keep):
            full[posn] = digits[j]
        table.append(rule.local(full))
    return mem, CARule(rule.monoid, rule.alphabet, mem, tuple(table))


def _finite_elements(monoid):
    if not monoid.is_finite():
        raise NotFinite(f"{monoid.spec_string()} is infinite")
    return monoid.elements()


def _config_elements(monoid, alphabet, config_budget):
    """(elements, configuration count) of a finite monoid; the budget is
    checked from the order, before the element list is built."""
    if not monoid.is_finite():
        raise NotFinite(f"{monoid.spec_string()} is infinite")
    total = _check_space(alphabet.size, monoid.order, config_budget,
                         "configuration space")
    return monoid.elements(), total


def encode_config(pattern):
    """Index of a fully defined symbol pattern over a finite monoid."""
    els = _finite_elements(pattern.monoid)
    a = pattern.alphabet.size
    idx = 0
    for e in els:
        idx = idx * a + pattern.value(e)
    return idx


def decode_config(monoid, alphabet, idx):
    els = _finite_elements(monoid)
    digits = decode_digits(idx, alphabet.size, len(els))
    return Pattern(monoid, "symbol", dict(zip(els, digits)), alphabet=alphabet)


def _local_index_grid(monoid, alphabet, memory, config_budget):
    """loc[cfg][t] = rule-table index seen at site t of configuration cfg."""
    els, total = _config_elements(monoid, alphabet, config_budget)
    a = alphabet.size
    n = len(els)
    pos = {e: i for i, e in enumerate(els)}
    site_rows = [[pos[s * m] for s in memory] for m in els]
    grid = []
    for cfg in range(total):
        digits = decode_digits(cfg, a, n)
        row = []
        for t in range(n):
            li = 0
            for src in site_rows[t]:
                li = li * a + digits[src]
            row.append(li)
        grid.append(row)
    return grid


def _global_maps(monoid, alphabet, memory, tables, config_budget):
    """Stream (table, global map) for each table in order, from one grid; a
    global map is the tuple of image indices of all configurations."""
    grid = _local_index_grid(monoid, alphabet, memory, config_budget)
    a = alphabet.size
    for table in tables:
        out = []
        for row in grid:
            idx = 0
            for li in row:
                idx = idx * a + table[li]
            out.append(idx)
        yield table, tuple(out)


def full_map(rule, config_budget=DEFAULT_CONFIG_BUDGET):
    """The induced map on configuration indices, as a tuple; finite only."""
    return next(_global_maps(rule.monoid, rule.alphabet, rule.memory,
                             (rule.table,), config_budget))[1]


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
    groups = {}
    for i, out in enumerate(fmap):
        groups.setdefault(out, []).append(i)
    colliding = [g for g in groups.values() if len(g) > 1]
    if not colliding:
        return InjectivityVerdict(True, None)
    c1, c2 = min(colliding, key=lambda g: g[0])[:2]
    return InjectivityVerdict(False, (
        decode_config(rule.monoid, rule.alphabet, c1),
        decode_config(rule.monoid, rule.alphabet, c2)))


def injectivity(rule, config_budget=DEFAULT_CONFIG_BUDGET):
    return _injectivity_of_map(rule, full_map(rule, config_budget))


def surjectivity(rule, config_budget=DEFAULT_CONFIG_BUDGET):
    fmap = full_map(rule, config_budget)
    image = set(fmap)
    for idx in range(len(fmap)):
        if idx not in image:
            return SurjectivityVerdict(
                False, decode_config(rule.monoid, rule.alphabet, idx))
    return SurjectivityVerdict(True, None)


def left_inverse(rule, config_budget=DEFAULT_CONFIG_BUDGET):
    """A rule sigma with memory the whole monoid and sigma(tau(c)) = c.

    Off the image of tau the local map returns symbol 0.  Requires a finite
    monoid and an injective rule; the collision pair is the error witness
    otherwise.
    """
    els, total = _config_elements(rule.monoid, rule.alphabet, config_budget)
    fmap = full_map(rule, config_budget)
    inj = _injectivity_of_map(rule, fmap)
    if not inj.ok:
        raise ValidationError("rule is not injective", witness=inj.witness)
    a = rule.alphabet.size
    n = len(els)
    top = a ** (n - 1)  # stride of the identity site, listed first
    inv = {out: src for src, out in enumerate(fmap)}
    table = []
    for cfg in range(total):
        pre = inv.get(cfg)
        table.append(0 if pre is None else (pre // top) % a)
    return CARule(rule.monoid, rule.alphabet, tuple(els), tuple(table))


def all_rule_tables(alphabet_size, memory_len, rule_budget=DEFAULT_RULE_BUDGET):
    """All local tables over a given memory length, in lexicographic order.

    The rule budget is checked on the call, before the first table exists.
    """
    a = alphabet_size
    length = a ** memory_len
    count = _check_space(a, length, rule_budget, "rule space")
    return (tuple(decode_digits(idx, a, length)) for idx in range(count))


@dataclass(frozen=True)
class ScanReport:
    total: int
    injective: int
    surjective: int
    ok: bool
    witness: object | None
    extra: dict


def _rule_maps(monoid, alphabet, memory, rule_budget, config_budget):
    """(memory, stream of (table, global map) over all rules in table order).

    Both budgets are checked before any grid or table exists, configuration
    space first so that the rule count a^(a^|S|) is cheap to compute."""
    els, _ = _config_elements(monoid, alphabet, config_budget)
    memory = tuple(els) if memory is None else tuple(memory)
    tables = all_rule_tables(alphabet.size, len(memory), rule_budget)
    return memory, _global_maps(monoid, alphabet, memory, tables, config_budget)


def surjunctivity_scan(monoid, alphabet, memory=None,
                       rule_budget=DEFAULT_RULE_BUDGET,
                       config_budget=DEFAULT_CONFIG_BUDGET):
    """Every rule over the memory set (default: the whole monoid): does
    injective imply surjective?  Returns counts and the first failing rule."""
    memory, maps = _rule_maps(monoid, alphabet, memory, rule_budget, config_budget)
    total = 0
    injective_tables = []
    for table, fmap in maps:
        total += 1
        # The global map sends a finite configuration set to itself, so it is
        # injective iff its image is everything iff it is surjective: one
        # image count gives both verdicts, and no rule can fail the law.
        if len(set(fmap)) == len(fmap):
            injective_tables.append(table)
    bijective = len(injective_tables)
    return ScanReport(total, bijective, bijective, True, None,
                      {"memory": memory, "injective_tables": injective_tables})


def direct_finiteness_scan(monoid, alphabet, memory=None,
                           rule_budget=DEFAULT_RULE_BUDGET,
                           config_budget=DEFAULT_CONFIG_BUDGET):
    """All ordered rule pairs over the memory set: does a one-sided identity
    force the two-sided one?  The witness, if any, is the least violating
    pair in table order.  The injective and surjective counts are both the
    number of bijective rules, as in surjunctivity_scan.

    The configuration space is finite, so sigma(tau(c)) = c for all c makes
    tau injective, hence bijective, and then sigma = tau^-1 is bijective as
    well.  The scan therefore keeps only the bijective global maps, grouped
    by map with their table indices, inverts each one and pairs it with the
    rules whose map is that inverse: work linear in the rule count instead
    of quadratic, with the same counts.  Every pair found is still
    re-checked for tau(sigma(c)) = c.
    """
    memory, maps = _rule_maps(monoid, alphabet, memory, rule_budget, config_budget)
    total = 0
    bijections = {}  # global map -> [(table index, table), ...] in table order
    for table, fmap in maps:
        if len(set(fmap)) == len(fmap):
            bijections.setdefault(fmap, []).append((total, table))
        total += 1
    one_sided = 0
    failures = []
    for tmap, taus in bijections.items():
        smap = [0] * len(tmap)
        for c, out in enumerate(tmap):
            smap[out] = c
        sigmas = bijections.get(tuple(smap), ())
        one_sided += len(sigmas) * len(taus)
        if sigmas and any(tmap[s] != c for c, s in enumerate(smap)):
            failures += [(sigma, tau) for sigma in sigmas for tau in taus]
    witness = None
    if failures:
        (_, sigma), (_, tau) = min(failures)
        witness = (CARule(monoid, alphabet, memory, sigma),
                   CARule(monoid, alphabet, memory, tau))
    bijective = sum(map(len, bijections.values()))
    return ScanReport(total, bijective, bijective, witness is None, witness,
                      {"pairs": total ** 2, "one_sided_identities": one_sided})


def parse_rule_text(text, monoid):
    """Rule file format:

        alphabet: 2
        memory: 1 g
        table: 0110

    The table lists outputs in mixed-radix order of the memory symbols,
    first memory site most significant.  Alphabets larger than 10 use
    comma-separated symbols on the table line.
    """
    alphabet = None
    memory = None
    table = None
    for lineno, line in _content_lines(text):
        if line.startswith("alphabet:"):
            try:
                alphabet = SymbolAlphabet(int(line[len("alphabet:"):].strip()))
            except ValueError:
                raise ParseError("bad alphabet size", line=lineno) from None
        elif line.startswith("memory:"):
            toks = line[len("memory:"):].split()
            memory = tuple(monoid.parse_element(t) for t in toks)
        elif line.startswith("table:"):
            body = line[len("table:"):].strip()
            if "," in body:
                try:
                    table = tuple(int(t) for t in body.split(","))
                except ValueError:
                    raise ParseError("bad table entry", line=lineno) from None
            else:
                if not body.isdigit() and body != "":
                    raise ParseError(f"bad table string {body!r}", line=lineno)
                table = tuple(int(ch) for ch in body)
        else:
            raise ParseError(f"unrecognized line {line!r}", line=lineno)
    if alphabet is None or memory is None or table is None:
        raise ParseError("rule file needs alphabet, memory, and table lines")
    try:
        return CARule(monoid, alphabet, memory, table)
    except ValidationError as e:
        raise ParseError(str(e)) from None


def serialize_rule(rule):
    lines = [f"alphabet: {rule.alphabet.size}"]
    lines.append("memory: " + " ".join(str(e) for e in rule.memory))
    if rule.alphabet.size > 10:
        lines.append("table: " + ",".join(str(v) for v in rule.table))
    else:
        lines.append("table: " + "".join(str(v) for v in rule.table))
    return "\n".join(lines) + "\n"
