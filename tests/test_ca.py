import hashlib
import itertools
import random
import struct
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moca.ca import (
    CARule,
    ca_apply,
    compose_rules,
    decode_config,
    direct_finiteness_scan,
    full_map,
    injectivity,
    left_inverse,
    minimal_memory,
    parse_rule_text,
    serialize_rule,
    surjectivity,
    surjunctivity_scan,
)
import moca.ca as ca
from moca.errors import (BudgetExceeded, CarrierMismatch, DomainError, NotFinite, ParseError,
                         ValidationError)
from moca.fields import decode_digits, encode_digits
from moca.monoids import bicyclic, cyclic, enumerate_monoids, product_set
from moca.patterns import Pattern, SymbolAlphabet

A1 = SymbolAlphabet(1)
A2 = SymbolAlphabet(2)
A3 = SymbolAlphabet(3)


def identity_rule(monoid, alphabet):
    return CARule(monoid, alphabet, (monoid.identity,), tuple(range(alphabet.size)))


def constant_rule(monoid, alphabet, sym):
    return CARule(monoid, alphabet, (), (sym,))


def all_rule_tables(alphabet_size, memory_len):
    """All local tables over a given memory length, in lexicographic order."""
    return itertools.product(range(alphabet_size), repeat=alphabet_size ** memory_len)


def encode_config(pattern):
    """Index of a fully defined symbol pattern over a finite monoid."""
    return encode_digits(map(pattern.value, pattern.monoid.elements()),
                         pattern.alphabet.size)


def oracle_full_map(rule):
    """Independent global-map computation via dict-backed configurations."""
    els = rule.monoid.elements()
    a = rule.alphabet.size
    out_map = []
    for cfg in itertools.product(range(a), repeat=len(els)):
        c = dict(zip(els, cfg))
        digits = []
        for m in els:
            idx = 0
            for s in rule.memory:
                idx = idx * a + c[s * m]
            digits.append(rule.table[idx])
        acc = 0
        for d in digits:
            acc = acc * a + d
        out_map.append(acc)
    return tuple(out_map)


def oracle_global_maps(monoid, alphabet, memory, tables):
    """The per-configuration kernel the packed one replaced: stream (table,
    global map) for each table, from one grid of local indices."""
    els = monoid.elements()
    a = alphabet.size
    n = len(els)
    pos = {e: i for i, e in enumerate(els)}
    site_rows = [[pos[s * m] for s in memory] for m in els]
    grid = []
    for cfg in range(a ** n):
        digits = decode_digits(cfg, a, n)
        row = []
        for t in range(n):
            li = 0
            for src in site_rows[t]:
                li = li * a + digits[src]
            row.append(li)
        grid.append(row)
    for table in tables:
        out = []
        for row in grid:
            idx = 0
            for li in row:
                idx = idx * a + table[li]
            out.append(idx)
        yield table, tuple(out)


def oracle_inverse(fmap):
    inv = [0] * len(fmap)
    for c, out in enumerate(fmap):
        inv[out] = c
    return tuple(inv)


def oracle_scan_counts(monoid, alphabet, memory=None):
    """(total, injective tables in table order, one-sided identity pairs)
    from the old kernel, with bijective maps grouped by map."""
    memory = tuple(monoid.elements()) if memory is None else tuple(memory)
    tables = all_rule_tables(alphabet.size, len(memory))
    groups = {}
    total = 0
    for table, fmap in oracle_global_maps(monoid, alphabet, memory, tables):
        if len(set(fmap)) == len(fmap):
            groups.setdefault(fmap, []).append((total, table))
        total += 1
    injective = [t for _, t in sorted(itertools.chain.from_iterable(groups.values()))]
    one_sided = sum(len(groups.get(oracle_inverse(f), ())) * len(g)
                    for f, g in groups.items())
    return total, injective, one_sided


def oracle_left_inverse_table(monoid, alphabet, fmap):
    a = alphabet.size
    top = a ** (monoid.order - 1)
    return tuple(pre // top % a for pre in oracle_inverse(fmap))


def assert_scans_match_oracle(monoid, alphabet, memory=None):
    total, injective, one_sided = oracle_scan_counts(monoid, alphabet, memory)
    ss = surjunctivity_scan(monoid, alphabet, memory=memory)
    dfs = direct_finiteness_scan(monoid, alphabet, memory=memory)
    assert ss.total == dfs.total == total
    assert ss.extra["injective_tables"] == injective
    assert ss.injective == ss.surjective == dfs.injective == dfs.surjective == len(injective)
    assert dfs.extra["one_sided_identities"] == one_sided
    assert dfs.extra["pairs"] == total ** 2
    assert dfs.ok and dfs.witness is None
    mem = ss.extra["memory"]
    for table, fmap in oracle_global_maps(monoid, alphabet, mem, injective):
        rule = CARule(monoid, alphabet, mem, table)
        assert full_map(rule) == fmap
        assert left_inverse(rule).table == oracle_left_inverse_table(monoid, alphabet, fmap)
    return total


def random_rule(rng, monoid, alphabet, memory):
    a = alphabet.size
    table = tuple(rng.randrange(a) for _ in range(a ** len(memory)))
    return CARule(monoid, alphabet, tuple(memory), table)


def test_rule_validation():
    # the public constructor and the rule file reader keep every check
    m, other = cyclic(2), cyclic(3)
    one = (m.identity,)
    bad = [((m, A2, one, (0, 2)), ValidationError, "symbol 2 outside alphabet of size 2"),
           ((m, A2, one * 2, (0,) * 4), ValidationError,
            "memory set has repeated canonical forms"),
           ((m, A2, one, (0, 1, 0)), ValidationError, "table has 3 entries, expected 2"),
           ((m, A2, (other.identity,), (0, 1)), CarrierMismatch,
            "memory element from a different monoid")]
    for args, error, message in bad:
        with pytest.raises(error) as exc:
            CARule(*args)
        assert str(exc.value) == message
    for text, message in [("memory: 1\ntable: 02", "symbol 2 outside alphabet of size 2"),
                          ("memory: 1 1\ntable: 0000", "memory set has repeated canonical forms"),
                          ("memory: 1\ntable: 010", "table has 3 entries, expected 2")]:
        with pytest.raises(ParseError) as exc:
            parse_rule_text("alphabet: 2\n" + text + "\n", m)
        assert str(exc.value) == message


def test_identity_rule_is_identity():
    m = cyclic(2)
    r = identity_rule(m, A2)
    assert full_map(r) == (0, 1, 2, 3)


def test_shift_rule_frozen_map():
    # tau(c)(m) = c(g*m) on the 3-element cyclic monoid.
    m = cyclic(3)
    g = m.parse_element("g")
    r = CARule(m, A2, (g,), (0, 1))
    fmap = full_map(r)
    # site order 1, g, g^2 with the first site most significant
    assert fmap[1] == 2  # (0,0,1) -> (0,1,0)
    assert fmap[4] == 1  # (1,0,0) -> (0,0,1)
    assert fmap == oracle_full_map(r)


def test_full_map_matches_oracle_random():
    rng = random.Random(11)
    monoids = [cyclic(2), cyclic(3), enumerate_monoids(3)[4]]
    for monoid in monoids:
        els = monoid.elements()
        for _ in range(30):
            k = rng.randrange(1, len(els) + 1)
            mem = tuple(rng.sample(els, k))
            r = random_rule(rng, monoid, A2, mem)
            assert full_map(r) == oracle_full_map(r)
    r = random_rule(rng, cyclic(3), A3, tuple(cyclic(3).elements()))
    assert full_map(r) == oracle_full_map(r)


def test_packed_scans_match_old_kernel_small_tables():
    # every table monoid of order <= 3 at alphabets 1, 2 and 3, within
    # budget, and with the empty memory; in both the diagonal is one entry
    for n in (1, 2, 3):
        for m in enumerate_monoids(n):
            assert_scans_match_oracle(m, A1)
            assert_scans_match_oracle(m, A2)
            assert_scans_match_oracle(m, A2, ())
            if n < 3:
                assert_scans_match_oracle(m, A3)
            else:
                with pytest.raises(BudgetExceeded) as exc:
                    surjunctivity_scan(m, A3)
                assert str(exc.value) == "rule space of size 3^27 exceeds budget 65536"
    # one symbol: one rule, bijective; the empty memory at a >= 2: constant
    # rules, none injective
    assert surjunctivity_scan(cyclic(3), A1).injective == 1
    assert surjunctivity_scan(cyclic(3), A3, memory=()).injective == 0


def test_packed_scans_match_old_kernel_memory_subsets():
    for m in (cyclic(3), enumerate_monoids(3)[4], enumerate_monoids(3)[9]):
        els = m.elements()
        for k in range(len(els)):
            for mem in itertools.combinations(els, k):
                assert_scans_match_oracle(m, A1, mem)
                assert_scans_match_oracle(m, A2, mem)
                if k < 2:
                    assert_scans_match_oracle(m, A3, mem)
    c4 = cyclic(4)
    g = c4.parse_element("g")
    assert_scans_match_oracle(c4, A3, (g, c4.identity))


def small_scan_cases():
    """(monoid, alphabet, memory): every table monoid of order <= 3 and every
    memory subset of cyclic:3, at alphabets 1 and 2, and 3 where the rule
    space is at most 3^9."""
    c3 = cyclic(3)
    cases = [(m, A, None) for n in (1, 2, 3) for m in enumerate_monoids(n)
             for A in ((A1, A2, A3) if n < 3 else (A1, A2))]
    return cases + [(c3, A, mem) for k in range(4)
                    for mem in itertools.combinations(c3.elements(), k)
                    for A in ((A1, A2, A3) if k < 2 else (A1, A2))]


def diagonal_permutes(table, a, k):
    """Do the entries at the constant local patterns permute the alphabet?"""
    return sorted(table[sum(x * a ** j for j in range(k))] for x in range(a)) == list(range(a))


def balanced(table, a, k):
    """Does each symbol appear a^(k-1) times in the table?"""
    return all(table.count(x) * a == a ** k for x in range(a))


def test_prune_skips_only_non_injective_tables(monkeypatch):
    # the scans pack exactly the balanced tables whose diagonal permutes
    # the alphabet; each table they skip collides two configurations
    real, packed = ca._permuting_sums, []

    def record(*args):
        for index, total in real(*args):
            packed.append(index)
            yield index, total

    monkeypatch.setattr(ca, "_permuting_sums", record)
    skipped = 0
    for monoid, alphabet, memory in small_scan_cases():
        packed.clear()
        mem = surjunctivity_scan(monoid, alphabet, memory=memory).extra["memory"]
        a, k = alphabet.size, len(mem)
        assert packed == sorted(packed)
        packed_set = set(packed)
        for index, table in enumerate(all_rule_tables(a, k)):
            assert (index in packed_set) == (diagonal_permutes(table, a, k)
                                             and balanced(table, a, k))
            if index not in packed_set:
                fmap = oracle_full_map(CARule(monoid, alphabet, mem, table))
                assert len(set(fmap)) < len(fmap)
                skipped += 1
    assert skipped > 10 ** 4


def test_injective_tables_are_balanced():
    # a bijective rule shows each symbol at the identity site on a^(|M|-1)
    # configurations and each table entry on a^(|M|-k), so each symbol
    # fills a^(k-1) entries; checked by the oracle alone, apart from the scans
    for monoid, alphabet, memory in small_scan_cases():
        mem = monoid.elements() if memory is None else memory
        a, k = alphabet.size, len(mem)
        for table in all_rule_tables(a, k):
            fmap = oracle_full_map(CARule(monoid, alphabet, mem, table))
            if len(set(fmap)) == len(fmap):
                assert balanced(table, a, k)


def assert_checked(rule):
    """A rule the library built equals the one the validating constructor
    builds from its parts."""
    assert type(rule.memory) is tuple and type(rule.table) is tuple
    assert rule == CARule(rule.monoid, rule.alphabet, rule.memory, rule.table)


def test_rules_the_library_builds_pass_the_checks(monkeypatch):
    real, composed = ca.compose_rules, []

    def record(outer, inner, *args):
        comp = real(outer, inner, *args)
        composed.extend((outer, inner, comp))
        return comp

    monkeypatch.setattr(ca, "compose_rules", record)
    for monoid, alphabet, memory in small_scan_cases():
        composed.clear()
        ss = surjunctivity_scan(monoid, alphabet, memory=memory)
        dfs = direct_finiteness_scan(monoid, alphabet, memory=memory)
        # the re-check composes each pair both ways
        assert dfs.ok and len(composed) == 6 * dfs.extra["one_sided_identities"]
        for rule in composed:
            assert_checked(rule)
        for table in ss.extra["injective_tables"]:
            rule = CARule(monoid, alphabet, ss.extra["memory"], table)
            sigma = left_inverse(rule)
            for built in (sigma, record(sigma, rule), minimal_memory(rule)[1],
                          minimal_memory(sigma)[1]):
                assert_checked(built)


def record_lane_formats(monkeypatch):
    """The struct formats the scans pack and unpack their lanes with."""
    formats, real = [], struct.Struct
    monkeypatch.setattr(ca.struct, "Struct", lambda fmt: formats.append(fmt) or real(fmt))
    return formats


def test_packed_kernel_wide_lanes(monkeypatch):
    # 512 configurations: two bytes per lane
    m = cyclic(9)
    g = m.parse_element("g")
    formats = record_lane_formats(monkeypatch)
    assert assert_scans_match_oracle(m, A2, (m.identity, g)) == 16
    assert set(formats) == {"<512H"}
    assert_scans_match_oracle(m, A2, (g * g * g, m.identity))
    rng = random.Random(17)
    for _ in range(4):
        r = random_rule(rng, m, A2, tuple(rng.sample(m.elements(), 2)))
        assert full_map(r) == oracle_full_map(r)


def test_scans_reject_repeated_memory():
    # two copies of a site would let distinct tables share a global map
    m = cyclic(2)
    for scan in (surjunctivity_scan, direct_finiteness_scan):
        with pytest.raises(ValidationError) as exc:
            scan(m, A2, memory=(m.identity, m.identity))
        assert str(exc.value) == "memory set has repeated canonical forms"


def test_lane_codec_is_little_endian_whatever_the_host(monkeypatch):
    # lanes are packed little-endian by format, and nothing reads the
    # host's byte order
    formats = record_lane_formats(monkeypatch)
    other = "big" if sys.byteorder == "little" else "little"
    monkeypatch.setattr(sys, "byteorder", other)
    ca._PLANS.clear()
    m = cyclic(9)
    r = CARule(m, A2, (m.identity, m.parse_element("g")), (0, 1, 1, 1))
    assert full_map(r) == oracle_full_map(r)
    assert surjunctivity_scan(m, A2, memory=r.memory).injective == 4
    assert formats == ["<512H"]
    packed = 1 + (258 << 16) + (65535 << 32)
    assert struct.Struct("<3H").pack(1, 258, 65535) == packed.to_bytes(6, "little")


def test_full_memory_rules_on_cyclic12():
    # a whole-monoid memory on cyclic:12: packed lane weights would hold 2^12
    # maps of 2^12 lanes (32 MB and more); the plan holds 12 columns
    m = cyclic(12)
    els = tuple(m.elements())
    top = 2 ** (len(els) - 1 - els.index(m.parse_element("g")))
    rule = CARule(m, A2, els, tuple(1 - li // top % 2 for li in range(2 ** 12)))
    ca._PLANS.clear()
    tracemalloc.start()
    try:
        fmap = full_map(rule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    assert fmap == oracle_full_map(rule)
    sigma = left_inverse(rule)
    assert full_map(sigma) == oracle_full_map(sigma)
    comp = compose_rules(sigma, rule)
    assert full_map(comp) == oracle_full_map(comp) == tuple(range(2 ** 12))
    assert full_map(compose_rules(rule, sigma)) == tuple(range(2 ** 12))


def test_plan_cache_keeps_few_small_plans(monkeypatch):
    m = cyclic(3)
    els = tuple(m.elements())
    monkeypatch.setattr(ca, "_PLANS", {})
    monkeypatch.setattr(ca, "_CACHED_PLAN_BYTES", 256)
    small = ca._plan(2, (m.identity,), els, els)  # 3 columns of 8 entries
    assert ca._PLANS == {(2, (m.identity,), els, els): small}
    assert ca._plan(2, (m.identity,), els, els) is small
    ca._plan(3, (m.identity,), els, els)          # 3 columns of 27: not kept
    rule = CARule(m, A3, els, tuple(i * i % 3 for i in range(27)))
    assert full_map(rule) == oracle_full_map(rule)
    assert list(ca._PLANS) == [(2, (m.identity,), els, els)]
    # past 32 plans the least recently used goes first
    for a in range(2, 40):
        ca._plan(a, (), (), ())
    assert len(ca._PLANS) == 32 and (2, (m.identity,), els, els) not in ca._PLANS


def test_cached_plans_never_serve_another_key():
    # interleaved calls over monoids, alphabets and memories; each result
    # is checked against the dict-backed oracle
    m3 = enumerate_monoids(3)[4]
    c9 = cyclic(9)
    cases = [(cyclic(2), A3, None), (cyclic(3), A2, None), (m3, A2, None),
             (m3, A3, (m3.elements()[1],)), (cyclic(3), A3, None),
             (c9, A2, (c9.identity, c9.parse_element("g"))),
             (cyclic(3), A2, tuple(cyclic(3).elements()[:2])),
             (enumerate_monoids(2)[1], A2, None)]
    rng = random.Random(18)
    for _ in range(6):
        rng.shuffle(cases)
        for monoid, alphabet, mem in cases:
            mem = tuple(monoid.elements()) if mem is None else mem
            inner = random_rule(rng, monoid, alphabet, mem)
            outer = random_rule(rng, monoid, alphabet, mem)
            fi, fo = full_map(inner), oracle_full_map(outer)
            assert fi == oracle_full_map(inner)
            comp = compose_rules(outer, inner)
            assert full_map(comp) == tuple(fo[x] for x in fi)


def test_encode_decode_roundtrip():
    m = cyclic(3)
    for idx in range(8):
        p = decode_config(m, A2, idx)
        assert encode_config(p) == idx
    p = decode_config(m, A2, 5)  # digits (1,0,1)
    assert p.value(m.identity) == 1
    assert p.value(m.parse_element("g")) == 0


def test_apply_agrees_with_full_map():
    rng = random.Random(12)
    m = cyclic(3)
    els = m.elements()
    for _ in range(20):
        r = random_rule(rng, m, A2, tuple(rng.sample(els, 2)))
        fmap = full_map(r)
        for cfg in range(8):
            pat = decode_config(m, A2, cfg)
            out = ca_apply(r, pat, els)
            assert encode_config(out) == fmap[cfg]


def test_apply_infinite_monoid_window():
    # shift toward q on the bicyclic monoid: tau(c)(m) = c(q*m)
    b = bicyclic()
    q = b.q
    r = CARule(b, A2, (q,), (0, 1))
    window = [b.identity, b.p]
    c = Pattern(b, "symbol", {q: 1, q * b.p: 0}, alphabet=A2)
    out = ca_apply(r, c, window)
    assert out.value(b.identity) == 1
    assert out.value(b.p) == 0
    with pytest.raises(DomainError) as exc:
        ca_apply(r, c, [b.identity, b.q])
    assert [str(x) for x in exc.value.missing] == ["q^2"]


def test_apply_checks_carriers():
    m = cyclic(2)
    r = identity_rule(m, A2)
    c3 = decode_config(cyclic(3), A2, 0)
    with pytest.raises(Exception):
        ca_apply(r, c3, cyclic(3).elements())


def test_constant_rule_empty_memory():
    m = cyclic(2)
    r = constant_rule(m, A2, 1)
    assert r.memory == ()
    out = ca_apply(r, decode_config(m, A2, 0), m.elements())
    assert all(out.value(e) == 1 for e in m.elements())
    assert full_map(r) == (3, 3, 3, 3)


def test_compose_memory_and_map():
    rng = random.Random(13)
    m = cyclic(3)
    els = m.elements()
    for _ in range(25):
        inner = random_rule(rng, m, A2, tuple(rng.sample(els, rng.randrange(1, 3))))
        outer = random_rule(rng, m, A2, tuple(rng.sample(els, rng.randrange(1, 3))))
        comp = compose_rules(outer, inner)
        assert comp.memory == product_set(inner.memory, outer.memory)
        fi, fo, fc = full_map(inner), full_map(outer), full_map(comp)
        assert fc == tuple(fo[fi[i]] for i in range(8))


def test_compose_on_infinite_monoid_window():
    rng = random.Random(14)
    b = bicyclic()
    pool = [b.identity, b.p, b.q, b.q * b.p]
    for _ in range(15):
        inner = random_rule(rng, b, A2, tuple(rng.sample(pool, 2)))
        outer = random_rule(rng, b, A2, tuple(rng.sample(pool, 2)))
        comp = compose_rules(outer, inner)
        window = [b.identity, b.p * b.p]
        w1 = product_set(outer.memory, window)
        need = product_set(inner.memory, w1)
        sites = set(need) | set(w1) | set(window)
        c = Pattern(b, "symbol", {s: rng.randrange(2) for s in sites}, alphabet=A2)
        two_step = ca_apply(outer, ca_apply(inner, c, w1), window)
        one_step = ca_apply(comp, c, window)
        for m in window:
            assert two_step.value(m) == one_step.value(m)


def test_minimal_memory_drops_padding():
    m = cyclic(2)
    g = m.parse_element("g")
    # table reads only the first coordinate
    r = CARule(m, A2, (m.identity, g), (0, 0, 1, 1))
    mem, reduced = minimal_memory(r)
    assert mem == (m.identity,)
    assert reduced.table == (0, 1)
    assert full_map(reduced) == full_map(r)


def test_minimal_memory_constant_and_full():
    m = cyclic(2)
    g = m.parse_element("g")
    r = CARule(m, A2, (m.identity, g), (1, 1, 1, 1))
    mem, reduced = minimal_memory(r)
    assert mem == ()
    assert reduced.table == (1,)
    xor = CARule(m, A2, (m.identity, g), (0, 1, 1, 0))
    mem2, reduced2 = minimal_memory(xor)
    assert mem2 == (m.identity, g)
    assert reduced2.table == xor.table


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 8 - 1), st.integers(0, 2))
def test_minimal_memory_preserves_map(tabidx, k):
    m = cyclic(3)
    els = m.elements()
    mem = tuple(els[i] for i in range(k + 1))
    a = 2
    length = a ** len(mem)
    table = tuple((tabidx >> j) & 1 for j in range(length))
    r = CARule(m, A2, mem, table)
    mem2, reduced = minimal_memory(r)
    assert set(mem2) <= set(mem)
    assert full_map(reduced) == full_map(r)
    mem3, reduced2 = minimal_memory(reduced)
    assert mem3 == mem2 and reduced2.table == reduced.table


def oracle_kept_memory(rule):
    """Memory positions where two patterns differing there alone differ in
    output, by pairs of digit tuples; no index arithmetic."""
    a, k = rule.alphabet.size, len(rule.memory)
    out = dict(zip(itertools.product(range(a), repeat=k), rule.table))
    return tuple(rule.memory[pos] for pos in range(k)
                 if any(out[ds] != out[ds[:pos] + (v,) + ds[pos + 1:]]
                        for ds in out for v in range(a)))


def test_minimal_memory_matches_the_oracle_on_small_tables():
    for order in (1, 2, 3):
        for m in enumerate_monoids(order):
            els = m.elements()
            for table in all_rule_tables(2, order):
                rule = CARule(m, A2, els, table)
                mem, reduced = minimal_memory(rule)
                assert mem == reduced.memory == oracle_kept_memory(rule)
                assert full_map(reduced) == full_map(rule)


def test_config_elements_are_listed_once_per_monoid():
    m = cyclic(3)
    els, total = ca._config_elements(m, A2, 8)
    assert els == tuple(m.elements()) and total == 8
    assert ca._config_elements(m, A2, 8)[0] is els


def test_injectivity_witness_least_pair():
    m = cyclic(2)
    r = constant_rule(m, A2, 0)
    v = injectivity(r)
    assert not v.ok
    c1, c2 = v.witness
    assert encode_config(c1) == 0 and encode_config(c2) == 1
    s = surjectivity(r)
    assert not s.ok
    assert encode_config(s.witness) == 1  # 0 is hit, 1 is the least missed


def test_injective_iff_surjective_on_finite():
    rng = random.Random(15)
    m = enumerate_monoids(3)[7]
    els = m.elements()
    for _ in range(40):
        r = random_rule(rng, m, A2, tuple(rng.sample(els, rng.randrange(1, 4))))
        assert injectivity(r).ok == surjectivity(r).ok


def test_left_inverse_of_identity():
    m = cyclic(2)
    tau = identity_rule(m, A2)
    sigma = left_inverse(tau)
    assert sigma.memory == tuple(m.elements())
    assert sigma.table == (0, 0, 1, 1)
    comp = compose_rules(sigma, tau)
    assert full_map(comp) == (0, 1, 2, 3)


def test_left_inverse_roundtrip_random():
    rng = random.Random(16)
    monoids = [cyclic(2), cyclic(3), enumerate_monoids(3)[4]]
    found = 0
    for monoid in monoids:
        els = monoid.elements()
        for _ in range(60):
            r = random_rule(rng, monoid, A2, tuple(rng.sample(els, 2)))
            if not injectivity(r).ok:
                continue
            found += 1
            sigma = left_inverse(r)
            fmap = full_map(r)
            smap = full_map(sigma)
            assert all(smap[fmap[i]] == i for i in range(len(fmap)))
            comp = compose_rules(sigma, r)
            assert full_map(comp) == tuple(range(len(fmap)))
    assert found >= 5


def test_left_inverse_requires_injective():
    m = cyclic(2)
    with pytest.raises(ValidationError) as exc:
        left_inverse(constant_rule(m, A2, 0))
    assert exc.value.witness is not None


def oracle_scan(monoid, a):
    """Dict-backed rule scan used to pin the library's counters."""
    els = monoid.elements()
    mem = els
    maps = []
    for tab in itertools.product(range(a), repeat=a ** len(mem)):
        fm = {}
        for cfg in itertools.product(range(a), repeat=len(els)):
            c = dict(zip(els, cfg))
            out = []
            for m in els:
                idx = 0
                for s in mem:
                    idx = idx * a + c[s * m]
                out.append(tab[idx])
            fm[cfg] = tuple(out)
        maps.append(fm)
    n_inj = sum(1 for fm in maps if len(set(fm.values())) == len(fm))
    one_sided = 0
    violations = 0
    for sm in maps:
        for tm in maps:
            if all(sm[tm[cfg]] == cfg for cfg in tm):
                one_sided += 1
                if any(tm[sm[cfg]] != cfg for cfg in sm):
                    violations += 1
    return len(maps), n_inj, one_sided, violations


def test_surjunctivity_scan_cyclic2():
    m = cyclic(2)
    rep = surjunctivity_scan(m, A2)
    total, n_inj, _, _ = oracle_scan(m, 2)
    assert rep.total == total == 16
    assert rep.injective == rep.surjective == n_inj
    assert rep.ok and rep.witness is None
    assert len(rep.extra["injective_tables"]) == n_inj


def test_direct_finiteness_scan_cyclic2():
    # differential against the all-pairs oracle on every monoid of order <= 3
    for m in [cyclic(2)] + [m for n in (1, 2, 3) for m in enumerate_monoids(n)]:
        rep = direct_finiteness_scan(m, A2)
        total, n_inj, one_sided, violations = oracle_scan(m, 2)
        assert violations == 0
        assert rep.ok and rep.witness is None
        assert rep.total == total and rep.extra["pairs"] == total ** 2
        # its bijective counts are the surjunctivity scan's, so one scan
        # serves `ca-scan-surjunctivity`
        assert rep.injective == rep.surjective == n_inj
        assert rep.injective == surjunctivity_scan(m, A2).injective
        assert rep.extra["one_sided_identities"] == one_sided
        assert rep.extra["one_sided_identities"] >= 1


def test_direct_finiteness_scan_cyclic2_alphabet3():
    # 19683 rules, 387M ordered pairs: only bijections are ever paired
    m = cyclic(2)
    rep = direct_finiteness_scan(m, A3)
    assert rep.ok and rep.witness is None
    assert rep.total == 19683 and rep.extra["pairs"] == 19683 ** 2
    assert rep.injective == rep.extra["one_sided_identities"] == 288
    assert rep.extra["one_sided_identities"] == surjunctivity_scan(m, A3).injective


def test_benchmark_size_scans_are_pinned():
    # (rules, bijective rules, SHA-1 prefix of the repr of their tables),
    # as the scans gave them before they skipped unbalanced tables
    def pin(rep):
        digest = hashlib.sha1(repr(rep.extra["injective_tables"]).encode()).hexdigest()
        return rep.total, rep.injective, digest[:16]

    t0, t1 = enumerate_monoids(2)
    assert pin(surjunctivity_scan(t0, A3)) == (19683, 288, "aae353be90c7e10a")
    assert pin(surjunctivity_scan(t1, A3)) == (19683, 48, "ac7001d1ea2d5ef3")
    assert pin(surjunctivity_scan(cyclic(4), A2)) == (65536, 1536, "fcaa43962827b609")
    c5 = cyclic(5)
    mem = [c5.parse_element(s) for s in ("1", "g", "g^2", "g^3")]
    assert pin(surjunctivity_scan(c5, A2, memory=mem)) == (65536, 472, "6f2b1587875fd75e")


def test_direct_finiteness_recheck_can_fail(monkeypatch):
    # over cyclic:3 the identity rule (table 00001111, index 15) also
    # reports the global map of the shift c -> c(g*m); the inverse of that
    # map belongs to the shift by g^2 (table 01010101, index 85), so the
    # pairs built from the corrupted map must fail the re-check by
    # composition
    real = ca._bijections
    m = cyclic(3)
    els = tuple(m.elements())
    ident, shift, shift2 = (tuple(decode_digits(i, 2, 3)[k] for i in range(8))
                            for k in range(3))

    def corrupt(*args):
        memory, total, bijections = real(*args)
        moved = dict(bijections)
        moved[full_map(CARule(m, A2, els, shift))] = bijections[tuple(range(8))]
        return memory, total, moved

    assert direct_finiteness_scan(m, A2).ok
    monkeypatch.setattr(ca, "_bijections", corrupt)
    rep = direct_finiteness_scan(m, A2)
    assert not rep.ok
    sigma, tau = rep.witness
    assert (sigma.table, tau.table) == (ident, shift2)
    assert full_map(compose_rules(sigma, tau)) != tuple(range(8))


def test_direct_finiteness_scan_small_memory():
    # a memory smaller than the monoid: inverses may need more memory, so
    # some bijections find no partner; the oracle pairs every rule
    m = cyclic(3)
    mem = (m.identity, m.parse_element("g"))
    rep = direct_finiteness_scan(m, A2, memory=mem)
    maps = [oracle_full_map(CARule(m, A2, mem, t)) for t in all_rule_tables(2, 2)]
    ident = tuple(range(8))
    one_sided = sum(1 for sm in maps for tm in maps
                    if tuple(sm[x] for x in tm) == ident)
    assert rep.ok and rep.total == 16
    assert rep.extra["one_sided_identities"] == one_sided
    assert rep.injective == rep.surjective == sum(len(set(fm)) == 8 for fm in maps)


def test_scan_budget_guards():
    with pytest.raises(BudgetExceeded):
        surjunctivity_scan(cyclic(2), A2, rule_budget=8)
    with pytest.raises(BudgetExceeded):
        surjunctivity_scan(cyclic(3), A2, config_budget=4)
    with pytest.raises(NotFinite):
        surjunctivity_scan(bicyclic(), A2)
    with pytest.raises(NotFinite):
        full_map(identity_rule(bicyclic(), A2))


def test_scan_budgets_fire_before_the_grid(monkeypatch):
    def no_grid(*args):
        raise AssertionError("plan or packed sums built before a budget check")
    monkeypatch.setattr("moca.ca._plan", no_grid)
    monkeypatch.setattr("moca.ca._image", no_grid)
    monkeypatch.setattr("moca.ca._digit_sums", no_grid)
    for scan in (surjunctivity_scan, direct_finiteness_scan):
        with pytest.raises(BudgetExceeded) as exc:
            scan(cyclic(3), A2, config_budget=4)
        assert str(exc.value) == "configuration space of size 2^3 exceeds budget 4"
        with pytest.raises(BudgetExceeded) as exc:
            scan(cyclic(3), A2, rule_budget=100)
        assert exc.value.required == 2 ** 8
        assert str(exc.value) == "rule space of size 2^8 exceeds budget 100"


def test_held_half_sums_are_bounded_in_bytes(monkeypatch):
    # 2^20 configurations in 4-byte lanes, 2^16 rules over 16 table digits:
    # half the digits would hold 2^8 maps of 4 MB each
    nbytes = 4 << 20
    low = ca._low_digits(2, 16, nbytes)
    assert 2 ** low * nbytes <= ca._HALF_TABLE_BYTES < 2 ** (low + 1) * nbytes
    assert ca._low_digits(2, 16, 16) == 8 and ca._low_digits(3, 9, 9) == 5
    # a smaller bound moves the split, not the result
    expected = oracle_scan_counts(cyclic(3), A2)
    monkeypatch.setattr(ca, "_HALF_TABLE_BYTES", 64)
    assert ca._low_digits(2, 8, 8) == 3
    rep = surjunctivity_scan(cyclic(3), A2)
    assert (rep.total, rep.extra["injective_tables"]) == expected[:2]
    assert direct_finiteness_scan(cyclic(3), A2).extra["one_sided_identities"] == expected[2]


def test_config_budget_fires_before_the_element_list(monkeypatch):
    big = cyclic(10 ** 8)
    rule = identity_rule(big, A2)
    def refuse(self):
        raise AssertionError("element list built before the budget check")
    monkeypatch.setattr("moca.monoids.Monoid.elements", refuse)
    for call in (full_map, left_inverse, surjectivity):
        with pytest.raises(BudgetExceeded) as exc:
            call(rule)
        assert str(exc.value) == ("configuration space of size 2^100000000 "
                                  "exceeds budget 1048576")
    with pytest.raises(NotFinite):
        left_inverse(identity_rule(bicyclic(), A2))


def test_rule_file_roundtrip():
    m = cyclic(3)
    g = m.parse_element("g")
    r = CARule(m, A2, (m.identity, g), (0, 1, 1, 0))
    text = serialize_rule(r)
    back = parse_rule_text(text, m)
    assert back == r
    b = bicyclic()
    r2 = CARule(b, A3, (b.q, b.p), tuple(i % 3 for i in range(9)))
    assert parse_rule_text(serialize_rule(r2), b) == r2


def test_rule_file_roundtrip_every_alphabet():
    # above 10 symbols the table line is comma-separated, even with one entry
    m = cyclic(3)
    rng = random.Random(22)
    for a in range(1, 13):
        alphabet = SymbolAlphabet(a)
        for k in range(3):
            memory = m.elements()[:k]
            for table in ((a - 1,) * a ** k, tuple(rng.randrange(a) for _ in range(a ** k))):
                r = CARule(m, alphabet, memory, table)
                assert parse_rule_text(serialize_rule(r), m) == r
    assert parse_rule_text("alphabet: 11\nmemory:\ntable: 10\n", m).table == (10,)
    assert parse_rule_text("alphabet: 10\nmemory:\ntable: 9\n", m).table == (9,)


def test_rule_file_errors():
    m = cyclic(2)
    with pytest.raises(ParseError):
        parse_rule_text("alphabet: 2\nmemory: 1\ntable: 012\n", m)
    with pytest.raises(ParseError) as exc:
        parse_rule_text("alphabet: x\n", m)
    assert exc.value.line == 1
    with pytest.raises(ParseError):
        parse_rule_text("alphabet: 2\nmemory: z\ntable: 01\n", m)
    with pytest.raises(ParseError):
        parse_rule_text("alphabet: 2\nmemory: 1\n", m)
    with pytest.raises(ParseError) as exc2:
        parse_rule_text("alphabet: 2\nbogus: 3\n", m)
    assert exc2.value.line == 2
    for table in ("\u00b2", "0,x"):  # a superscript two passes str.isdigit, not int()
        with pytest.raises(ParseError) as exc3:
            parse_rule_text(f"alphabet: 2\ntable: {table}\nmemory:\n", m)
        assert exc3.value.line == 2


def test_rule_file_rejects_repeated_keys():
    m = cyclic(3)
    good = ["alphabet: 2", "memory: 1", "table: 01"]
    for i, line in enumerate(good):
        text = "\n".join(good[:i + 1] + ["# again", line] + good[i + 1:])
        with pytest.raises(ParseError) as exc:
            parse_rule_text(text, m)
        key = line.split(":")[0]
        assert (exc.value.message, exc.value.line) == (f"duplicate {key} line", i + 3)
    # a different value on the repeated line is no excuse
    with pytest.raises(ParseError, match="duplicate alphabet line"):
        parse_rule_text("alphabet: 2\nalphabet: 3\nmemory: 1\ntable: 012\n", m)
