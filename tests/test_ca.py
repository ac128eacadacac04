import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moca.ca import (
    CARule,
    all_rule_tables,
    ca_apply,
    compose_rules,
    constant_rule,
    decode_config,
    direct_finiteness_scan,
    encode_config,
    full_map,
    identity_rule,
    injectivity,
    left_inverse,
    minimal_memory,
    parse_rule_text,
    serialize_rule,
    surjectivity,
    surjunctivity_scan,
)
from moca.errors import BudgetExceeded, DomainError, NotFinite, ParseError, ValidationError
from moca.monoids import bicyclic, cyclic, enumerate_monoids, product_set
from moca.patterns import Pattern, SymbolAlphabet

A2 = SymbolAlphabet(2)
A3 = SymbolAlphabet(3)


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


def random_rule(rng, monoid, alphabet, memory):
    a = alphabet.size
    table = tuple(rng.randrange(a) for _ in range(a ** len(memory)))
    return CARule(monoid, alphabet, tuple(memory), table)


def test_rule_validation():
    m = cyclic(2)
    with pytest.raises(ValidationError):
        CARule(m, A2, (m.identity, m.identity), (0, 0, 0, 0))
    with pytest.raises(ValidationError):
        CARule(m, A2, (m.identity,), (0, 1, 0))
    with pytest.raises(ValidationError):
        CARule(m, A2, (m.identity,), (0, 2))


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
    assert rep.extra["one_sided_identities"] == surjunctivity_scan(m, A3).injective


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
        raise AssertionError("grid built before a budget check")
    monkeypatch.setattr("moca.ca._local_index_grid", no_grid)
    for scan in (surjunctivity_scan, direct_finiteness_scan):
        with pytest.raises(BudgetExceeded) as exc:
            scan(cyclic(3), A2, config_budget=4)
        assert str(exc.value) == "configuration space of size 2^3 exceeds budget 4"
        with pytest.raises(BudgetExceeded) as exc:
            scan(cyclic(3), A2, rule_budget=100)
        assert exc.value.required == 2 ** 8
        assert str(exc.value) == "rule space of size 2^8 exceeds budget 100"


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


def test_all_rule_tables_order():
    tables = list(all_rule_tables(2, 1))
    assert tables == [(0, 0), (0, 1), (1, 0), (1, 1)]
    with pytest.raises(BudgetExceeded):
        list(all_rule_tables(2, 3, rule_budget=100))


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
