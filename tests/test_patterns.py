"""Pattern tests: restriction, shift, required domains, convolution."""

import random
from itertools import product

import pytest

from moca.errors import CarrierMismatch, DomainError, NotFinite, ParseError, ValidationError
from moca.algebra import (alg_from_terms, alg_one, alg_zero, mat_from_entries, mat_identity,
                          parse_alg_literal)
from moca.ca import CARule, ca_apply
from moca.fields import field_make, rationals
from moca.monoids import bicyclic, canonical_sorted, cyclic, free_commutative, product_set
from moca.patterns import (
    SymbolAlphabet,
    convolve_matrix,
    convolve_scalar,
    indicator_pattern,
    parse_symbol_pattern,
    parse_vector_pattern,
    pattern_add,
    pattern_scale,
    required_domain,
    serialize_pattern,
    symbol_pattern,
    vector_pattern,
    zero_vector_pattern,
)


def vp(monoid, field, assigns):
    # assigns: {site: [ints]}
    return vector_pattern(monoid, field, len(next(iter(assigns.values()))),
                          {m: tuple(field.scalar_from_int(x) for x in v)
                           for m, v in assigns.items()})


def test_restrict_and_errors():
    c3 = cyclic(3)
    a2 = SymbolAlphabet(2)
    els = c3.elements()
    c = symbol_pattern(c3, a2, {els[0]: 1, els[1]: 0})
    r = c.restrict([els[0]])
    assert r.domain() == (els[0],)
    assert c.restrict([]).domain() == ()
    with pytest.raises(DomainError) as ei:
        c.restrict(els)
    assert ei.value.missing == [els[2]]


def test_shift_finite_default_candidates():
    c3 = cyclic(3)
    a2 = SymbolAlphabet(2)
    els = c3.elements()
    c = symbol_pattern(c3, a2, {e: i % 2 for i, e in enumerate(els)})
    g = els[1]
    sh = c.shift(g)
    for x in els:
        assert sh.value(x) == c.value(x * g)


def test_shift_infinite_needs_candidates():
    b = bicyclic()
    f2 = field_make(2)
    c = vp(b, f2, {b.identity: [1]})
    with pytest.raises(NotFinite):
        c.shift(b.q)
    sh = c.shift(b.q, candidates=[b.p, b.identity])
    # p*q = 1 is in the domain; 1*q = q is not
    assert sh.domain() == (b.p,)
    assert sh.value(b.p) == c.value(b.identity)


def test_shift_action_law_exhaustive():
    # shift(shift(c, m1), m2) = shift(c, m2*m1), all configs on cyclic(2), cyclic(3)
    for n in (2, 3):
        cn = cyclic(n)
        a2 = SymbolAlphabet(2)
        els = cn.elements()
        for mask in range(2 ** n):
            c = symbol_pattern(cn, a2, {e: (mask >> i) & 1 for i, e in enumerate(els)})
            for m1 in els:
                for m2 in els:
                    lhs = c.shift(m1).shift(m2)
                    rhs = c.shift(m2 * m1)
                    assert lhs == rhs


def test_required_domain_frozen():
    b = bicyclic()
    S = (b.p, b.q)
    W = (b.q,)
    got = required_domain(W, S)
    assert {str(e) for e in got} == {"1", "q^2"}
    assert required_domain(W, ()) == ()


def test_generator_windows_read_once():
    c3 = cyclic(3)
    f3 = field_make(3)
    els = c3.elements()
    alpha = parse_alg_literal("1 + 2*g", c3, f3)
    mat = mat_from_entries(f3, c3, [[alpha]])
    W = els[1:]
    assert required_domain(iter(W), alpha.support()) == tuple(els)
    c = vp(c3, f3, {els[0]: [1], els[1]: [2], els[2]: [0]})
    out = convolve_matrix(c, mat, iter(W))
    assert out == convolve_matrix(c, mat, W)
    assert out.domain() == tuple(W)
    with pytest.raises(DomainError) as ei:
        convolve_matrix(c.restrict(W), mat, iter(W))
    assert ei.value.missing == [els[0]]


def test_convolve_scalar_frozen_cyclic2():
    c2 = cyclic(2)
    f2 = field_make(2)
    e, g = c2.elements()
    c = vp(c2, f2, {e: [1], g: [0]})
    alpha = parse_alg_literal("1 + g", c2, f2)
    out = convolve_scalar(c, alpha, [e, g])
    assert out.value(e) == (f2.one,)
    assert out.value(g) == (f2.one,)


def test_convolve_with_identity_and_zero():
    c3 = cyclic(3)
    f3 = field_make(3)
    els = c3.elements()
    c = vp(c3, f3, {els[0]: [1], els[1]: [2], els[2]: [0]})
    out = convolve_scalar(c, alg_one(f3, c3), els)
    assert out == c
    z = convolve_scalar(c, alg_zero(f3, c3), els)
    assert z == zero_vector_pattern(c3, f3, 1, els)


def test_convolve_missing_sites_reported():
    b = bicyclic()
    f2 = field_make(2)
    c = vp(b, f2, {b.identity: [1]})
    alpha = parse_alg_literal("p + q", b, f2)
    with pytest.raises(DomainError) as ei:
        convolve_scalar(c, alpha, [b.q])
    assert {str(m) for m in ei.value.missing} == {"q^2"}


def test_missing_sites_named_once_in_canonical_order():
    """convolve_matrix, ca_apply and restrict name exactly the sites an
    oracle finds missing, each once and canonically sorted, on seeded
    windows that may repeat a site."""
    rng = random.Random(16)
    f2 = field_make(2)
    a2 = SymbolAlphabet(2)
    for monoid in (bicyclic(), cyclic(3), free_commutative(2)):
        els = (monoid.elements() if monoid.is_finite()
               else [monoid.elem(k) for k in product(range(3), repeat=2)])
        for _ in range(40):
            support = canonical_sorted(rng.sample(els, rng.randrange(1, 4)))
            window = [rng.choice(els) for _ in range(rng.randrange(1, 5))]
            need = required_domain(window, support)
            defined = [m for m in need if rng.random() < 0.5]
            want = canonical_sorted(set(need) - set(defined))
            c = vector_pattern(monoid, f2, 1, {m: (f2.one,) for m in defined})
            alpha = alg_from_terms(f2, monoid, [(s, f2.one) for s in support])
            mat = mat_from_entries(f2, monoid, [[alpha]])
            rule = CARule(monoid, a2, support, (0,) * 2 ** len(support))
            sym = symbol_pattern(monoid, a2, {m: 0 for m in defined})
            sites = [s * m for m in window for s in support]
            for call in (lambda: convolve_matrix(c, mat, window),
                         lambda: ca_apply(rule, sym, window),
                         lambda: sym.restrict(sites)):
                if not want:
                    call()
                    continue
                with pytest.raises(DomainError) as ei:
                    call()
                assert ei.value.missing == want


def test_convolve_matrix_identity_is_identity():
    c3 = cyclic(3)
    f3 = field_make(3)
    els = c3.elements()
    c = vp(c3, f3, {els[0]: [1, 2], els[1]: [0, 1], els[2]: [2, 2]})
    out = convolve_matrix(c, mat_identity(f3, c3, 2), els)
    assert out == c


def scalar_convolution_oracle(c, alpha, window):
    """(c * alpha)(m) = sum over s of c(s*m) * alpha_s, one site at a time."""
    field = alpha.field
    vals = {}
    for m in window:
        acc = field.zero
        for s in alpha.support():
            acc = acc + c.values[s * m][0] * alpha.coeff(s)
        vals[m] = (acc,)
    return vector_pattern(c.monoid, field, 1, vals)


def test_convolve_matrix_agrees_with_scalar_at_d1():
    rng = random.Random(9)
    c3 = cyclic(3)
    for field in (field_make(2), field_make(3), field_make(2, 2)):
        els = c3.elements()
        for _ in range(50):
            c = vector_pattern(c3, field, 1,
                               {e: (field.unrank(rng.randrange(field.order)),) for e in els})
            alpha_terms = "+".join(rng.choice(["1", "g", "g^2"]) for _ in range(2))
            alpha = parse_alg_literal(alpha_terms, c3, field)
            A = mat_from_entries(field, c3, [[alpha]])
            want = scalar_convolution_oracle(c, alpha, els)
            assert convolve_matrix(c, A, els) == want
            assert convolve_scalar(c, alpha, els) == want


def test_convolution_action_law_windowed():
    # (c*A)*B = c*(AB) on a window, bicyclic, with domain bookkeeping
    b = bicyclic()
    f3 = field_make(3)
    rng = random.Random(13)
    pool = [b.elem((i, j)) for i in range(2) for j in range(2)]
    for _ in range(100):
        d = rng.choice([1, 2])
        def rel():
            pairs = [(rng.choice(pool), f3.unrank(rng.randrange(3)))
                     for _ in range(rng.randrange(0, 3))]
            from moca.algebra import alg_from_terms
            return alg_from_terms(f3, b, pairs)
        A = mat_from_entries(f3, b, [[rel() for _ in range(d)] for _ in range(d)])
        B = mat_from_entries(f3, b, [[rel() for _ in range(d)] for _ in range(d)])
        W = [b.identity, b.q]
        W1 = required_domain(W, B.support()) or W
        need = set(required_domain(W1, A.support())) | set(W1) | set(W)
        c = vector_pattern(b, f3, d,
                           {m: tuple(f3.unrank(rng.randrange(3)) for _ in range(d))
                            for m in need})
        lhs = convolve_matrix(convolve_matrix(c, A, W1), B, W)
        rhs = convolve_matrix(c, A * B, W)
        assert lhs == rhs


def test_ca_identity_shift_restrict_vs_convolution():
    # evaluating via shift+restrict+local sum matches direct convolution
    c3 = cyclic(3)
    f2 = field_make(2)
    els = c3.elements()
    alpha = parse_alg_literal("1 + g^2", c3, f2)
    S = alpha.support()
    for mask in range(8):
        c = vp(c3, f2, {e: [(mask >> i) & 1] for i, e in enumerate(els)})
        direct = convolve_scalar(c, alpha, els)
        for m in els:
            local = c.shift(m).restrict(S)
            acc = f2.zero
            for s in S:
                acc = acc + local.value(s)[0] * alpha.coeff(s)
            assert direct.value(m) == (acc,)


def test_pattern_add_scale():
    c2 = cyclic(2)
    q = rationals()
    e, g = c2.elements()
    a = vp(c2, q, {e: [1], g: [2]})
    b = vp(c2, q, {e: [3], g: [4]})
    s = pattern_add(a, b)
    assert s.value(e) == (q.scalar_from_int(4),)
    half = q.parse_literal("1/2")
    sc = pattern_scale(a, half)
    assert sc.value(g) == (q.one,)
    with pytest.raises(CarrierMismatch):
        pattern_add(a, vp(c2, q, {e: [1]}))


def test_indicator_pattern():
    b = bicyclic()
    f2 = field_make(2)
    S = [b.p, b.q]
    ind = indicator_pattern(b, f2, 2, S, 1, b.q)
    assert ind.value(b.q) == (f2.zero, f2.one)
    assert ind.value(b.p) == (f2.zero, f2.zero)
    with pytest.raises(ValidationError):
        indicator_pattern(b, f2, 2, S, 0, b.identity)


def test_symbol_pattern_validation():
    c2 = cyclic(2)
    a2 = SymbolAlphabet(2)
    with pytest.raises(ValidationError):
        symbol_pattern(c2, a2, {c2.identity: 5})
    with pytest.raises(ValidationError):
        SymbolAlphabet(0)


def test_pattern_files_round_trip():
    b = bicyclic()
    f4 = field_make(2, 2)
    text = "1 := t+1,0\nq^1p^1 := 1,t\n"
    c = parse_vector_pattern(text, b, f4)
    assert c.d == 2
    assert serialize_pattern(c) == text
    a3 = SymbolAlphabet(3)
    sp = parse_symbol_pattern("1 := 2\ng := 0\n", cyclic(2), a3)
    assert sp.value(cyclic(2).identity) == 2
    assert serialize_pattern(sp) == "1 := 2\ng := 0\n"


def test_pattern_file_errors():
    c2 = cyclic(2)
    f2 = field_make(2)
    with pytest.raises(ParseError):
        parse_vector_pattern("", c2, f2)
    with pytest.raises(ParseError) as ei:
        parse_vector_pattern("1 := 1\ng := 1,0\n", c2, f2)
    assert ei.value.line == 2
    with pytest.raises(ParseError):
        parse_symbol_pattern("1 := 9\n", c2, SymbolAlphabet(2))
    with pytest.raises(ParseError):
        parse_symbol_pattern("1 := 0\n1 := 1\n", c2, SymbolAlphabet(2))
    # g and g^4 name one site of cyclic:3
    c3 = cyclic(3)
    for parse, carrier in ((parse_symbol_pattern, SymbolAlphabet(2)),
                           (parse_vector_pattern, field_make(2))):
        with pytest.raises(ParseError) as exc:
            parse("g := 1\n\ng^4 := 0\n", c3, carrier)
        assert str(exc.value) == "duplicate site 'g^4' (line 3)"
        with pytest.raises(ParseError) as exc:
            parse("g 1\n", c3, carrier)
        assert str(exc.value) == "expected 'site := value', got 'g 1' (line 1)"
        with pytest.raises(ParseError) as exc:
            parse("g := 1\nh := 1\n", c3, carrier)
        assert str(exc.value) == "unknown element 'h' in cyclic:3 (line 2)"
    # a bad value names its line, as in a matrix file
    with pytest.raises(ParseError) as exc:
        parse_vector_pattern("1 := 1,t\n\ng := 0,--1\n", c3, field_make(2, 2))
    assert str(exc.value) == "bad GF(2^2) literal '--1' (line 3)"


def test_vector_pattern_dimension_checks():
    c2 = cyclic(2)
    f2 = field_make(2)
    c = vp(c2, f2, {c2.identity: [1, 0]})
    with pytest.raises(CarrierMismatch):
        convolve_matrix(c, mat_identity(f2, c2, 3), [c2.identity])
    with pytest.raises(ValidationError):
        convolve_scalar(c, alg_one(f2, c2), [c2.identity])


def test_freecomm_windowed_convolution():
    fc = free_commutative(2)
    f2 = field_make(2)
    x1 = fc.generator(1)
    alpha = parse_alg_literal("x1 + x2", fc, f2)
    W = [fc.identity, x1]
    need = required_domain(W, alpha.support())
    c = vp(fc, f2, {m: [1] for m in need})
    out = convolve_scalar(c, alpha, W)
    assert out.value(fc.identity) == (f2.zero,)  # 1 + 1 over GF(2)
