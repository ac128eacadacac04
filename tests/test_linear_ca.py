import random

import pytest

from moca.algebra import (
    alg_basis,
    alg_from_terms,
    mat_from_entries,
    mat_identity,
    mat_zero,
    parse_alg_literal,
)
from moca.errors import NotFinite, ValidationError
from moca.fields import Scalar, field_make, rationals
from moca.linear_ca import (
    LinearRule,
    lca_apply,
    lca_compose,
    lca_dependence_scan,
    lca_injective_surjective,
    lca_min_memory,
    matrix_from_action,
    rule_from_matrix,
)
from moca.monoids import (
    bicyclic,
    canonical_sorted,
    cyclic,
    enumerate_monoids,
    free_commutative,
    product_set,
)
from moca.patterns import required_domain, vector_pattern
from moca.randomized import element_pool, random_matrix, random_vector_pattern

GF2 = field_make(2)
GF3 = field_make(3)
GF4 = field_make(2, 2)
QQ = rationals()


def rand_elem(rng, monoid, field, pool, max_terms=2):
    pairs = [(rng.choice(pool), field.unrank(rng.randrange(field.order)))
             for _ in range(rng.randrange(max_terms + 1))]
    return alg_from_terms(field, monoid, pairs)


def rand_mat(rng, monoid, field, d, pool=None):
    if pool is None:
        pool = monoid.elements() if monoid.is_finite() else _bicyclic_pool(monoid)
    return mat_from_entries(field, monoid, [
        [rand_elem(rng, monoid, field, pool) for _ in range(d)] for _ in range(d)])


def _bicyclic_pool(b):
    return [b.elem((a, c)) for a in range(3) for c in range(3)]


def rand_pattern(rng, monoid, field, d, sites):
    vals = {s: tuple(field.unrank(rng.randrange(field.order)) for _ in range(d))
            for s in sites}
    return vector_pattern(monoid, field, d, vals)


def replay_oracle(rule, pattern, window):
    """The local map at each site m of the window: with p the memory pattern
    around m, output j is sum over i, s of p_i(s) * A[i][j]_s."""
    field, d = rule.field, rule.d
    out = {}
    for m in window:
        local = pattern.shift(m, candidates=rule.memory)
        acc = [field.zero_v] * d
        for s in rule.memory:
            vec = local.values[s]
            for i in range(d):
                vi = vec[i].v
                if vi == field.zero_v:
                    continue
                row = rule.matrix.entries[i]
                for j in range(d):
                    coeff = row[j].coeff(s)
                    if not coeff.is_zero():
                        acc[j] = field.add_v(acc[j], field.mul_v(vi, coeff.v))
        out[m] = tuple(Scalar(field, v) for v in acc)
    return out


def test_lca_apply_matches_the_local_map_replay():
    rng = random.Random(36)
    table = random.Random(7).choice(enumerate_monoids(3))
    for monoid in (bicyclic(), free_commutative(2), cyclic(3), table):
        pool = element_pool(monoid)
        for field in (GF2, GF3, GF4, QQ):
            for d in (1, 2, 3):
                for _ in range(4):
                    rule = rule_from_matrix(random_matrix(rng, monoid, field, d, pool))
                    window = pool if monoid.is_finite() else rng.sample(pool, 3)
                    sites = set(required_domain(window, rule.memory)) | set(window)
                    c = random_vector_pattern(rng, monoid, field, d,
                                              canonical_sorted(sites))
                    # a one-shot iterator: lca_apply must list the window first
                    out = lca_apply(rule, c, iter(window))
                    assert out.values == replay_oracle(rule, c, window)


def test_identity_rule_fixes_patterns():
    rng = random.Random(31)
    for monoid in (cyclic(3), bicyclic()):
        pool = monoid.elements() if monoid.is_finite() else _bicyclic_pool(monoid)
        for field in (GF2, GF4):
            for d in (1, 2):
                rule = rule_from_matrix(mat_identity(field, monoid, d))
                assert rule.memory == (monoid.identity,)
                for _ in range(10):
                    window = tuple(rng.sample(pool, 3))
                    c = rand_pattern(rng, monoid, field, d, window)
                    out = lca_apply(rule, c, window)
                    for m in window:
                        assert out.value(m) == c.value(m)


def test_zero_rule_empty_memory():
    b = bicyclic()
    rule = rule_from_matrix(mat_zero(GF3, b, 2))
    assert rule.memory == ()
    c = rand_pattern(random.Random(0), b, GF3, 2, [b.identity])
    out = lca_apply(rule, c, (b.identity, b.p))
    assert all(v.is_zero() for m in (b.identity, b.p) for v in out.value(m))
    assert lca_dependence_scan(rule, candidates=[b.identity, b.p, b.q]) == ()


def test_shift_rule_frozen():
    # d=1, matrix [p]: output at m reads the input at p*m
    b = bicyclic()
    rule = rule_from_matrix(mat_from_entries(GF2, b, [[alg_basis(GF2, b, b.p)]]))
    one = GF2.one
    zero = GF2.zero
    c = vector_pattern(b, GF2, 1, {b.p: (one,), b.identity: (zero,)})
    out = lca_apply(rule, c, (b.identity, b.q))
    assert out.value(b.identity) == (one,)   # reads c(p)
    assert out.value(b.q) == (zero,)         # p*q = identity


def test_min_memory_and_dependence():
    b = bicyclic()
    a = mat_from_entries(GF2, b, [[parse_alg_literal("p^1 + q^1", b, GF2)]])
    rule = rule_from_matrix(a)
    assert [str(e) for e in lca_min_memory(rule)] == ["p^1", "q^1"]
    scan = lca_dependence_scan(rule, candidates=[b.identity, b.p, b.q, b.q * b.p])
    assert scan == rule.memory


def test_dependence_scan_random_equals_support():
    rng = random.Random(32)
    for monoid in (cyclic(3), bicyclic(), free_commutative(2)):
        if monoid.is_finite():
            pool = monoid.elements()
        elif monoid.spec_string() == "bicyclic":
            pool = _bicyclic_pool(monoid)
        else:
            pool = [monoid.identity, monoid.generator(1), monoid.generator(2),
                    monoid.generator(1) * monoid.generator(2)]
        for field in (GF2, GF3):
            for d in (1, 2):
                for _ in range(5):
                    a = rand_mat(rng, monoid, field, d, pool)
                    rule = rule_from_matrix(a)
                    padding = [p for p in pool if p not in rule.memory][:2]
                    scan = lca_dependence_scan(rule, candidates=list(rule.memory) + padding)
                    assert scan == a.support()


def test_compose_matches_sequential_apply():
    rng = random.Random(33)
    for monoid in (cyclic(3), bicyclic()):
        pool = monoid.elements() if monoid.is_finite() else _bicyclic_pool(monoid)
        for field in (GF2, GF3, GF4):
            for d in (1, 2):
                for _ in range(5):
                    inner = rule_from_matrix(rand_mat(rng, monoid, field, d, pool))
                    outer = rule_from_matrix(rand_mat(rng, monoid, field, d, pool))
                    comp = lca_compose(outer, inner)
                    assert comp.matrix == inner.matrix * outer.matrix
                    window = tuple(rng.sample(pool, 2))
                    w1 = required_domain(window, outer.memory)
                    need = set(required_domain(w1, inner.memory)) | set(w1) | set(window)
                    c = rand_pattern(rng, monoid, field, d, need)
                    two_step = lca_apply(outer, lca_apply(inner, c, w1), window)
                    one_step = lca_apply(comp, c, window)
                    for m in window:
                        assert two_step.value(m) == one_step.value(m)


def test_bicyclic_one_sided_composition():
    b = bicyclic()
    rp = rule_from_matrix(mat_from_entries(GF2, b, [[alg_basis(GF2, b, b.p)]]))
    rq = rule_from_matrix(mat_from_entries(GF2, b, [[alg_basis(GF2, b, b.q)]]))
    # apply rp first, then rq: matrix [p]*[q] = [pq] = I
    assert lca_compose(rq, rp).matrix == mat_identity(GF2, b, 1)
    # the other order is [qp], not the identity
    other = lca_compose(rp, rq).matrix
    assert other != mat_identity(GF2, b, 1)
    assert str(other.entries[0][0]) == "q^1p^1"


def test_compose_with_identity_rule():
    rng = random.Random(34)
    m = cyclic(3)
    ident = rule_from_matrix(mat_identity(GF3, m, 2))
    a = rule_from_matrix(rand_mat(rng, m, GF3, 2))
    assert lca_compose(ident, a) == a
    assert lca_compose(a, ident) == a


def test_matrix_from_action_roundtrip():
    rng = random.Random(35)
    monoids = [cyclic(3), bicyclic(), free_commutative(2), enumerate_monoids(3)[6]]
    for monoid in monoids:
        if monoid.is_finite():
            pool = monoid.elements()
        elif monoid.spec_string() == "bicyclic":
            pool = _bicyclic_pool(monoid)
        else:
            pool = [monoid.identity, monoid.generator(1), monoid.generator(2)]
        for field in (GF2, GF3, GF4):
            for d in (1, 2, 3):
                a = rand_mat(rng, monoid, field, d, pool)
                rule = rule_from_matrix(a)
                support = a.support() if a.support() else (monoid.identity,)
                action = lambda c: lca_apply(rule, c, (monoid.identity,))
                got = matrix_from_action(monoid, field, d, support, action,
                                         rng=random.Random(1))
                assert got == a


def test_matrix_from_action_superset_support():
    b = bicyclic()
    a = mat_from_entries(GF3, b, [[parse_alg_literal("2*p^1", b, GF3)]])
    rule = rule_from_matrix(a)
    support = (b.identity, b.p, b.q)
    action = lambda c: lca_apply(rule, c, (b.identity,))
    got = matrix_from_action(b, GF3, 1, support, action, rng=random.Random(2))
    assert got == a


def test_matrix_from_action_zero_map():
    m = cyclic(2)
    rule = rule_from_matrix(mat_zero(GF2, m, 2))
    action = lambda c: lca_apply(rule, c, (m.identity,))
    got = matrix_from_action(m, GF2, 2, m.elements(), action, rng=random.Random(3))
    assert got == mat_zero(GF2, m, 2)


def test_matrix_from_action_rejects_nonlinear():
    m = cyclic(2)
    one = m.identity

    def squaring(c):
        v = c.value(one)[0]
        return vector_pattern(m, GF4, 1, {one: (v * v,)})

    with pytest.raises(ValidationError):
        matrix_from_action(m, GF4, 1, m.elements(), squaring, rng=random.Random(4))


def test_matrix_from_action_rejects_duplicate_support():
    m = cyclic(2)
    rule = rule_from_matrix(mat_identity(GF2, m, 1))
    action = lambda c: lca_apply(rule, c, (m.identity,))
    with pytest.raises(ValidationError):
        matrix_from_action(m, GF2, 1, (m.identity, m.identity), action)


def test_verdicts_identity_and_zero():
    m = cyclic(3)
    for d in (1, 2):
        v = lca_injective_surjective(rule_from_matrix(mat_identity(GF2, m, d)))
        assert v.injective and v.surjective and v.rank == v.size == 3 * d
        vz = lca_injective_surjective(rule_from_matrix(mat_zero(GF2, m, d)))
        assert not vz.injective and not vz.surjective and vz.rank == 0


def test_verdict_singular_frozen():
    m = cyclic(2)
    a = mat_from_entries(GF2, m, [[parse_alg_literal("1 + g", m, GF2)]])
    v = lca_injective_surjective(rule_from_matrix(a))
    assert not v.injective and v.rank == 1 and v.size == 2


def test_verdict_matches_bruteforce():
    # d=1 over the order-2 cyclic monoid, GF(2): check every matrix
    m = cyclic(2)
    els = m.elements()
    import itertools
    for coeffs in itertools.product(range(2), repeat=2):
        a = alg_from_terms(GF2, m, [(els[i], GF2.scalar_from_int(coeffs[i]))
                                    for i in range(2)])
        rule = rule_from_matrix(mat_from_entries(GF2, m, [[a]]))
        outs = set()
        total = 0
        for vals in itertools.product(range(2), repeat=2):
            c = vector_pattern(m, GF2, 1, {
                els[i]: (GF2.scalar_from_int(vals[i]),) for i in range(2)})
            out = lca_apply(rule, c, els)
            outs.add(tuple(out.value(e)[0].v for e in els))
            total += 1
        injective = len(outs) == total
        v = lca_injective_surjective(rule)
        assert v.injective == injective


def test_verdict_guards():
    with pytest.raises(NotFinite):
        lca_injective_surjective(rule_from_matrix(mat_identity(GF2, bicyclic(), 1)))
    with pytest.raises(NotFinite):
        lca_injective_surjective(rule_from_matrix(mat_identity(rationals(), cyclic(2), 1)))


def test_rule_equality_and_repr():
    m = cyclic(2)
    r1 = rule_from_matrix(mat_identity(GF2, m, 1))
    r2 = rule_from_matrix(mat_identity(GF2, m, 1))
    assert r1 == r2
    assert "d=1" in repr(r1)
    assert LinearRule(mat_identity(GF2, m, 1)) == r1
