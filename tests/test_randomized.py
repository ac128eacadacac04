import random

import pytest

from moca.algebra import alg_from_terms, mat_from_entries, mat_identity
from moca.errors import NotFinite, ValidationError
from moca.fields import field_make, rationals
from moca.finiteness import certify_two_sided
from moca.monoids import bicyclic, cyclic, free_commutative, table_monoid
from moca.randomized import (
    _monoid_units,
    action_law_suite,
    antihom_suite,
    element_pool,
    random_matrix,
    random_scalar,
    random_unit_pair,
)

GF2 = field_make(2)
GF4 = field_make(2, 2)


def test_element_pools():
    pool = element_pool(bicyclic())
    assert [str(e) for e in pool] == [
        "1", "p^1", "p^2", "q^1", "q^1p^1", "q^1p^2",
        "q^2", "q^2p^1", "q^2p^2"]
    assert len(element_pool(free_commutative(2))) == 9
    assert element_pool(cyclic(3)) == cyclic(3).elements()
    assert len(element_pool(bicyclic(), max_exponent=1)) == 4


def test_suites_deterministic():
    r1 = antihom_suite(bicyclic(), GF4, 1, 15, seed=3)
    r2 = antihom_suite(bicyclic(), GF4, 1, 15, seed=3)
    assert r1 == r2
    assert r1.ok and r1.trials == 15
    a1 = action_law_suite(cyclic(2), GF2, 2, 15, seed=3)
    a2 = action_law_suite(cyclic(2), GF2, 2, 15, seed=3)
    assert a1 == a2 and a1.ok


def test_suites_cover_families():
    t = table_monoid(["e", "a", "b"], [[0, 1, 2], [1, 1, 1], [2, 1, 2]])
    for monoid in (bicyclic(), cyclic(4), free_commutative(2), t):
        for field in (GF2, GF4):
            assert antihom_suite(monoid, field, 2, 10, seed=5).ok
            assert action_law_suite(monoid, field, 1, 10, seed=5).ok
    assert action_law_suite(bicyclic(), rationals(), 2, 10, seed=5).ok


def test_random_unit_pairs_certify():
    rng = random.Random(8)
    for monoid in (cyclic(2), cyclic(3)):
        for field in (GF2, GF4, field_make(3)):
            for d in (1, 2):
                for _ in range(5):
                    u, v = random_unit_pair(rng, monoid, field, d)
                    rep = certify_two_sided(u, v)
                    assert rep.ok


def test_random_unit_pairs_infinite_monoid():
    # no rank route for the bicyclic monoid, but the identities hold directly
    rng = random.Random(9)
    b = bicyclic()
    ident = mat_identity(GF2, b, 2)
    for _ in range(5):
        u, v = random_unit_pair(rng, b, GF2, 2)
        assert u * v == ident
        assert v * u == ident


def test_random_matrix_support_in_pool():
    rng = random.Random(10)
    pool = element_pool(bicyclic())
    for _ in range(20):
        m = random_matrix(rng, bicyclic(), GF4, 2, pool)
        assert set(m.support()) <= set(pool)


def oracle_random_unit_pair(rng, monoid, field, d, pool=None, steps=3):
    """random_unit_pair as it was written before it built each step from
    one copy of the identity: the same draws in the same order."""
    if pool is None:
        pool = element_pool(monoid)
    units = _monoid_units(monoid, pool)
    ident = mat_identity(field, monoid, d)
    u = ident
    v = ident
    for _ in range(steps):
        kinds = ["diag"]
        if d >= 2:
            kinds += ["transvection", "swap"]
        kind = rng.choice(kinds)
        if kind == "transvection":
            i = rng.randrange(d)
            j = rng.randrange(d - 1)
            if j >= i:
                j += 1
            c = random_scalar(rng, field)
            m = rng.choice(pool)
            term = alg_from_terms(field, monoid, [(m, c)])
            factor = [[ident.entries[a][b] for b in range(d)] for a in range(d)]
            factor[i][j] = term
            inverse = [[ident.entries[a][b] for b in range(d)] for a in range(d)]
            inverse[i][j] = -term
            f = mat_from_entries(field, monoid, factor)
            fi = mat_from_entries(field, monoid, inverse)
        elif kind == "swap":
            i = rng.randrange(d)
            j = rng.randrange(d - 1)
            if j >= i:
                j += 1
            rows = [[ident.entries[a][b] for b in range(d)] for a in range(d)]
            rows[i][i] = rows[j][j] = alg_from_terms(field, monoid, [])
            one_term = ident.entries[0][0]
            rows[i][j] = one_term
            rows[j][i] = one_term
            f = fi = mat_from_entries(field, monoid, rows)
        else:
            i = rng.randrange(d)
            c = random_scalar(rng, field)
            while c.is_zero():
                c = random_scalar(rng, field)
            m, minv = rng.choice(units) if units else (monoid.identity, monoid.identity)
            rows = [[ident.entries[a][b] for b in range(d)] for a in range(d)]
            rows[i][i] = alg_from_terms(field, monoid, [(m, c)])
            inv_rows = [[ident.entries[a][b] for b in range(d)] for a in range(d)]
            inv_rows[i][i] = alg_from_terms(field, monoid, [(minv, c.inverse())])
            f = mat_from_entries(field, monoid, rows)
            fi = mat_from_entries(field, monoid, inv_rows)
        u = u * f
        v = fi * v
    return u, v


@pytest.mark.parametrize("monoid", [bicyclic(), cyclic(3), free_commutative(2)],
                         ids=lambda m: m.spec_string())
def test_random_unit_pair_matches_oracle(monoid):
    # same (U, V) and the same generator state afterwards, so every later
    # draw (kernel-laws draws its unit pairs here) is unchanged too
    for field in (GF2, field_make(3), GF4, rationals()):
        for d in (1, 2, 3):
            for seed in range(20):
                rng, ref = random.Random(seed), random.Random(seed)
                assert (random_unit_pair(rng, monoid, field, d)
                        == oracle_random_unit_pair(ref, monoid, field, d))
                assert rng.getstate() == ref.getstate()


def test_suites_reject_negative_counts():
    for suite in (antihom_suite, action_law_suite):
        with pytest.raises(ValidationError, match="trial count must be >= 0, got -3"):
            suite(cyclic(2), GF2, 1, -3, seed=0)
        assert suite(cyclic(2), GF2, 1, 0, seed=0).trials == 0
