import random
from fractions import Fraction

import pytest

from moca.algebra import (
    alg_basis,
    alg_from_terms,
    mat_from_entries,
    mat_identity,
    mat_zero,
    parse_alg_literal,
)
from moca.errors import CarrierMismatch, NotFinite, ValidationError
from moca.fields import field_make, rationals
from moca.finiteness import (
    FlatMatrix,
    bicyclic_witness,
    certify_two_sided,
    flat_mul,
    flatten,
    gauss_rank,
    unflatten,
)
from moca.monoids import bicyclic, cyclic, enumerate_monoids
from moca.patterns import convolve_matrix, indicator_pattern

GF2 = field_make(2)
GF3 = field_make(3)
GF4 = field_make(2, 2)
QQ = rationals()


def rand_elem(rng, monoid, field, max_terms=2):
    els = monoid.elements()
    pairs = [(rng.choice(els), field.unrank(rng.randrange(field.order)))
             for _ in range(rng.randrange(max_terms + 1))]
    return alg_from_terms(field, monoid, pairs)


def rand_mat(rng, monoid, field, d):
    return mat_from_entries(field, monoid, [
        [rand_elem(rng, monoid, field) for _ in range(d)] for _ in range(d)])


def test_flatten_identity_and_zero():
    for d in (1, 2):
        m = cyclic(2)
        n = 2 * d
        eye = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        assert flatten(mat_identity(GF3, m, d)) == FlatMatrix(GF3, n, eye)
        assert flatten(mat_zero(GF3, m, d)) == FlatMatrix(GF3, n, ((0,) * n,) * n)


def test_flatten_shift_is_permutation():
    # d=1, A=[g] on the order-2 cyclic monoid: swaps the two basis slots
    m = cyclic(2)
    g = m.parse_element("g")
    a = mat_from_entries(GF2, m, [[alg_basis(GF2, m, g)]])
    assert flatten(a).rows == ((0, 1), (1, 0))


def test_flatten_requires_finite():
    with pytest.raises(NotFinite):
        flatten(mat_identity(GF2, bicyclic(), 1))


def test_flatten_matches_convolution_action():
    rng = random.Random(21)
    for monoid in (cyclic(3), enumerate_monoids(3)[4]):
        els = monoid.elements()
        for field in (GF2, GF3):
            for d in (1, 2):
                a = rand_mat(rng, monoid, field, d)
                flat = flatten(a)
                for mi, m0 in enumerate(els):
                    for i in range(d):
                        probe = indicator_pattern(monoid, field, d, els, i, m0)
                        out = convolve_matrix(probe, a, els)
                        row = flat.rows[mi * d + i]
                        for mj, mp in enumerate(els):
                            vals = out.value(mp)
                            for j in range(d):
                                assert row[mj * d + j] == vals[j].v


def test_flatten_multiplicative():
    rng = random.Random(22)
    for monoid in (cyclic(2), cyclic(3), enumerate_monoids(3)[9]):
        for field in (GF2, GF3):
            for d in (1, 2):
                for _ in range(5):
                    a = rand_mat(rng, monoid, field, d)
                    b = rand_mat(rng, monoid, field, d)
                    assert flatten(a * b) == flat_mul(flatten(a), flatten(b))


def test_flatten_faithful_roundtrip():
    m = cyclic(2)
    els = m.elements()
    for d in (1, 2):
        for i in range(d):
            for j in range(d):
                for s in els:
                    entries = [[alg_from_terms(GF3, m, []) for _ in range(d)]
                               for _ in range(d)]
                    entries[i][j] = alg_basis(GF3, m, s).scale(GF3.unrank(2))
                    mat = mat_from_entries(GF3, m, entries)
                    assert unflatten(flatten(mat), m, d) == mat
    rng = random.Random(23)
    for _ in range(20):
        mat = rand_mat(rng, m, GF4, 2)
        assert unflatten(flatten(mat), m, 2) == mat


def oracle_rank_span(flat):
    """Rank via the size of the row span; finite fields only."""
    f = flat.field
    vecs = {tuple(f.zero_v for _ in range(flat.size))}
    for row in flat.rows:
        new = set()
        for v in vecs:
            for c in range(f.order):
                cv = f.unrank(c).v
                new.add(tuple(f.add_v(x, f.mul_v(cv, y)) for x, y in zip(v, row)))
        vecs = new
    n = len(vecs)
    r = 0
    while f.order ** r < n:
        r += 1
    assert f.order ** r == n
    return r


def oracle_flat_mul(a, b):
    """The generic field-method product that flat_mul replaced."""
    f = a.field
    n = a.size
    bt = list(zip(*b.rows))
    out = []
    for i in range(n):
        arow = a.rows[i]
        orow = []
        for j in range(n):
            acc = f.zero_v
            bcol = bt[j]
            for k in range(n):
                acc = f.add_v(acc, f.mul_v(arow[k], bcol[k]))
            orow.append(acc)
        out.append(tuple(orow))
    return FlatMatrix(f, n, tuple(out))


def oracle_gauss_rank(flat):
    """The generic Gauss-Jordan rank that gauss_rank replaced."""
    f = flat.field
    n = flat.size
    rows = [list(r) for r in flat.rows]
    rank = 0
    for col in range(n):
        pivot = None
        for r in range(rank, n):
            if rows[r][col] != f.zero_v:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = f.inv_v(rows[rank][col])
        rows[rank] = [f.mul_v(inv, x) for x in rows[rank]]
        for r in range(n):
            if r != rank and rows[r][col] != f.zero_v:
                factor = rows[r][col]
                rows[r] = [f.sub_v(x, f.mul_v(factor, y))
                           for x, y in zip(rows[r], rows[rank])]
        rank += 1
        if rank == n:
            break
    return rank


DIFF_FIELDS = (GF2, GF3, field_make(5), GF4, field_make(2, 3), field_make(3, 2), QQ)


def rand_value(rng, field, big=False):
    """A raw field value, zero about a third of the time."""
    if rng.randrange(3) == 0:
        return field.zero_v
    if field.is_rational:
        top = 10**12 if big else 10
        return Fraction(rng.randrange(-top, top), rng.randrange(1, top))
    return field.unrank_v(rng.randrange(field.order))


def rand_flat(rng, f, n, big=False):
    """A square flat matrix, often with zero, repeated or dependent rows."""
    rows = [[rand_value(rng, f, big) for _ in range(n)] for _ in range(n)]
    if n:
        shape = rng.randrange(4)
        if shape == 1:
            rows[rng.randrange(n)] = [f.zero_v] * n
        elif shape == 2:
            rows[rng.randrange(n)] = list(rows[rng.randrange(n)])
        elif shape == 3:
            # rows past the first k are combinations of the first k
            k = rng.randrange(n)
            for i in range(k, n):
                comb = [f.zero_v] * n
                for basis in rows[:k]:
                    c = rand_value(rng, f, big)
                    comb = [f.add_v(x, f.mul_v(c, y)) for x, y in zip(comb, basis)]
                rows[i] = comb
            rng.shuffle(rows)
    return FlatMatrix(f, n, tuple(tuple(r) for r in rows))


def test_flat_kernel_matches_generic_oracles():
    rng = random.Random(25)
    for field in DIFF_FIELDS:
        for n in range(13):
            for _ in range(12):
                a = rand_flat(rng, field, n)
                b = rand_flat(rng, field, n)
                assert gauss_rank(a) == oracle_gauss_rank(a)
                got, want = flat_mul(a, b), oracle_flat_mul(a, b)
                assert got == want and hash(got.rows) == hash(want.rows)


def test_flat_kernel_rationals_large_and_hilbert():
    for n in range(1, 9):
        hilbert = FlatMatrix(QQ, n, tuple(tuple(Fraction(1, i + j + 1) for j in range(n))
                                          for i in range(n)))
        assert gauss_rank(hilbert) == oracle_gauss_rank(hilbert) == n
        got, want = flat_mul(hilbert, hilbert), oracle_flat_mul(hilbert, hilbert)
        assert got == want and hash(got.rows) == hash(want.rows)
    rng = random.Random(26)
    for n in (4, 7, 10):
        for k in range(n + 1):
            basis = [[rand_value(rng, QQ, big=True) for _ in range(n)] for _ in range(k)]
            rows = []
            for _ in range(n):
                comb = [Fraction(0)] * n
                for vec in basis:
                    c = rand_value(rng, QQ, big=True)
                    comb = [x + c * y for x, y in zip(comb, vec)]
                rows.append(tuple(comb))
            flat = FlatMatrix(QQ, n, tuple(rows))
            rank = gauss_rank(flat)
            assert rank == oracle_gauss_rank(flat) and rank <= k
            other = rand_flat(rng, QQ, n, big=True)
            got, want = flat_mul(flat, other), oracle_flat_mul(flat, other)
            assert got == want and hash(got.rows) == hash(want.rows)
            assert all(type(x) is Fraction for row in got.rows for x in row)


def test_gauss_rank_basics():
    eye = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert gauss_rank(FlatMatrix(GF2, 4, eye)) == 4
    assert gauss_rank(FlatMatrix(GF3, 3, ((0,) * 3,) * 3)) == 0
    singular = FlatMatrix(GF2, 2, ((1, 1), (1, 1)))
    assert gauss_rank(singular) == 1


def test_gauss_rank_matches_span_oracle():
    rng = random.Random(24)
    for field in (GF2, GF3, field_make(5), GF4, field_make(3, 2)):
        for _ in range(30):
            n = rng.randrange(1, 5)
            rows = tuple(tuple(field.unrank(rng.randrange(field.order)).v
                               for _ in range(n)) for _ in range(n))
            flat = FlatMatrix(field, n, rows)
            assert gauss_rank(flat) == oracle_rank_span(flat)


def test_gauss_rank_rationals():
    flat = FlatMatrix(QQ, 2, ((Fraction(2), Fraction(4)), (Fraction(1), Fraction(2))))
    assert gauss_rank(flat) == 1
    flat2 = FlatMatrix(QQ, 2, ((Fraction(2), Fraction(4)), (Fraction(1), Fraction(3))))
    assert gauss_rank(flat2) == 2


def test_flat_mul_guards():
    with pytest.raises(ValidationError):
        flat_mul(FlatMatrix(GF2, 2, ((1, 0), (0, 1))), FlatMatrix(GF2, 3, ((0,) * 3,) * 3))
    with pytest.raises(CarrierMismatch):
        flat_mul(FlatMatrix(GF2, 2, ((1, 0), (0, 1))), FlatMatrix(GF3, 2, ((1, 0), (0, 1))))


def test_certify_identity_pair():
    m = cyclic(3)
    for field in (GF2, GF3, GF4):
        for d in (1, 2):
            rep = certify_two_sided(mat_identity(field, m, d),
                                    mat_identity(field, m, d))
            assert rep.ok and rep.right_product_identity and rep.flat_full_rank
            assert rep.flat_rank == 3 * d
            assert rep.witness is None


def test_certify_transvection_and_diagonal():
    m = cyclic(2)
    g = m.parse_element("g")
    # I + g*E01 and its inverse I - g*E01
    u = mat_from_entries(GF3, m, [
        [parse_alg_literal("1", m, GF3), parse_alg_literal("g", m, GF3)],
        [parse_alg_literal("0", m, GF3), parse_alg_literal("1", m, GF3)]])
    uinv = mat_from_entries(GF3, m, [
        [parse_alg_literal("1", m, GF3), parse_alg_literal("-1*g", m, GF3)],
        [parse_alg_literal("0", m, GF3), parse_alg_literal("1", m, GF3)]])
    rep = certify_two_sided(u, uinv)
    assert rep.ok
    # diagonal unit [g] with g*g = 1
    a = mat_from_entries(GF3, m, [[alg_basis(GF3, m, g)]])
    rep2 = certify_two_sided(a, a)
    assert rep2.ok and rep2.flat_rank == 2


def test_certify_rejects_bad_precondition():
    m = cyclic(2)
    with pytest.raises(ValidationError):
        certify_two_sided(mat_zero(GF2, m, 1), mat_identity(GF2, m, 1))


def test_certify_requires_finite_monoid():
    w = bicyclic_witness(GF2)
    with pytest.raises(NotFinite):
        certify_two_sided(w.a, w.b)


def test_certify_carrier_checks():
    with pytest.raises(CarrierMismatch):
        certify_two_sided(mat_identity(GF2, cyclic(2), 1),
                          mat_identity(GF3, cyclic(2), 1))
    with pytest.raises(ValidationError):
        certify_two_sided(mat_identity(GF2, cyclic(2), 1),
                          mat_identity(GF2, cyclic(2), 2))


def test_bicyclic_witness_all_fields():
    for field in (GF2, GF3, GF4, QQ):
        w = bicyclic_witness(field)
        assert w.left_identity and not w.right_identity
        assert bool(w)
        assert w.residual == "q^1p^1"
        assert str(w.a.entries[0][0]) == "p^1"
        assert str(w.b.entries[0][0]) == "q^1"
