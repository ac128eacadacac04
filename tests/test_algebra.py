"""Monoid algebra tests: convolution products, supports, literals, matrices."""

import random

import pytest

from moca.errors import CarrierMismatch, ParseError
from moca.algebra import (
    AlgElem,
    alg_basis,
    alg_from_terms,
    alg_one,
    alg_zero,
    mat_from_entries,
    mat_identity,
    mat_zero,
    parse_alg_literal,
    parse_matrix_text,
    serialize_matrix,
)
from moca.fields import field_make, rationals
from moca.monoids import bicyclic, cyclic, enumerate_monoids, free_commutative, product_set


def lit(text, monoid, field):
    return parse_alg_literal(text, monoid, field)


def test_pq_is_one_in_the_algebra():
    b = bicyclic()
    f2 = field_make(2)
    p = lit("p", b, f2)
    q = lit("q", b, f2)
    assert p * q == alg_one(f2, b)
    assert q * p == lit("q^1p^1", b, f2)
    assert q * p != alg_one(f2, b)


def test_square_of_p_plus_q_frozen_gf2():
    b = bicyclic()
    f2 = field_make(2)
    s = lit("p + q", b, f2)
    sq = s * s
    # (p+q)^2 = p^2 + pq + qp + q^2 = p^2 + 1 + q^1p^1 + q^2 over GF(2)
    assert sq == lit("p^2 + 1 + q^1p^1 + q^2", b, f2)
    assert str(sq) == "1 + p^2 + q^1p^1 + q^2"


def test_char2_cancellation():
    b = bicyclic()
    f2 = field_make(2)
    s = lit("p + q", b, f2)
    assert (s + s).is_zero()


def test_scale_and_sub():
    c2 = cyclic(2)
    f3 = field_make(3)
    x = lit("1 + g", c2, f3)
    y = x.scale(f3.unrank(2))
    assert y == lit("2*1 + 2*g", c2, f3)
    assert (x - x).is_zero()
    assert str(alg_zero(f3, c2)) == "0"


def test_support_frozen():
    b = bicyclic()
    f2 = field_make(2)
    s = lit("p + q", b, f2)
    assert [str(m) for m in (s * s).support()] == ["1", "p^2", "q^1p^1", "q^2"]


def test_support_of_product_contained_in_product_set():
    rng = random.Random(5)
    f3 = field_make(3)
    b = bicyclic()
    pool = [b.elem((a, c)) for a in range(3) for c in range(3)]
    for _ in range(300):
        xs = [(rng.choice(pool), f3.unrank(rng.randrange(1, 3))) for _ in range(rng.randrange(1, 4))]
        ys = [(rng.choice(pool), f3.unrank(rng.randrange(1, 3))) for _ in range(rng.randrange(1, 4))]
        x = alg_from_terms(f3, b, xs)
        y = alg_from_terms(f3, b, ys)
        prod_supp = set((x * y).support())
        bound = set(product_set(x.support(), y.support())) if xs and ys else set()
        assert prod_supp <= bound or x.is_zero() or y.is_zero()


def _random_coeff(field, rng):
    if field.is_finite():
        return field.unrank(rng.randrange(field.order))
    return field.parse_literal(f"{rng.randrange(-3, 4)}/{rng.randrange(1, 4)}")


def _random_elem(monoid, field, pool, rng, max_terms=3):
    pairs = []
    for _ in range(rng.randrange(0, max_terms + 1)):
        c = _random_coeff(field, rng)
        pairs.append((rng.choice(pool), c))
    return alg_from_terms(field, monoid, pairs)


def _pool(monoid):
    if monoid.is_finite():
        return monoid.elements()
    if monoid.spec_string() == "bicyclic":
        return [monoid.elem((a, b)) for a in range(3) for b in range(3)]
    return [monoid.elem(k) for k in
            [(i, j) for i in range(3) for j in range(3)]]


MONOIDS = [bicyclic(), cyclic(3), free_commutative(2), enumerate_monoids(3)[4]]
FIELDS = [field_make(2), field_make(3), field_make(2, 2), rationals()]


@pytest.mark.parametrize("monoid", MONOIDS, ids=lambda m: m.spec_string())
@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name())
def test_ring_axioms_random(monoid, field):
    rng = random.Random(17)
    pool = _pool(monoid)
    one = alg_one(field, monoid)
    for _ in range(60):
        x = _random_elem(monoid, field, pool, rng)
        y = _random_elem(monoid, field, pool, rng)
        z = _random_elem(monoid, field, pool, rng)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (y + z) * x == y * x + z * x
        assert x * one == x and one * x == x
        assert x + y == y + x


def test_mixed_carrier_raises():
    f2, f3 = field_make(2), field_make(3)
    b = bicyclic()
    with pytest.raises(CarrierMismatch):
        alg_one(f2, b) + alg_one(f3, b)
    with pytest.raises(CarrierMismatch):
        alg_one(f2, b) * alg_one(f2, cyclic(2))
    # raw values carry no field, so the boundary checks every scalar, even
    # a lone one that nothing else would be added to
    with pytest.raises(CarrierMismatch):
        alg_from_terms(f2, b, [(b.identity, f3.one)])
    with pytest.raises(CarrierMismatch):
        alg_from_terms(f2, b, [(b.identity, f2.one), (b.elem((0, 1)), f3.one)])
    with pytest.raises(CarrierMismatch):
        alg_one(f2, b).scale(f3.one)


def test_literal_parsing_cases():
    b = bicyclic()
    f4 = field_make(2, 2)
    x = lit("(t+1)*q^2p^3 + t*p", b, f4)
    t = f4.parse_literal("t")
    assert x.coeff(b.elem((2, 3))) == t + f4.one
    assert x.coeff(b.elem((0, 1))) == t
    assert str(x) == "t*p^1 + (t+1)*q^2p^3"
    assert lit("0", b, f4).is_zero()
    assert lit("p + 0", b, f4) == lit("p", b, f4)
    assert lit("pq", b, f4) == alg_one(f4, b)


def test_literal_rationals_and_signs():
    c2 = cyclic(2)
    q = rationals()
    x = lit("1/3*g - 1/6*g", c2, q)
    assert str(x) == "1/6*g"
    y = lit("-g + 1", c2, q)
    assert y.coeff(c2.parse_element("g")) == -q.one
    assert lit("g - g", c2, q).is_zero()


def test_literal_errors():
    b = bicyclic()
    f2 = field_make(2)
    for bad in ("", "p +", "+ + p", "2", "r", "p*q", "(p", "p)q", "2*"):
        with pytest.raises(ParseError):
            lit(bad, b, f2)


def test_literal_round_trip():
    rng = random.Random(23)
    for monoid in MONOIDS:
        pool = _pool(monoid)
        for field in FIELDS:
            for _ in range(40):
                x = _random_elem(monoid, field, pool, rng)
                assert lit(str(x), monoid, field) == x


def test_matrix_identity_and_product():
    b = bicyclic()
    f2 = field_make(2)
    A = mat_from_entries(f2, b, [[lit("p", b, f2)]])
    B = mat_from_entries(f2, b, [[lit("q", b, f2)]])
    assert A * B == mat_identity(f2, b, 1)
    assert B * A != mat_identity(f2, b, 1)
    assert (B * A).entries[0][0] == lit("q^1p^1", b, f2)
    I = mat_identity(f2, b, 1)
    assert A * I == A and I * A == A


def test_matrix_support_frozen():
    b = bicyclic()
    f2 = field_make(2)
    A = mat_from_entries(f2, b, [
        [lit("p", b, f2), lit("q", b, f2)],
        [lit("0", b, f2), lit("1", b, f2)],
    ])
    assert [str(m) for m in A.support()] == ["1", "p^1", "q^1"]
    assert mat_zero(f2, b, 2).support() == ()


def test_matrix_ring_random_d3():
    rng = random.Random(31)
    c3 = cyclic(3)
    f3 = field_make(3)
    pool = _pool(c3)
    def rmat(d):
        return mat_from_entries(f3, c3, [
            [_random_elem(c3, f3, pool, rng, 2) for _ in range(d)] for _ in range(d)])
    I = mat_identity(f3, c3, 3)
    for _ in range(25):
        A, B, C = rmat(3), rmat(3), rmat(3)
        assert (A * B) * C == A * (B * C)
        assert A * I == A and I * A == A
        assert (A + B) * C == A * C + B * C


def test_matrix_file_round_trip():
    b = bicyclic()
    f4 = field_make(2, 2)
    text = "2\np + q ; 0\n1 ; (t+1)*q^2p^3\n"
    A = parse_matrix_text(text, b, f4)
    assert A.d == 2
    assert A.entries[0][0] == lit("p+q", b, f4)
    assert A.entries[1][1] == lit("(t+1)*q^2p^3", b, f4)
    again = parse_matrix_text(serialize_matrix(A), b, f4)
    assert again == A


def test_matrix_file_errors():
    b = bicyclic()
    f2 = field_make(2)
    with pytest.raises(ParseError):
        parse_matrix_text("", b, f2)
    with pytest.raises(ParseError):
        parse_matrix_text("x\np\n", b, f2)
    with pytest.raises(ParseError) as ei:
        parse_matrix_text("2\np ; q\np\n", b, f2)
    assert ei.value.line == 3
    with pytest.raises(ParseError):
        parse_matrix_text("1\nzzz\n", b, f2)


def test_matrix_file_errors_name_file_lines():
    # comment and blank lines count: the line number is the one in the file
    c2 = cyclic(2)
    f2 = field_make(2)
    with pytest.raises(ParseError) as ei:
        parse_matrix_text("# c\n\n2\n1 ; 0\n0 ; zz\n", c2, f2)
    assert ei.value.line == 5
    with pytest.raises(ParseError) as ei:
        parse_matrix_text("# c\n\n2\n1 ; 0 ; 1\n0 ; 1\n", c2, f2)
    assert str(ei.value) == "row has 3 entries, expected 2 (line 4)"
    with pytest.raises(ParseError) as ei:
        parse_matrix_text("# header\n\nx\n", c2, f2)
    assert str(ei.value) == "first line must be the dimension, got 'x' (line 3)"
    with pytest.raises(ParseError) as ei:
        parse_matrix_text("# header\n0\n", c2, f2)
    assert ei.value.line == 2


# The Scalar-level loops that AlgElem.__add__, scale, __mul__,
# alg_from_terms and AlgMatrix.__mul__ used before they shared one raw-value
# accumulator; they are the oracles for it.  They read coefficients through
# coeff(), add and multiply Scalars, and store the raw values only at the end.

def _scalar_terms(x):
    return {m: x.coeff(m) for m in x.terms}


def _elem(field, monoid, out):
    """The AlgElem of a {element: nonzero Scalar} dict."""
    return AlgElem(field, monoid, {m: c.v for m, c in out.items()})


def _oracle_accumulate(out, m, c):
    acc = out.get(m)
    s = c if acc is None else acc + c
    if s.is_zero():
        out.pop(m, None)
    else:
        out[m] = s


def oracle_from_terms(field, monoid, pairs):
    out = {}
    for m, c in pairs:
        _oracle_accumulate(out, m, c)
    return _elem(field, monoid, out)


def oracle_add(x, y):
    out = _scalar_terms(x)
    for m, c in _scalar_terms(y).items():
        _oracle_accumulate(out, m, c)
    return _elem(x.field, x.monoid, out)


def oracle_scale(x, scalar):
    if scalar.is_zero():
        return AlgElem(x.field, x.monoid, {})
    out = {}
    for m, c in _scalar_terms(x).items():
        s = scalar * c
        if not s.is_zero():
            out[m] = s
    return _elem(x.field, x.monoid, out)


def oracle_mul(x, y):
    out = {}
    for m1, c1 in _scalar_terms(x).items():
        for m2, c2 in _scalar_terms(y).items():
            _oracle_accumulate(out, m1 * m2, c1 * c2)
    return _elem(x.field, x.monoid, out)


def oracle_mat_mul(a, b):
    d = a.d
    out = []
    for i in range(d):
        row = []
        for j in range(d):
            acc = alg_zero(a.field, a.monoid)
            for k in range(d):
                acc = oracle_add(acc, oracle_mul(a.entries[i][k], b.entries[k][j]))
            row.append(acc)
        out.append(row)
    return mat_from_entries(a.field, a.monoid, out)


def _same_elem(got, want):
    # equal as dicts and in print; every coefficient a nonzero raw value of
    # the field, never a Scalar (dict order may differ)
    assert got == want and str(got) == str(want)
    assert got.support() == want.support()
    zero = got.field.zero_v
    assert all(type(v) is type(zero) and v != zero for v in got.terms.values())


@pytest.mark.parametrize("monoid", MONOIDS, ids=lambda m: m.spec_string())
@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name())
def test_collect_matches_scalar_oracles(monoid, field):
    rng = random.Random(41)
    pool = _pool(monoid)
    for _ in range(40):
        # a short pool makes repeated elements and cancellations common
        pairs = [(rng.choice(pool[:3]), _random_coeff(field, rng))
                 for _ in range(rng.randrange(7))]
        _same_elem(alg_from_terms(field, monoid, pairs),
                   oracle_from_terms(field, monoid, pairs))
        x = _random_elem(monoid, field, pool, rng)
        y = _random_elem(monoid, field, pool, rng)
        c = _random_coeff(field, rng)
        _same_elem(x + y, oracle_add(x, y))
        _same_elem(x + x.scale(-field.one), oracle_add(x, oracle_scale(x, -field.one)))
        _same_elem(x.scale(c), oracle_scale(x, c))
        _same_elem(x * y, oracle_mul(x, y))
    for d in (1, 2, 3):
        for _ in range(8):
            a = mat_from_entries(field, monoid, [
                [_random_elem(monoid, field, pool, rng) for _ in range(d)]
                for _ in range(d)])
            b = mat_from_entries(field, monoid, [
                [_random_elem(monoid, field, pool, rng) for _ in range(d)]
                for _ in range(d)])
            got, want = a * b, oracle_mat_mul(a, b)
            assert got == want and str(got) == str(want)
            assert got.support() == want.support()
            for row_g, row_w in zip(got.entries, want.entries):
                for eg, ew in zip(row_g, row_w):
                    _same_elem(eg, ew)


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name())
def test_collect_cancels_then_reappears(field):
    # a term that sums to zero part way and then comes back must survive
    # with the right coefficient, in sums, products and matrix products
    b = bicyclic()
    m, n = b.elem((0, 1)), b.elem((1, 0))
    one = field.one
    pairs = [(m, one), (n, one), (m, -one), (m, one + one)]
    got = alg_from_terms(field, b, pairs)
    _same_elem(got, oracle_from_terms(field, b, pairs))
    assert got.coeff(m) == one + one
    x = alg_from_terms(field, b, [(m, one), (n, one)])
    y = alg_from_terms(field, b, [(m, -one)])
    _same_elem(x + y, oracle_add(x, y))
    _same_elem((x + y) + x, oracle_add(oracle_add(x, y), x))
    # (p - q)(p + q) = p^2 + 1 - qp - q^2 over bicyclic
    u = alg_from_terms(field, b, [(m, one), (n, -one)])
    v = alg_from_terms(field, b, [(m, one), (n, one)])
    _same_elem(u * v, oracle_mul(u, v))
    # entry (0, 0) of A*B is e - e + e over k = 0, 1, 2
    e = alg_basis(field, b, m)
    zero = alg_zero(field, b)
    a = mat_from_entries(field, b, [[e, e, e], [zero] * 3, [zero] * 3])
    col = [alg_one(field, b), alg_one(field, b).scale(-one), alg_one(field, b)]
    bm = mat_from_entries(field, b, [[c, zero, zero] for c in col])
    got = a * bm
    assert got == oracle_mat_mul(a, bm)
    assert got.entries[0][0] == e
