"""Monoid tests.

Oracle for the pq = 1 monoid: reduce words over {p, q} by repeatedly
deleting a "pq" factor.  Normal forms are exactly q^a p^b, so the oracle
never touches the closed-form product rule the package uses.
"""

import random

import pytest
from hypothesis import given, strategies as st

from moca.algebra import alg_one
from moca.errors import CarrierMismatch, NotFinite, ParseError, ValidationError
from moca.fields import field_make
from moca.monoids import (
    bicyclic,
    canonical_sorted,
    cyclic,
    enumerate_monoids,
    free_commutative,
    monoid_directly_finite,
    parse_monoid_spec,
    parse_table_text,
    product_set,
    serialize_table,
    table_monoid,
)


def rewrite_word(word):
    """Oracle: normal form (a, b) of a word over {p, q} under pq -> empty."""
    w = list(word)
    changed = True
    while changed:
        changed = False
        for i in range(len(w) - 1):
            if w[i] == "p" and w[i + 1] == "q":
                del w[i:i + 2]
                changed = True
                break
    a = w.count("q")
    b = w.count("p")
    # normal form must be q...qp...p
    assert w == ["q"] * a + ["p"] * b
    return (a, b)


def elem_of_word(monoid, word):
    out = monoid.identity
    for ch in word:
        out = out * (monoid.p if ch == "p" else monoid.q)
    return out


def test_bicyclic_frozen_products():
    b = bicyclic()
    assert (b.p * b.q) == b.identity
    assert (b.q * b.p).key == (1, 1)
    assert str(b.q * b.p) == "q^1p^1"
    x = b.parse_element("q^2p^3") * b.parse_element("q^1p^4")
    assert x.key == rewrite_word("qq" + "ppp" + "q" + "pppp") == (2, 6)


def test_bicyclic_against_rewriting_oracle():
    b = bicyclic()
    rng = random.Random(7)
    for _ in range(400):
        w = "".join(rng.choice("pq") for _ in range(rng.randrange(0, 12)))
        assert elem_of_word(b, w).key == rewrite_word(w)


def test_bicyclic_associativity_random():
    b = bicyclic()
    rng = random.Random(11)
    els = [b.elem((rng.randrange(4), rng.randrange(4))) for _ in range(60)]
    for _ in range(10_000):
        x, y, z = rng.choice(els), rng.choice(els), rng.choice(els)
        assert (x * y) * z == x * (y * z)


def test_freecomm_associativity_and_commutativity():
    f = free_commutative(3)
    rng = random.Random(3)
    for _ in range(10_000):
        x, y, z = (f.elem(tuple(rng.randrange(3) for _ in range(3))) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
    assert str(f.parse_element("x1^2x3")) == "x1^2x3^1"
    assert f.parse_element("x1x1") == f.parse_element("x1^2")


def test_identity_laws_all_families():
    for m in (bicyclic(), cyclic(5), free_commutative(2),
              parse_table_text("elements: e a\nrow: e a\nrow: a a\n")):
        one = m.identity
        samples = m.elements() if m.is_finite() else [
            m.parse_element(s) for s in ("1", "q^2p^1", "p^3")] if str(m.spec_string()) == "bicyclic" else [
            m.parse_element(s) for s in ("1", "x1^2", "x2")]
        for x in samples:
            assert one * x == x and x * one == x


def test_cyclic_frozen_products():
    c3 = cyclic(3)
    g = c3.parse_element("g")
    g2 = c3.parse_element("g^2")
    assert g2 * g == c3.identity
    assert g * g2 == c3.identity
    assert c3.identity * g == g


def test_product_set_frozen():
    b = bicyclic()
    S = (b.p, b.q)
    got = product_set(S, S)
    assert [e.key for e in got] == [(0, 0), (0, 2), (1, 1), (2, 0)]
    assert [str(e) for e in got] == ["1", "p^2", "q^1p^1", "q^2"]


def test_product_set_window():
    b = bicyclic()
    got = product_set((b.p, b.q), (b.q,))
    assert {str(e) for e in got} == {"1", "q^2"}


def test_product_set_reads_generators_once():
    c3 = cyclic(3)
    one, g = c3.elements()[:2]
    want = tuple(c3.elements())
    assert product_set([one, g], iter([one, g])) == want
    assert product_set(iter([one, g]), iter([one, g])) == want


def test_elements_listing():
    assert [str(e) for e in cyclic(3).elements()] == ["1", "g", "g^2"]
    with pytest.raises(NotFinite):
        bicyclic().elements()
    with pytest.raises(NotFinite):
        free_commutative(1).elements()


def test_mixed_monoid_product_raises():
    with pytest.raises(CarrierMismatch):
        cyclic(2).identity * cyclic(3).identity


def test_directly_finite_small():
    assert monoid_directly_finite(cyclic(4)).ok
    for n in (1, 2, 3):
        for m in enumerate_monoids(n):
            assert monoid_directly_finite(m).ok
    with pytest.raises(NotFinite):
        monoid_directly_finite(bicyclic())


def test_direct_finiteness_witness_shape():
    # a contrived non-example does not exist among tables; check the verdict API
    v = monoid_directly_finite(cyclic(2))
    assert bool(v) and v.witness is None


def oracle_enumerate(n):
    """Independent brute force over the (n-1)^2 free cells."""
    import itertools
    count = 0
    m = n - 1
    for block in itertools.product(range(n), repeat=m * m):
        rows = [[0] * n for _ in range(n)]
        for j in range(n):
            rows[0][j] = j
            rows[j][0] = j
        for i in range(m):
            for j in range(m):
                rows[i + 1][j + 1] = block[i * m + j]
        if all(rows[rows[i][j]][k] == rows[i][rows[j][k]]
               for i in range(n) for j in range(n) for k in range(n)):
            count += 1
    return count


def test_enumerate_monoids_counts():
    assert len(enumerate_monoids(1)) == 1
    assert len(enumerate_monoids(2)) == 2 == oracle_enumerate(2)
    assert len(enumerate_monoids(3)) == 11 == oracle_enumerate(3)
    with pytest.raises(ValidationError):
        enumerate_monoids(0)
    with pytest.raises(ValidationError):
        enumerate_monoids(4)


def test_enumerate_monoids_order2_frozen():
    tables = [m.rows for m in enumerate_monoids(2)]
    # z*z = e (the 2-element group) and z*z = z (the idempotent)
    assert tables == [((0, 1), (1, 0)), ((0, 1), (1, 1))]


def test_enumerated_tables_are_valid():
    for n in (1, 2, 3):
        for m in enumerate_monoids(n):
            els = m.elements()
            assert els[0] == m.identity
            for x in els:
                for y in els:
                    for z in els:
                        assert (x * y) * z == x * (y * z)


def test_table_file_round_trip():
    text = "elements: e a b\nrow: e a b\nrow: a b e\nrow: b e a\n"
    m = parse_table_text(text)
    assert m.order == 3
    assert serialize_table(m) == text
    a = m.parse_element("a")
    assert str(a * a) == "b"


def test_table_file_rejects_bad_input():
    with pytest.raises(ParseError) as ei:
        parse_table_text("elements: e a\nrow: e a\nrow: a c\n")
    assert ei.value.line == 3
    with pytest.raises(ValidationError) as ei2:
        # (a*a)*b = b*b = e but a*(a*b) = a*e = a
        parse_table_text("elements: e a b\nrow: e a b\nrow: a b e\nrow: b e e\n")
    assert ei2.value.witness == ("a", "a", "b")
    with pytest.raises(ValidationError):
        # identity not first
        table_monoid(("e", "a"), ((1, 0), (0, 1)))
    with pytest.raises(ValidationError):
        table_monoid(("0", "a"), ((0, 1), (1, 0)))


def test_serialize_table_renames_when_needed():
    text = serialize_table(cyclic(3))
    m = parse_table_text(text)
    assert m.order == 3


def test_parse_monoid_spec(tmp_path):
    assert parse_monoid_spec("bicyclic").spec_string() == "bicyclic"
    assert parse_monoid_spec("cyclic:4").order == 4
    assert parse_monoid_spec("freecomm:2").rank == 2
    path = tmp_path / "m.tbl"
    path.write_text("elements: e z\nrow: e z\nrow: z z\n")
    m = parse_monoid_spec(f"table:{path}")
    assert m.order == 2
    with pytest.raises(ParseError):
        parse_monoid_spec("dihedral:3")
    with pytest.raises(ParseError):
        parse_monoid_spec("table:/nonexistent/file")


def test_monoids_are_interned(tmp_path):
    assert cyclic(3) is parse_monoid_spec("cyclic:3")
    assert bicyclic() is parse_monoid_spec("bicyclic")
    assert free_commutative(2) is parse_monoid_spec("freecomm:2")
    for k in range(11):
        assert enumerate_monoids(3)[k] is enumerate_monoids(3)[k]
    path = tmp_path / "m.tbl"
    path.write_text(serialize_table(enumerate_monoids(3)[4]))
    spec = f"table:{path}"
    m = parse_monoid_spec(spec)
    assert m is parse_monoid_spec(spec)
    assert m.parse_element("a") is parse_monoid_spec(spec).parse_element("a")


def test_relabelled_table_is_another_monoid(tmp_path):
    # the same rows under the label table:PATH are a different carrier
    enumerated = enumerate_monoids(3)[4]
    path = tmp_path / "m.tbl"
    path.write_text(serialize_table(enumerated))
    relabelled = parse_monoid_spec(f"table:{path}")
    assert relabelled.rows == enumerated.rows
    assert relabelled is not enumerated
    assert relabelled.spec_string() == f"table:{path}"
    assert enumerated.spec_string() == "table3#4"
    assert relabelled.identity != enumerated.identity
    with pytest.raises(CarrierMismatch):
        relabelled.identity * enumerated.identity
    f = field_make(2)
    with pytest.raises(CarrierMismatch):
        alg_one(f, relabelled) + alg_one(f, enumerated)


def test_element_parse_round_trip_bicyclic():
    b = bicyclic()
    for a in range(4):
        for bb in range(4):
            e = b.elem((a, bb))
            assert b.parse_element(str(e)) == e
    assert b.parse_element("pq") == b.identity
    assert b.parse_element("qp").key == (1, 1)
    with pytest.raises(ParseError):
        b.parse_element("r")


def test_canonical_sorted_is_total():
    b = bicyclic()
    els = [b.elem((1, 1)), b.identity, b.elem((0, 2)), b.elem((2, 0))]
    assert [str(e) for e in canonical_sorted(els)] == ["1", "p^2", "q^1p^1", "q^2"]


@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.integers(0, 5))
def test_bicyclic_product_matches_oracle_hypothesis(a, b, c, d):
    m = bicyclic()
    word = "q" * a + "p" * b + "q" * c + "p" * d
    assert (m.elem((a, b)) * m.elem((c, d))).key == rewrite_word(word)
