import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moca.algebra import alg_from_terms, mat_from_entries, mat_identity
from moca.errors import BudgetExceeded, NotFinite, ParseError, ValidationError, _check_space
from moca.fields import field_make, rationals
from moca.monoids import bicyclic, cyclic, enumerate_monoids, table_monoid
from moca.sentence import (
    Equation,
    build_sentence,
    check_model,
    decode_witness,
    emit_json,
    emit_text,
    find_model,
    parse_system_json,
    with_field,
    _eval_blocks,
)

GF2 = field_make(2)
GF3 = field_make(3)
GF4 = field_make(2, 2)


def bicyclic_system(d=1):
    b = bicyclic()
    support = (b.p, b.q)
    spec, system = build_sentence(b, support, d)
    return b, support, spec, system


def test_build_frozen_bicyclic_d1():
    b, support, spec, system = bicyclic_system()
    assert system.var_names == (
        "x[0,0,p^1]", "x[0,0,q^1]", "y[0,0,p^1]", "y[0,0,q^1]")
    assert spec.support_names == ("p^1", "q^1")
    assert len(spec.x_names) == len(spec.y_names) == 2
    assert spec.diagonal == ((0, 0, "1"),)
    labels = [eq.label for eq in system.equations]
    assert labels == [(0, 0, "1"), (0, 0, "p^2"), (0, 0, "q^1p^1"), (0, 0, "q^2")]
    assert [eq.rhs for eq in system.equations] == [1, 0, 0, 0]
    # x_p*y_q = 1 and the three cross products vanish
    assert system.equations[0].monomials == ((0, 3),)
    assert system.equations[1].monomials == ((0, 2),)
    assert system.equations[2].monomials == ((1, 2),)
    assert system.equations[3].monomials == ((1, 3),)
    # swapped block: P(Y,X)_m with the x slot always holding an x variable
    assert system.negated[0].monomials == ((1, 2),)
    assert not any(eq.impossible for eq in system.equations)


def test_build_counts_d2():
    b, support, spec, system = bicyclic_system(d=2)
    assert system.nvars == 2 * 2 * 2 * 2  # 2 d^2 |S|
    assert len(spec.x_names) == 8
    assert len(spec.diagonal) == 2
    assert len(system.equations) == 4 * 4  # d^2 |S*S|
    for eq in system.equations:
        for xi, yi in eq.monomials:
            assert xi < 8 <= yi


def test_build_rejects_bad_support():
    b = bicyclic()
    with pytest.raises(ValidationError):
        build_sentence(b, (), 1)
    with pytest.raises(ValidationError):
        build_sentence(b, (b.p, b.p), 1)
    with pytest.raises(ValidationError):
        build_sentence(b, (b.p,), 0)
    with pytest.raises(ValidationError):
        build_sentence(b, (cyclic(2).identity,), 1)


def test_missing_identity_is_flagged():
    m = cyclic(3)
    g = m.parse_element("g")
    spec, system = build_sentence(m, (g,), 1)
    assert system.equations[0].impossible
    assert system.equations[0].rhs == 1
    assert system.equations[0].monomials == ()
    res = find_model(system, GF2)
    assert not res.sat
    assert res.reason is not None


def test_find_model_bicyclic_witness():
    b, support, spec, system = bicyclic_system()
    res = find_model(system, GF2, context=(b, support))
    assert res.sat
    assert res.space == 16
    assert res.witness_index == 9
    assert res.assignment == (1, 0, 0, 1)
    assert str(res.matrix_a.entries[0][0]) == "p^1"
    assert str(res.matrix_b.entries[0][0]) == "q^1"


def test_find_model_bicyclic_other_fields():
    b, support, spec, system = bicyclic_system()
    for field in (GF3, GF4):
        res = find_model(system, field, context=(b, support))
        assert res.sat
        # ranks 0/1 encode 0/1 in every field, so the witness is the same
        assert res.assignment == (1, 0, 0, 1)


def oracle_matrix_search(monoid, support, d, field):
    """Independent exhaustive search directly over matrix pairs."""
    support = tuple(support)
    ns = len(support)
    q = field.order
    ident = mat_identity(field, monoid, d)

    def matrices():
        for coeffs in itertools.product(range(q), repeat=d * d * ns):
            entries = []
            for i in range(d):
                row = []
                for j in range(d):
                    base = (i * d + j) * ns
                    row.append(alg_from_terms(field, monoid, [
                        (support[si], field.unrank(coeffs[base + si]))
                        for si in range(ns)]))
                entries.append(row)
            yield mat_from_entries(field, monoid, entries)

    idx = 0
    side = q ** (d * d * ns)
    for a in matrices():
        for b in matrices():
            if a * b == ident and b * a != ident:
                return idx, a, b
            idx += 1
    assert idx == side * side
    return None


def test_sat_bridge_bicyclic():
    b, support, spec, system = bicyclic_system()
    res = find_model(system, GF2, context=(b, support))
    oracle = oracle_matrix_search(b, support, 1, GF2)
    assert oracle is not None
    idx, mat_a, mat_b = oracle
    assert idx == res.witness_index
    assert mat_a == res.matrix_a and mat_b == res.matrix_b


def test_unsat_bridge_small_monoids():
    for monoid in enumerate_monoids(2) + enumerate_monoids(3)[:4]:
        spec, system = build_sentence(monoid, monoid.elements(), 1)
        res = find_model(system, GF2)
        assert not res.sat
        assert oracle_matrix_search(monoid, monoid.elements(), 1, GF2) is None


def test_unsat_all_order3_gf2():
    for monoid in enumerate_monoids(1) + enumerate_monoids(2) + enumerate_monoids(3):
        spec, system = build_sentence(monoid, monoid.elements(), 1)
        assert not find_model(system, GF2).sat


def test_commutative_support_unsat():
    m = cyclic(2)
    g = m.parse_element("g")
    spec, system = build_sentence(m, (g,), 1)
    for field in (GF2, GF3, GF4):
        assert not find_model(system, field).sat


def test_check_model_witness_and_zero():
    b, support, spec, system = bicyclic_system()
    res = find_model(system, GF2)
    assignment = dict(zip(system.var_names,
                          (GF2.unrank(r) for r in res.assignment)))
    rep = check_model(system, GF2, assignment)
    assert rep.satisfied and rep.positive_ok and rep.negation_ok
    assert rep.negation_witness == (0, 0, "1")
    zeros = {n: GF2.zero for n in system.var_names}
    rep0 = check_model(system, GF2, zeros)
    assert not rep0.positive_ok
    assert rep0.failed_positive == (0, 0, "1")


def test_check_model_identity_assignment_fails_negation():
    m = cyclic(2)
    spec, system = build_sentence(m, m.elements(), 1)
    assignment = {}
    for n in system.var_names:
        assignment[n] = GF2.one if ",1]" in n else GF2.zero
    rep = check_model(system, GF2, assignment)
    assert rep.positive_ok
    assert not rep.negation_ok
    assert not rep.satisfied


def test_check_model_missing_vars():
    b, support, spec, system = bicyclic_system()
    with pytest.raises(ValidationError):
        check_model(system, GF2, {"x[0,0,p^1]": GF2.one})


def test_check_model_agrees_with_rank_scan():
    rng = random.Random(41)
    cases = []
    m = cyclic(2)
    cases.append((m, m.elements(), 1))
    b = bicyclic()
    cases.append((b, (b.p, b.q), 1))
    cases.append((b, (b.p, b.q), 2))
    for monoid, support, d in cases:
        spec, system = build_sentence(monoid, support, d)
        for field in (GF2, GF3, GF4):
            add_t, mul_t = field.rank_tables()
            pos = tuple((eq.monomials, eq.rhs) for eq in system.equations)
            neg = tuple((eq.monomials, eq.rhs) for eq in system.negated)
            for _ in range(25):
                digits = [rng.randrange(field.order) for _ in range(system.nvars)]
                fast = _eval_blocks(digits, pos, neg, add_t, mul_t)
                slow = check_model(system, field, dict(zip(
                    system.var_names, (field.unrank(r) for r in digits))))
                assert fast == slow.satisfied


def test_emit_json_deterministic_roundtrip():
    b, support, spec, system = bicyclic_system()
    doc1 = emit_json(system)
    doc2 = emit_json(system)
    assert doc1 == doc2
    back = parse_system_json(doc1)
    assert back == system
    tagged = with_field(system, "2^2")
    assert parse_system_json(emit_json(tagged)) == tagged
    assert json.loads(emit_json(tagged))["meta"]["field"] == "2^2"


def test_emit_text_frozen():
    m = cyclic(1)
    spec, system = build_sentence(m, (m.identity,), 1)
    text = emit_text(system)
    assert text == (
        "∃ x[0,0,1] y[0,0,1] :\n"
        "P(X,Y):\n"
        "  x[0,0,1]*y[0,0,1] = 1   [0,0,1]\n"
        "∧ ¬P(Y,X):\n"
        "  y[0,0,1]*x[0,0,1] = 1   [0,0,1]\n")


def test_emit_text_marks_impossible():
    m = cyclic(3)
    spec, system = build_sentence(m, (m.parse_element("g"),), 1)
    text = emit_text(system)
    assert "0 = 1" in text
    assert "unsatisfiable" in text


def test_system_depends_only_on_support_table():
    m2 = cyclic(2)
    m4 = cyclic(4)
    _, sys2 = build_sentence(m2, (m2.identity,), 1)
    _, sys4 = build_sentence(m4, (m4.identity,), 1)
    assert emit_json(sys2) == emit_json(sys4)


def rename_support(system, mapping):
    def fix_name(n):
        for old, new in mapping.items():
            n = n.replace(f",{old}]", f",{new}]")
        return n

    def fix_eq(eq):
        i, j, m = eq.label
        return Equation((i, j, mapping.get(m, m)), eq.monomials, eq.rhs,
                        eq.impossible)

    meta = dict(system.meta)
    meta["support"] = [mapping.get(n, n) for n in meta["support"]]
    return type(system)(tuple(fix_name(n) for n in system.var_names),
                        tuple(fix_eq(e) for e in system.equations),
                        tuple(fix_eq(e) for e in system.negated), meta)


def test_structural_equality_across_monoids():
    # an idempotent away from the identity, in two unrelated monoids
    b = bicyclic()
    qp = b.q * b.p
    _, sys_b = build_sentence(b, (qp,), 1)
    t = table_monoid(["e", "a"], [[0, 1], [1, 1]])
    a = t.parse_element("a")
    _, sys_t = build_sentence(t, (a,), 1)
    renamed = rename_support(sys_b, {"q^1p^1": "a", "1": "e"})
    assert renamed == sys_t


def test_workers_match_sequential():
    b = bicyclic()
    support = (b.p, b.q)
    spec, system = build_sentence(b, support, 2)
    seq = find_model(system, GF2, context=(b, support), workers=1)
    par = find_model(system, GF2, context=(b, support), workers=3)
    assert seq.sat and par.sat
    assert seq.witness_index == par.witness_index
    assert seq.assignment == par.assignment
    assert seq.space == par.space == 2 ** 16
    ident = mat_identity(GF2, b, 2)
    assert seq.matrix_a * seq.matrix_b == ident
    assert seq.matrix_b * seq.matrix_a != ident


def test_budget_and_field_guards():
    b, support, spec, system = bicyclic_system()
    with pytest.raises(BudgetExceeded) as exc:
        find_model(system, GF2, budget=8)
    assert exc.value.required == 16
    assert str(exc.value) == "assignment space of size 2^4 exceeds budget 8"
    assert find_model(system, GF2, budget=16).space == 16
    with pytest.raises(NotFinite):
        find_model(system, rationals())


def test_space_check_is_exact_and_never_forms_an_oversize_power():
    assert _check_space(3, 15, 3 ** 15, "space") == 3 ** 15
    with pytest.raises(BudgetExceeded):
        _check_space(3, 15, 3 ** 15 - 1, "space")
    assert _check_space(1, 10 ** 18, 1, "space") == 1
    with pytest.raises(BudgetExceeded) as exc:
        _check_space(2, 10 ** 18, 2 ** 24, "space")
    assert str(exc.value) == f"space of size 2^{10 ** 18} exceeds budget {2 ** 24}"


def test_parse_system_json_errors():
    with pytest.raises(ParseError):
        parse_system_json("not json")
    with pytest.raises(ParseError):
        parse_system_json("{}")
    b, support, spec, system = bicyclic_system()
    obj = json.loads(emit_json(system))
    obj["equations"][0]["monomials"][0][0] = 2
    with pytest.raises(ParseError):
        parse_system_json(json.dumps(obj))
    obj2 = json.loads(emit_json(system))
    obj2["equations"][0]["monomials"][0][1] = 99
    with pytest.raises(ParseError):
        parse_system_json(json.dumps(obj2))
    obj3 = json.loads(emit_json(system))
    del obj3["meta"]["support"]
    with pytest.raises(ParseError):
        parse_system_json(json.dumps(obj3))


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=2, unique=True),
       st.sampled_from([2, 3]))
def test_sat_iff_matrix_pair_exists(which, p):
    m = cyclic(4)
    els = m.elements()
    support = tuple(els[i] for i in which)
    field = field_make(p)
    spec, system = build_sentence(m, support, 1)
    res = find_model(system, field, context=(m, support))
    oracle = oracle_matrix_search(m, support, 1, field)
    if res.sat:
        assert oracle is not None and oracle[0] == res.witness_index
    else:
        assert oracle is None
