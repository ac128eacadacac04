import itertools
import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moca.algebra import alg_from_terms, mat_from_entries, mat_identity
import moca.sentence as sentence
from moca.errors import BudgetExceeded, NotFinite, ParseError, ValidationError, _check_space
from moca.fields import decode_digits, field_make, rationals
from moca.monoids import bicyclic, cyclic, enumerate_monoids, free_commutative, table_monoid
from moca.randomized import element_pool
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
)

GF2 = field_make(2)
GF3 = field_make(3)
GF4 = field_make(2, 2)


# the brute-force oracle: every assignment in rank-lex order, rank tables


def _eval_blocks(digits, pos_eqs, neg_eqs, add_t, mul_t):
    for mono, rhs in pos_eqs:
        acc = 0
        for xi, yi in mono:
            acc = add_t[acc][mul_t[digits[xi]][digits[yi]]]
        if acc != rhs:
            return False
    for mono, rhs in neg_eqs:
        acc = 0
        for xi, yi in mono:
            acc = add_t[acc][mul_t[digits[xi]][digits[yi]]]
        if acc != rhs:
            return True
    return False


def _scan_range(args):
    pos_eqs, neg_eqs, add_t, mul_t, q, nvars, start, end = args
    digits = decode_digits(start, q, nvars)
    for i in range(start, end):
        if _eval_blocks(digits, pos_eqs, neg_eqs, add_t, mul_t):
            return i
        for pos in range(nvars - 1, -1, -1):
            digits[pos] += 1
            if digits[pos] < q:
                break
            digits[pos] = 0
    return None


def oracle_find_model(system, field):
    """(least model index, its assignment), or None."""
    add_t, mul_t, _, _ = field.rank_tables()
    pos = tuple((eq.monomials, eq.rhs) for eq in system.equations)
    neg = tuple((eq.monomials, eq.rhs) for eq in system.negated)
    q, nvars = field.order, system.nvars
    hit = _scan_range((pos, neg, add_t, mul_t, q, nvars, 0, q ** nvars))
    if hit is None:
        return None
    return hit, tuple(decode_digits(hit, q, nvars))


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
            add_t, mul_t, _, _ = field.rank_tables()
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
    # `workers` is accepted and has no effect
    b = bicyclic()
    support = (b.p, b.q)
    spec, system = build_sentence(b, support, 2)
    seq = find_model(system, GF2, context=(b, support), workers=1)
    for workers in (3, 4):
        par = find_model(system, GF2, context=(b, support), workers=workers)
        assert par == seq
    assert seq.sat and seq.witness_index == 10260
    assert seq.space == 2 ** 16
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


def bilinear_instances():
    """Seeded (monoid, support, d, field) with q^nvars <= 2^16."""
    rng = random.Random(7)
    b = bicyclic()
    bic = [b.identity, b.p, b.q, b.p * b.p, b.q * b.q, b.q * b.p]
    fc = free_commutative(2)
    # (monoid, elements every support has, the rest to draw from, draws)
    monoids = ([(b, bic[1:3], bic[:1] + bic[3:], 6), (b, [], bic[:1] + bic[3:], 6)]
               + [(m, [], m.elements(), 2) for m in
                  enumerate_monoids(2) + enumerate_monoids(3)
                  + [cyclic(2), cyclic(3), cyclic(4)]]
               + [(fc, [], element_pool(fc), 2)])
    fields = (GF2, GF3, GF4, field_make(5), field_make(2, 3), field_make(3, 2))
    for field in fields:
        for monoid, must, pool, draws in monoids:
            for _ in range(draws):
                d = rng.choice((1, 2))
                if field.order ** (2 * d * d * max(1, len(must))) > 2 ** 16:
                    d = 1
                fit = max(n for n in range(1, 9)
                          if field.order ** (2 * d * d * n) <= 2 ** 16)
                size = rng.randint(max(1, len(must)), min(fit, len(must) + len(pool)))
                support = must + rng.sample(pool, size - len(must))
                rng.shuffle(support)
                yield monoid, tuple(support), d, field


def test_bilinear_matches_brute_force_oracle():
    count = sat = 0
    for monoid, support, d, field in bilinear_instances():
        _, system = build_sentence(monoid, support, d)
        res = find_model(system, field)
        want = oracle_find_model(system, field)
        where = (monoid.spec_string(), [str(s) for s in support], d, field.name())
        if want is None:
            assert not res.sat, where
        else:
            assert res.sat, where
            assert (res.witness_index, res.assignment) == want, where
            sat += 1
        count += 1
    assert count >= 150 and sat >= 40


# Three-element bicyclic supports with a model, as in the sentence-sat
# benchmark workload; the indices are those of the exhaustive scan.
SAT_SUPPORTS3 = ("1,p,q", "q,p,1", "q,p,p^2", "1,q,p", "q,1,p", "q,p,q^2",
                 "p^2,q,p", "q^2,q,p")
SAT_INDICES = {
    "2": (17, 20, 20, 10, 12, 20, 10, 10),
    "3": (82, 90, 90, 30, 36, 90, 30, 30),
    "2^3": (4097, 4160, 4160, 520, 576, 4160, 520, 520),
}
SAT_INDICES_D2 = {"p,q": 10260, "q,p": 5160, "1,p,q": 589896,
                  "q,p,p^2": 590112, "q,p,1": 327944}


def test_sat_catalogue_pinned():
    b = bicyclic()
    cases = [(s, 1, spec, idx) for spec, row in SAT_INDICES.items()
             for s, idx in zip(SAT_SUPPORTS3, row)]
    cases += [(s, 2, "2", idx) for s, idx in SAT_INDICES_D2.items()]
    for text, d, spec, idx in cases:
        support = tuple(b.parse_element(s) for s in text.split(","))
        field = field_make(*map(int, spec.split("^")))
        _, system = build_sentence(b, support, d)
        res = find_model(system, field, context=(b, support))
        assert res.sat and res.witness_index == idx, (text, d, spec)
        assert res.assignment == tuple(decode_digits(idx, field.order, system.nvars))


def test_cyclic3_full_support_d2_unsat_is_fast():
    # 2^24 assignments, 2^12 X blocks
    m = cyclic(3)
    _, system = build_sentence(m, m.elements(), 2)
    t0 = time.perf_counter()
    res = find_model(system, GF2, budget=2 ** 24)
    assert time.perf_counter() - t0 < 10
    assert not res.sat and res.reason is None and res.space == 2 ** 24


def test_every_model_is_rechecked_by_scalar_arithmetic(monkeypatch):
    # a solver that claims a model everywhere yields the zero assignment,
    # which violates A*B = I; the re-check must catch it without context
    b, support, spec, system = bicyclic_system()
    monkeypatch.setattr(sentence, "_has_model", lambda *args: True)
    with pytest.raises(ValidationError, match="scalar re-verification"):
        find_model(system, GF2)


def test_parse_system_json_rejects_non_bilinear_monomials():
    b, support, spec, system = bicyclic_system()
    # variables 0, 1 are x, 2, 3 are y
    for block in ("equations", "negated_block"):
        for xi, yi in ((2, 3), (0, 1), (3, 0)):
            obj = json.loads(emit_json(system))
            obj[block][0]["monomials"][0] = [1, xi, yi]
            with pytest.raises(ParseError, match="must pair an x variable"):
                parse_system_json(json.dumps(obj))
