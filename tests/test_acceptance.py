"""End-to-end acceptance gate.

Each test covers one numbered criterion, runs it at the stated scale, and
prints a single "ACCEPTANCE n ...: PASS" line (visible under pytest -s; a
failure shows up as the test failing instead).  Stated time bounds are
asserted; unbounded criteria only report their elapsed time.
"""

import contextlib
import io
import itertools
import subprocess
import sys
import time
import random

import pytest

from moca.algebra import alg_from_terms, alg_one
from moca.ca import (
    CARule,
    compose_rules,
    direct_finiteness_scan,
    full_map,
    left_inverse,
    surjunctivity_scan,
)
from moca.cli import main
from moca.fields import field_make, rationals
from moca.finiteness import bicyclic_witness, certify_two_sided, flat_mul, flatten
from moca.linear_ca import lca_dependence_scan, lca_min_memory, rule_from_matrix
from moca.monoids import bicyclic, cyclic, enumerate_monoids, free_commutative
from moca.patterns import SymbolAlphabet
from moca.randomized import (
    action_law_suite,
    antihom_suite,
    element_pool,
    random_matrix,
    random_unit_pair,
)
from moca.sentence import build_sentence, find_model
from moca.algebra import mat_zero

GF2 = field_make(2)
GF3 = field_make(3)
GF4 = field_make(2, 2)
FINITE_FIELDS = (GF2, GF3, GF4)


def _pass(n, label, elapsed=None):
    tail = f" [{elapsed:.2f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {n} {label}: PASS{tail}")


def run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def _small_monoids():
    return [m for n in (1, 2, 3) for m in enumerate_monoids(n)]


def test_criterion_01_bicyclic_witness():
    for spec, field in (("2", GF2), ("3", GF3), ("2^2", GF4),
                        ("Q", rationals())):
        t0 = time.perf_counter()
        rep = bicyclic_witness(field)
        rc, out, _ = run_cli(["finiteness", "bicyclic-witness",
                              "--field", spec])
        elapsed = time.perf_counter() - t0
        assert rep.left_identity and not rep.right_identity
        assert rep.residual == "q^1p^1"
        assert rc == 0
        assert "A*B = I: yes" in out and "B*A = I: no" in out
        assert elapsed < 0.1, f"{spec}: {elapsed:.3f}s"
    _pass(1, "bicyclic unit pair is one-sided over GF(2), GF(3), GF(4), Q")


def test_criterion_02_sentence_recovers_witness():
    b = bicyclic()
    support = (b.parse_element("p"), b.parse_element("q"))
    t0 = time.perf_counter()
    _, system = build_sentence(b, support, 1)
    res = find_model(system, GF2, context=(b, support))
    elapsed = time.perf_counter() - t0
    assert res.sat
    assert res.space == 16
    assert res.witness_index == 9  # least of the 16 assignments
    assert str(res.matrix_a.entries[0][0]) == "p^1"
    assert str(res.matrix_b.entries[0][0]) == "q^1"
    assert elapsed < 0.1, f"{elapsed:.3f}s"
    _pass(2, "sentence solver finds ([p],[q]) least in a 16-assignment space",
          elapsed)


def test_criterion_03_antihom_suite():
    monoids = [bicyclic(), cyclic(2), cyclic(3), cyclic(4)] + _small_monoids()
    t0 = time.perf_counter()
    seed = 300
    total = 0
    for monoid in monoids:
        for field in FINITE_FIELDS:
            for d in (1, 2):
                seed += 1
                rep = antihom_suite(monoid, field, d, 200, seed=seed)
                assert rep.ok, (monoid.spec_string(), field.name(), d,
                                rep.first_failure)
                total += rep.trials
    elapsed = time.perf_counter() - t0
    assert total == len(monoids) * 3 * 2 * 200
    assert elapsed < 60.0, f"{elapsed:.1f}s"
    _pass(3, f"composition and round-trip laws on {total} random pairs",
          elapsed)


def test_criterion_04_action_laws():
    small = _small_monoids()
    monoids = [bicyclic(), cyclic(2), cyclic(3), cyclic(4),
               free_commutative(2), small[3], small[-1]]
    t0 = time.perf_counter()
    seed = 400
    total = 0
    for monoid in monoids:
        for field in FINITE_FIELDS:
            for d in (1, 2):
                seed += 1
                rep = action_law_suite(monoid, field, d, 500, seed=seed)
                assert rep.ok, (monoid.spec_string(), field.name(), d,
                                rep.first_failure)
                total += rep.trials
    for d in (1, 2):  # exact rational arithmetic path
        rep = action_law_suite(bicyclic(), rationals(), d, 500, seed=499 + d)
        assert rep.ok
        total += rep.trials
    elapsed = time.perf_counter() - t0
    assert total == (len(monoids) * 3 * 2 + 2) * 500
    _pass(4, f"associativity and identity of the action on {total} instances",
          elapsed)


def test_criterion_05_minimal_memory():
    grid = [(m, f, d)
            for m in (bicyclic(), cyclic(3), free_commutative(2),
                      _small_monoids()[-1])
            for f in FINITE_FIELDS
            for d in (1, 2)]
    rng = random.Random(500)
    t0 = time.perf_counter()
    checked = 0
    for monoid, field, d in grid:
        pool = element_pool(monoid)
        padding = pool[:4]
        for _ in range(9):
            mat = random_matrix(rng, monoid, field, d, pool)
            rule = rule_from_matrix(mat)
            assert lca_min_memory(rule) == mat.support()
            assert lca_dependence_scan(rule, candidates=padding) == mat.support()
            checked += 1
        zero = rule_from_matrix(mat_zero(field, monoid, d))
        assert lca_min_memory(zero) == ()
        assert lca_dependence_scan(zero, candidates=padding) == ()
    elapsed = time.perf_counter() - t0
    assert checked >= 200
    _pass(5, f"probed dependence equals the entry support on {checked} "
             "random rules and the zero rule", elapsed)


def _matrix_exhaust_unsat(monoid, field, support):
    """All pairs of algebra elements supported in `support`: none satisfies
    a*b = 1 with b*a != 1.  Independent of the sentence machinery."""
    one = alg_one(field, monoid)
    q = field.order
    ns = len(support)
    for a_ranks in itertools.product(range(q), repeat=ns):
        a = alg_from_terms(field, monoid,
                           [(s, field.unrank(r))
                            for s, r in zip(support, a_ranks)])
        for b_ranks in itertools.product(range(q), repeat=ns):
            b = alg_from_terms(field, monoid,
                               [(s, field.unrank(r))
                                for s, r in zip(support, b_ranks)])
            if a * b == one and b * a != one:
                return False
    return True


def test_criterion_06_finite_monoids_unsat():
    t0 = time.perf_counter()
    for monoid in _small_monoids():
        support = tuple(monoid.elements())
        _, system = build_sentence(monoid, support, 1)
        res = find_model(system, GF2, context=(monoid, support))
        assert not res.sat, monoid.spec_string()
        assert res.space <= 2 ** 6
        assert _matrix_exhaust_unsat(monoid, GF2, support)
    c2 = cyclic(2)
    support = tuple(c2.elements())
    _, system = build_sentence(c2, support, 2)
    res = find_model(system, GF2, context=(c2, support), budget=2 ** 16)
    assert not res.sat
    assert res.space == 2 ** 16
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"{elapsed:.1f}s"
    _pass(6, "no one-sided-only unit pair over any order-<=3 monoid (d=1, "
             "double-checked by matrix exhaustion) nor cyclic(2) at d=2",
          elapsed)


_SCANS = {}


def _scan_small_monoids():
    if not _SCANS:
        alphabet = SymbolAlphabet(2)
        for monoid in _small_monoids():
            surj = surjunctivity_scan(monoid, alphabet)
            fin = direct_finiteness_scan(monoid, alphabet)
            _SCANS[monoid.spec_string()] = (monoid, surj, fin)
    return _SCANS


def test_criterion_07_surjunctivity_scan():
    t0 = time.perf_counter()
    scans = _scan_small_monoids()
    assert len(scans) == 14
    rules = 0
    for monoid, surj, fin in scans.values():
        expected = 2 ** (2 ** monoid.order)
        assert surj.total == expected <= 256
        assert surj.ok and surj.witness is None
        assert fin.ok and fin.witness is None
        assert fin.extra["pairs"] == expected ** 2
        rules += surj.total
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"{elapsed:.1f}s"
    _pass(7, f"injective implies surjective and one-sided identities are "
             f"two-sided across {rules} rules on 14 monoids", elapsed)


def test_criterion_08_left_inverses():
    scans = _scan_small_monoids()
    t0 = time.perf_counter()
    verified = 0
    for monoid, surj, _ in scans.values():
        memory = surj.extra["memory"]
        alphabet = SymbolAlphabet(2)
        ident = tuple(range(2 ** monoid.order))
        for table in surj.extra["injective_tables"]:
            rule = CARule(monoid, alphabet, memory, table)
            sigma = left_inverse(rule)
            comp = compose_rules(sigma, rule)
            assert full_map(comp) == ident
            verified += 1
    elapsed = time.perf_counter() - t0
    assert verified > 0
    _pass(8, f"constructed left inverses invert all {verified} injective "
             "rules on every configuration", elapsed)


def test_criterion_09_flatten_and_certify():
    finite = [cyclic(2), cyclic(3), cyclic(4)] + _small_monoids()
    fields = (GF2, GF3, GF4, rationals())
    rng = random.Random(900)
    t0 = time.perf_counter()
    pairs = 0
    configs = itertools.cycle([(m, f, d) for m in finite for f in fields
                               for d in (1, 2)])
    while pairs < 200:
        monoid, field, d = next(configs)
        pool = element_pool(monoid)
        a = random_matrix(rng, monoid, field, d, pool)
        b = random_matrix(rng, monoid, field, d, pool)
        assert flatten(a * b) == flat_mul(flatten(a), flatten(b))
        pairs += 1
    units = 0
    unit_configs = itertools.cycle(
        [(m, f, d) for m in (cyclic(2), cyclic(3), cyclic(4), finite[-1])
         for f in fields for d in (1, 2, 3)])
    while units < 100:
        monoid, field, d = next(unit_configs)
        u, v = random_unit_pair(rng, monoid, field, d)
        rep = certify_two_sided(u, v)
        assert rep.ok, (monoid.spec_string(), field.name(), d)
        units += 1
    elapsed = time.perf_counter() - t0
    _pass(9, f"flattening is multiplicative on {pairs} pairs and certifies "
             f"{units} constructed unit pairs as two-sided", elapsed)


def test_criterion_10_cli_determinism(tmp_path):
    def files(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    t = files("T.txt", "2\n1 ; g\n0 ; 1\n")
    ti = files("Ti.txt", "2\n1 ; -1*g\n0 ; 1\n")
    rule = files("xor.rule", "alphabet: 2\nmemory: 1 g\ntable: 0110\n")
    pat = files("cfg.pat", "1 := 1\ng := 0\n")
    vec = files("vec.pat", "1 := 1\ng := 0\n")
    m1 = files("M1.txt", "1\n1+g\n")
    assign = files("w.txt", "x[0,0,p^1] := 1\nx[0,0,q^1] := 0\n"
                            "y[0,0,p^1] := 0\ny[0,0,q^1] := 1\n")
    invocations = [
        ["mul", "--monoid", "bicyclic", "q", "p"],
        ["amul", "--monoid", "cyclic:3", "--field", "2^2", "t*1 + g", "g^2"],
        ["mat-mul", "--monoid", "cyclic:2", "--field", "3",
         "--matrixA", t, "--matrixB", ti],
        ["conv", "--monoid", "cyclic:2", "--field", "2", "--pattern", vec,
         "--matrix", m1, "--window", "1,g"],
        ["ca-apply", "--monoid", "cyclic:2", "--rule", rule,
         "--pattern", pat, "--window", "1,g"],
        ["ca-compose", "--monoid", "cyclic:2", "--first", rule,
         "--then", rule],
        ["ca-min-memory", "--monoid", "cyclic:2", "--rule", rule],
        ["ca-scan-surjunctivity", "--monoid", "cyclic:2", "--alphabet", "2"],
        ["psi", "--monoid", "cyclic:2", "--field", "2", "--matrix", m1],
        ["psi-inv", "--monoid", "cyclic:2", "--field", "2", "--dim", "1",
         "--support", "1,g", "--matrix", m1, "--seed", "3"],
        ["lca-check-antihom", "--monoid", "bicyclic", "--field", "2^2",
         "--dim", "2", "--count", "20", "--seed", "7"],
        ["finiteness", "certify", "--monoid", "cyclic:2", "--field", "3",
         "--matrixA", t, "--matrixB", ti],
        ["finiteness", "bicyclic-witness", "--field", "2"],
        ["sentence", "emit", "--monoid", "bicyclic", "--support", "p,q",
         "--dim", "1", "--field", "2", "--format", "json"],
        ["sentence", "solve", "--monoid", "bicyclic", "--support", "p,q",
         "--dim", "2", "--field", "2", "--workers", "4"],
        ["sentence", "check", "--monoid", "bicyclic", "--support", "p,q",
         "--dim", "1", "--field", "2", "--assign", assign],
        ["enumerate-monoids", "--order", "3"],
    ]
    t0 = time.perf_counter()
    covered = set()
    for argv in invocations:
        covered.add(argv[0] if argv[0] not in ("finiteness", "sentence")
                    else f"{argv[0]} {argv[1]}")
        for fmt in ([], ["--format", "json"]):
            if argv[:2] == ["sentence", "emit"] and fmt:
                continue  # its json form is the raw document, covered above
            first = run_cli(argv + fmt)
            second = run_cli(argv + fmt)
            assert first == second, argv
    # the SAT search under --workers 4 really did report a witness
    rc, out, _ = run_cli(["sentence", "solve", "--monoid", "bicyclic",
                          "--support", "p,q", "--dim", "2", "--field", "2",
                          "--workers", "4"])
    assert rc == 1 and "witness index: 10260" in out
    assert covered == {
        "mul", "amul", "mat-mul", "conv", "ca-apply", "ca-compose",
        "ca-min-memory", "ca-scan-surjunctivity", "psi", "psi-inv",
        "lca-check-antihom", "finiteness certify",
        "finiteness bicyclic-witness", "sentence emit", "sentence solve",
        "sentence check", "enumerate-monoids"}
    elapsed = time.perf_counter() - t0
    _pass(10, "every command is byte-deterministic, including the 4-way "
              "parallel witness search", elapsed)
