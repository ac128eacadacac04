"""Seeded random generators and the randomized property suites.

Everything takes an explicit seed or an explicit random.Random so suites are
replayable; the CLI and the acceptance tests share these entry points.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product

from .algebra import alg_from_terms, alg_one, alg_zero, mat_from_entries, mat_identity
from .errors import NotFinite, ValidationError
from .fields import random_scalar
from .linear_ca import lca_apply, lca_compose, matrix_from_action, rule_from_matrix
from .monoids import canonical_sorted
from .patterns import convolve_matrix, convolve_scalar, pattern_add, random_vector_pattern, required_domain

__all__ = [
    "element_pool",
    "random_scalar",
    "random_alg_elem",
    "random_matrix",
    "random_vector_pattern",
    "random_unit_pair",
    "SuiteReport",
    "antihom_suite",
    "action_law_suite",
]


def element_pool(monoid, max_exponent=2):
    """A finite slice of the monoid to draw random supports from.

    Finite monoids contribute everything; the infinite built-ins contribute
    elements with generator exponents up to the bound.
    """
    if monoid.is_finite():
        return monoid.elements()
    kind = monoid.spec_string()
    if kind == "bicyclic":
        return canonical_sorted(monoid.elem((a, b))
                                for a in range(max_exponent + 1)
                                for b in range(max_exponent + 1))
    if kind.startswith("freecomm:"):
        rank = int(kind.split(":")[1])
        return canonical_sorted(monoid.elem(exps) for exps in
                                product(range(max_exponent + 1), repeat=rank))
    raise NotFinite(f"no sampling pool for {kind}")


def random_alg_elem(rng, monoid, field, pool):
    pairs = [(rng.choice(pool), random_scalar(rng, field))
             for _ in range(rng.randrange(3))]  # zero to two terms
    return alg_from_terms(field, monoid, pairs)


def random_matrix(rng, monoid, field, d, pool):
    return mat_from_entries(field, monoid, [
        [random_alg_elem(rng, monoid, field, pool) for _ in range(d)]
        for _ in range(d)])


def _monoid_units(monoid, pool):
    """Pool elements with a two-sided inverse in the pool, with the inverse."""
    one = monoid.identity
    units = []
    for x in pool:
        for y in pool:
            if x * y == one and y * x == one:
                units.append((x, y))
                break
    return units


def random_unit_pair(rng, monoid, field, d, pool=None):
    """A pair (U, V) with U*V = I_d and V*U = I_d by construction.

    U is a product of three elementary factors: transvections I + c*m*E[i,j]
    (i != j, square-zero off-diagonal part), diagonal scalings by c*m with
    c invertible and m an invertible monoid element, and row swaps.  V is
    the product of the factor inverses in reverse order.
    """
    if pool is None:
        pool = element_pool(monoid)
    units = _monoid_units(monoid, pool)
    ident = mat_identity(field, monoid, d)
    one, zero = alg_one(field, monoid), alg_zero(field, monoid)
    kinds = ["diag"] + (["transvection", "swap"] if d >= 2 else [])
    u = v = ident
    for _ in range(3):
        kind = rng.choice(kinds)
        i = j = rng.randrange(d)
        if kind != "diag":
            j = rng.randrange(d - 1)
            if j >= i:
                j += 1
        rows = [list(row) for row in ident.entries]
        if kind == "swap":
            rows[i][i] = rows[j][j] = zero
            rows[i][j] = rows[j][i] = one
            f = fi = mat_from_entries(field, monoid, rows)
        else:
            c = random_scalar(rng, field)
            if kind == "transvection":
                entry = alg_from_terms(field, monoid, [(rng.choice(pool), c)])
                inverse = -entry
            else:
                while c.is_zero():
                    c = random_scalar(rng, field)
                m, minv = rng.choice(units) if units else (monoid.identity,) * 2
                entry = alg_from_terms(field, monoid, [(m, c)])
                inverse = alg_from_terms(field, monoid, [(minv, c.inverse())])
            rows[i][j] = entry
            f = mat_from_entries(field, monoid, rows)
            rows[i][j] = inverse
            fi = mat_from_entries(field, monoid, rows)
        u = u * f
        v = fi * v
    return u, v


def _check_count(count):
    if count < 0:
        raise ValidationError(f"trial count must be >= 0, got {count}")


@dataclass(frozen=True)
class SuiteReport:
    name: str
    trials: int
    failures: int
    first_failure: object | None

    @property
    def ok(self):
        return self.failures == 0

    def __bool__(self):
        return self.ok


def antihom_suite(monoid, field, d, count, seed):
    """Composition of rules against matrix products, plus probe round-trips.

    Per trial: draw A, B; the rule composite of (A then B) must carry the
    matrix A*B; probing that composite as a black box must return A*B; and
    probing the rule of A alone must return A.
    """
    _check_count(count)
    rng = random.Random(seed)
    pool = element_pool(monoid)
    one = monoid.identity
    failures = 0
    first = None
    for t in range(count):
        a = random_matrix(rng, monoid, field, d, pool)
        b = random_matrix(rng, monoid, field, d, pool)
        ra = rule_from_matrix(a)
        rb = rule_from_matrix(b)
        comp = lca_compose(rb, ra)
        prod = a * b
        ok = comp.matrix == prod
        if ok:
            support = comp.memory if comp.memory else (one,)
            rec = matrix_from_action(
                monoid, field, d, support,
                lambda c: lca_apply(comp, c, (one,)),
                superposition_checks=0)
            ok = rec == prod
        if ok:
            sup_a = ra.memory if ra.memory else (one,)
            rec_a = matrix_from_action(
                monoid, field, d, sup_a,
                lambda c: lca_apply(ra, c, (one,)),
                superposition_checks=0)
            ok = rec_a == a
        if not ok:
            failures += 1
            if first is None:
                first = (t, a, b)
    return SuiteReport("antihom", count, failures, first)


def action_law_suite(monoid, field, d, count, seed):
    """Windowed module laws: (c*A)*B = c*(A*B), c*I = c, (c+c')*A = c*A+c'*A.

    The d=1 instances also check the first law through convolve_scalar.
    """
    _check_count(count)
    rng = random.Random(seed)
    pool = element_pool(monoid)
    ident = mat_identity(field, monoid, d)
    failures = 0
    first = None
    for t in range(count):
        a = random_matrix(rng, monoid, field, d, pool)
        b = random_matrix(rng, monoid, field, d, pool)
        ab = a * b
        window = tuple(rng.sample(pool, 2))
        w1 = required_domain(window, b.support())
        sites = canonical_sorted({*required_domain(w1, a.support()), *w1, *window,
                                  *required_domain(window, ab.support()),
                                  *required_domain(window, a.support())})
        c = random_vector_pattern(rng, monoid, field, d, sites)
        two_step = convolve_matrix(convolve_matrix(c, a, w1), b, window)
        one_step = convolve_matrix(c, ab, window)
        ok = all(two_step.value(m) == one_step.value(m) for m in window)
        if ok:
            cw = c.restrict(window)
            back = convolve_matrix(c, ident, window)
            ok = back == cw
        if ok:
            c2 = random_vector_pattern(rng, monoid, field, d, sites)
            lhs = convolve_matrix(pattern_add(c, c2), a, window)
            rhs = pattern_add(convolve_matrix(c, a, window),
                              convolve_matrix(c2, a, window))
            ok = lhs == rhs
        if ok and d == 1:
            alpha = a.entries[0][0]
            beta = b.entries[0][0]
            w1s = required_domain(window, beta.support())
            s_sites = canonical_sorted({*required_domain(w1s, alpha.support()), *w1s, *window,
                                        *required_domain(window, (alpha * beta).support())})
            cs = random_vector_pattern(rng, monoid, field, 1, s_sites)
            step1 = convolve_scalar(cs, alpha, w1s)
            lhs_s = convolve_scalar(step1, beta, window)
            rhs_s = convolve_scalar(cs, alpha * beta, window)
            ok = lhs_s == rhs_s
        if not ok:
            failures += 1
            if first is None:
                first = (t, a, b)
    return SuiteReport("action-laws", count, failures, first)
