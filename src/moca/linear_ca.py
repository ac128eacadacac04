"""Linear cellular automata: rules that convolve patterns with a matrix.

A rule is identified with its d x d matrix over the monoid algebra; the
memory set is the union of entry supports, which is also the minimal one.
Matrices and rules swap composition order: applying rule(A) then rule(B)
convolves with A*B.  The matrix behind a black-box linear map is recovered
by probing with indicator patterns and reading the output at the identity;
the dependence scan is the support of the matrix so probed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .algebra import _check_carriers, alg_from_terms, mat_from_entries
from .errors import NotFinite, ValidationError
from .fields import random_scalar
from .finiteness import flatten, gauss_rank
from .monoids import canonical_sorted
from .patterns import (
    convolve_matrix,
    indicator_pattern,
    pattern_add,
    pattern_scale,
    random_vector_pattern,
)

__all__ = [
    "LinearRule",
    "rule_from_matrix",
    "lca_apply",
    "lca_compose",
    "lca_min_memory",
    "lca_dependence_scan",
    "matrix_from_action",
    "LcaVerdict",
    "lca_injective_surjective",
]


class LinearRule:
    """Convolution rule c -> c*A.  Carries nothing beyond the matrix."""

    __slots__ = ("matrix", "memory")

    def __init__(self, matrix):
        self.matrix = matrix
        self.memory = matrix.support()

    @property
    def monoid(self):
        return self.matrix.monoid

    @property
    def field(self):
        return self.matrix.field

    @property
    def d(self):
        return self.matrix.d

    def __eq__(self, other):
        if not isinstance(other, LinearRule):
            return NotImplemented
        return self.matrix == other.matrix

    __hash__ = None

    def __repr__(self):
        mem = ",".join(str(e) for e in self.memory)
        return f"LinearRule(d={self.d}, S=[{mem}])"


def rule_from_matrix(matrix):
    return LinearRule(matrix)


def lca_apply(rule, pattern, window):
    """The rule's image of `pattern` on `window`: the convolution c*A."""
    return convolve_matrix(pattern, rule.matrix, window)


def lca_compose(outer, inner):
    """The rule applying `inner` first; its matrix is inner.matrix * outer.matrix."""
    _check_carriers(outer, inner)
    if outer.d != inner.d:
        raise ValidationError("rule dimensions differ")
    return LinearRule(inner.matrix * outer.matrix)


def lca_min_memory(rule):
    return rule.memory


def lca_dependence_scan(rule, candidates=None):
    """Sites a probe pattern can influence the output through.

    Probes each candidate site (default: the declared memory) with indicator
    patterns per component, through matrix_from_action, and keeps the sites
    where the recovered matrix is nonzero: those with a nonzero response at
    the identity.  Independent of the support bookkeeping.
    """
    monoid = rule.monoid
    if candidates is None:
        candidates = rule.memory
    candidates = canonical_sorted(set(candidates) | set(rule.memory))
    one = monoid.identity
    return matrix_from_action(monoid, rule.field, rule.d, candidates,
                              lambda c: lca_apply(rule, c, (one,)),
                              superposition_checks=0).support()


def matrix_from_action(monoid, field, d, support, action,
                       superposition_checks=4, rng=None):
    """Recover the matrix of a black-box linear convolution map.

    `action` takes a vector pattern defined on `support` and returns a
    pattern defined at least at the identity; it must be the application of
    some convolution rule with memory inside `support`.  Entry (i, j) at s
    is the output component j, read at the identity, of the indicator
    pattern with component i set at site s.  Linearity and agreement with
    the recovered matrix are spot-checked on random superpositions.
    """
    support = tuple(support)
    if len({e.key for e in support}) != len(support):
        raise ValidationError("support has repeated elements")
    one = monoid.identity
    cols = {}
    for i in range(d):
        for s in support:
            probe = indicator_pattern(monoid, field, d, support, i, s)
            cols[(i, s)] = action(probe).value(one)
    entries = []
    for i in range(d):
        row = []
        for j in range(d):
            pairs = [(s, cols[(i, s)][j]) for s in support]
            row.append(alg_from_terms(field, monoid, pairs))
        entries.append(row)
    mat = mat_from_entries(field, monoid, entries)

    rng = rng if rng is not None else random.Random(0)
    rule = LinearRule(mat)
    for _ in range(superposition_checks):
        c1 = random_vector_pattern(rng, monoid, field, d, support)
        c2 = random_vector_pattern(rng, monoid, field, d, support)
        lam = random_scalar(rng, field)
        combo = pattern_add(pattern_scale(c1, lam), c2)
        got = action(combo).value(one)
        want_lin = tuple(lam * a + b for a, b in
                         zip(action(c1).value(one), action(c2).value(one)))
        if got != want_lin:
            raise ValidationError("action is not linear", witness=(combo, got, want_lin))
        want_mat = convolve_matrix(combo, mat, (one,)).value(one)
        if got != want_mat:
            raise ValidationError(
                "action is not a convolution with memory inside the given support",
                witness=(combo, got, want_mat))
    return mat


@dataclass(frozen=True)
class LcaVerdict:
    injective: bool
    surjective: bool
    rank: int
    size: int


def lca_injective_surjective(rule):
    """Both verdicts via the rank of the flattened global map.

    Needs a finite monoid and a finite field so the configuration space is
    finite; there injective, surjective, and full rank coincide.
    """
    if not rule.monoid.is_finite():
        raise NotFinite(f"{rule.monoid.spec_string()} is infinite")
    if not rule.field.is_finite():
        raise NotFinite("verdicts need a finite field")
    flat = flatten(rule.matrix)
    rank = gauss_rank(flat)
    full = rank == flat.size
    return LcaVerdict(full, full, rank, flat.size)
