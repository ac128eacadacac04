"""One-sided invertibility as a polynomial system, plus an exact solver.

Given a monoid, an ordered support list S, and a dimension d, the system
asks for d x d matrices A (variables x[i,j,s]) and B (variables y[i,j,s])
with entries supported on S such that A*B = I while B*A != I.  Expanding
the convolution, A*B = I becomes one equation per (i, j, m) with m ranging
over the product set S*S:

    sum_k sum_{s*t = m} x[i,k,s] * y[k,j,t]  =  (1 if i = j and m = 1 else 0)

The negated block is the same family with the roles of X and Y swapped,
and a model must falsify at least one of its equations.  Everything is
determined by d, |S|, and the partial multiplication table on S; the
monoid beyond that never enters.

If the identity is not a product of two support elements the diagonal
equations have an empty left side and can never equal 1; they are kept,
and impossibility is read from the empty sum alone, so the inevitable
UNSAT is visibly structural rather than an artifact of search.

Every monomial pairs one x variable with one y variable, so once the X
block is fixed both blocks are linear in Y.  The solver enumerates X in
lexicographic order of the rank sequence (first variable most significant)
and, for each X, eliminates the positive block over GF(q): X has a model
iff the solution set is nonempty and some negated equation is not implied
by it.  The first such X is completed by a greedy descent to the least Y,
so the model and its index are the least in the lexicographic order of all
assignments, as an exhaustive scan would find them; the tests keep that
scan as the oracle.

When the system is the compiled sentence of a known monoid and support,
the search also uses the augmentation eps: K[M] -> K, m -> 1, a ring
homomorphism.  A model has eps(A) eps(B) = I, so eps(A) = sum_s A_s is
invertible.  For a constant P in GL_d(K), (A, B) -> (A P, P^-1 B) keeps
both supports and maps models to models, as B'A' = P^-1 (BA) P; each orbit
meets eps(A) = I exactly once, at A eps(A)^-1, and an X block has a model
iff that normal form does.  So the lex scan skips every X with a singular
sum and decides each orbit once, and UNSAT is proved over the
q^(d^2 (|S| - 1)) X blocks with eps(A) = I: the last support coefficient of
entry (i, j) is delta_ij minus the others.  The least model's X has an
invertible sum, so the model, its index and every printed byte are those
of the plain scan.  The argument holds for the sentence only: a system
that differs from it, such as a hand-edited `--system` file, takes the
plain scan.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field as dataclass_field, replace

from .algebra import mat_from_entries, mat_identity, alg_from_terms
from .errors import NotFinite, ParseError, ValidationError, _check_space
from .fields import encode_digits
from .monoids import canonical_sorted

__all__ = [
    "Equation",
    "SentenceSpec",
    "PolySystem",
    "build_sentence",
    "SolveResult",
    "find_model",
    "decode_witness",
    "CheckReport",
    "check_model",
    "emit_text",
    "emit_json",
    "parse_system_json",
    "with_field",
    "DEFAULT_SENTENCE_BUDGET",
]

DEFAULT_SENTENCE_BUDGET = 2**24


@dataclass(frozen=True)
class Equation:
    label: tuple      # (i, j, element name)
    monomials: tuple  # pairs (x variable index, y variable index)
    rhs: int          # 0 or 1, as a scalar rank

    @property
    def impossible(self):  # an empty sum can never equal 1
        return not self.monomials and self.rhs == 1


@dataclass(frozen=True)
class SentenceSpec:
    d: int
    support_names: tuple
    x_names: tuple
    y_names: tuple
    diagonal: tuple  # labels (i, i, identity name)


@dataclass(frozen=True)
class PolySystem:
    var_names: tuple
    equations: tuple
    negated: tuple
    meta: dict
    # (monoid, support, d) if build_sentence made it; None on a copy or a parsed one
    _source: tuple | None = dataclass_field(default=None, init=False, compare=False, repr=False)

    @property
    def nvars(self):
        return len(self.var_names)


def build_sentence(monoid, support, d):
    """Compile the system for matrices supported on the given ordered set."""
    support = tuple(support)
    if not support:
        raise ValidationError("support must be nonempty")
    if d < 1:
        raise ValidationError("dimension must be at least 1")
    if len({s.key for s in support}) != len(support):
        raise ValidationError("support has repeated elements")
    for s in support:
        if s.monoid is not monoid:
            raise ValidationError("support element from a different monoid")
    ns = len(support)
    names = [str(s) for s in support]
    nx = d * d * ns

    def xv(i, j, si):
        return (i * d + j) * ns + si

    def yv(i, j, si):
        return nx + (i * d + j) * ns + si

    x_names = tuple(f"x[{i},{j},{names[si]}]"
                    for i in range(d) for j in range(d) for si in range(ns))
    y_names = tuple(f"y[{i},{j},{names[si]}]"
                    for i in range(d) for j in range(d) for si in range(ns))

    pairs_by_m = {}
    for si in range(ns):
        for ti in range(ns):
            m = support[si] * support[ti]
            pairs_by_m.setdefault(m, []).append((si, ti))
    s_square = canonical_sorted(pairs_by_m.keys())
    ident = monoid.identity
    has_ident = ident in pairs_by_m

    equations = []
    negated = []
    for i in range(d):
        for j in range(d):
            if i == j and not has_ident:
                label = (i, j, str(ident))
                equations.append(Equation(label, (), 1))
                negated.append(Equation(label, (), 1))
            for m in s_square:
                label = (i, j, str(m))
                rhs = 1 if (i == j and m == ident) else 0
                pos = []
                neg = []
                for k in range(d):
                    for si, ti in pairs_by_m[m]:
                        pos.append((xv(i, k, si), yv(k, j, ti)))
                        neg.append((xv(k, j, ti), yv(i, k, si)))
                equations.append(Equation(label, tuple(pos), rhs))
                negated.append(Equation(label, tuple(neg), rhs))

    spec = SentenceSpec(d, tuple(names), x_names, y_names,
                        tuple((i, i, str(ident)) for i in range(d)))
    system = PolySystem(x_names + y_names, tuple(equations), tuple(negated),
                        {"d": d, "support": list(names), "field": None})
    object.__setattr__(system, "_source", (monoid, support, d))
    return spec, system


@dataclass(frozen=True)
class SolveResult:
    sat: bool
    witness_index: int | None
    assignment: tuple | None  # variable ranks, in var_names order
    matrix_a: object | None
    matrix_b: object | None
    space: int
    reason: str | None = None
    eliminated: int = 0  # X blocks whose Y system was solved


def _reduce(row, basis, add, mul, neg):
    """Reduce an augmented row in place by the echelon basis; return its
    leading column (len(basis) for a bare nonzero right side), or None."""
    for c, b in enumerate(basis):
        f = row[c]
        if f and b is not None:
            m = mul[neg[f]]
            row[c:] = [add[v][m[w]] for v, w in zip(row[c:], b[c:])]
    for c, v in enumerate(row):
        if v:
            return c
    return None


def _has_model(xs, ys, pos, neg_eqs, ops, ny):
    """With X fixed to `xs` and the leading Y coordinates to `ys`: is some
    solution of the positive block a non-solution of a negated equation?"""
    add, mul, neg, inv = ops

    def rows(eqs):
        for mono, rhs in eqs:
            row = [0] * ny + [rhs]
            for xi, c in mono:
                a = xs[xi]
                if a:
                    row[c] = add[row[c]][a]
            yield row

    units = ([0] * c + [1] + [0] * (ny - 1 - c) + [v] for c, v in enumerate(ys))
    basis = [None] * ny  # basis[c]: a row with its leading 1 in column c
    for row in itertools.chain(rows(pos), units):
        lead = _reduce(row, basis, add, mul, neg)
        if lead == ny:
            return False  # 0 = nonzero: no solution at all
        if lead is not None:
            m = mul[inv[row[lead]]]
            basis[lead] = [m[v] for v in row]
    # every solution satisfies a negated row iff the row reduces to zero
    return any(_reduce(row, basis, add, mul, neg) is not None
               for row in rows(neg_eqs))


def _normalise(xs, d, ns, ops):
    """X * eps(X)^-1, the X block with eps = I in the orbit of X, or None
    when eps(X) = sum_s X_s is singular and X has no model.

    X' eps = X, so Gauss-Jordan on the rows of [eps^T | X^T] leaves
    [I | X'^T]: row j holds column j of eps and of every X_s."""
    add, mul, neg, inv = ops
    if d == 1:  # eps is a scalar: scale X by its inverse
        eps = 0
        for v in xs:
            eps = add[eps][v]
        return tuple(mul[inv[eps]][v] for v in xs) if eps else None
    basis = [None] * d
    for j in range(d):
        blocks = [xs[(i * d + j) * ns:(i * d + j + 1) * ns] for i in range(d)]
        row = []
        for block in blocks:
            acc = 0
            for v in block:
                acc = add[acc][v]
            row.append(acc)
        row += itertools.chain.from_iterable(blocks)
        lead = _reduce(row, basis, add, mul, neg)
        if lead is None or lead >= d:
            return None  # column j of eps is a combination of the others
        m = mul[inv[row[lead]]]
        basis[lead] = [m[v] for v in row]
    for c in reversed(range(d)):  # back-substitute to the reduced form
        row, basis[c] = basis[c], None
        _reduce(row, basis, add, mul, neg)
        basis[c] = row
    return tuple(basis[k][d + i * ns + s]
                 for i in range(d) for k in range(d) for s in range(ns))


def _normal_blocks(q, d, ns, ops):
    """Every X block with eps(X) = I, in lex order: the last coefficient of
    entry (i, j) is delta_ij minus the sum of its other coefficients."""
    add, neg = ops[0], ops[2]
    free = ns - 1
    for vals in itertools.product(range(q), repeat=d * d * free):
        xs = []
        for e in range(d * d):
            part = vals[e * free:(e + 1) * free]
            i, j = divmod(e, d)
            acc = int(i == j)
            for v in part:
                acc = add[acc][neg[v]]
            xs += part
            xs.append(acc)
        yield tuple(xs)


def _is_sentence(system, context):
    """Is the system the compiled sentence of `context` at its dimension?"""
    monoid, support = context
    d = system.meta["d"]
    if type(d) is int and system._source == (monoid, tuple(support), d):
        return True  # build_sentence's own result for this context
    try:
        _, built = build_sentence(monoid, support, d)
    except ValidationError:
        return False
    return (built.var_names, built.equations, built.negated) == \
        (system.var_names, system.equations, system.negated)


def find_model(system, field, context=None, budget=DEFAULT_SENTENCE_BUDGET,
               workers=1):
    """The least model of the system over a finite field, in rank-lex order.

    Enumerates the X block and solves for Y by elimination.  `context`,
    when given, is a pair (monoid, support elements) matching the system;
    if the system equals build_sentence(*context, d), the search is
    normalised as the module docstring sets out, with the same least model.
    A system that build_sentence returned for this monoid, support (in this
    order) and d = meta["d"] is recognised without a second compile; any
    other (a parsed `--system` file, a `replace`d or `with_field` copy, a
    different context) is compiled again and compared in full.
    The lex scan then runs first over as many X blocks as there are orbits,
    so a model found early costs no more than the plain scan.

    `budget` caps the full assignment space q^nvars all the same.
    `workers` is accepted for compatibility and has no effect.  Every model
    is re-checked by `check_model`; with a context the witness is also
    decoded into matrices and re-verified by matrix arithmetic.  The
    result's `eliminated` counts the X blocks whose Y system was solved.
    """
    if not field.is_finite():
        raise NotFinite("model search needs a finite field")
    nvars = system.nvars
    q = field.order
    space = _check_space(q, nvars, budget, "assignment space")
    if any(eq.impossible for eq in system.equations):
        return SolveResult(False, None, None, None, None, space,
                           reason="identity is not a product of two support elements")
    ops = field.rank_tables()
    nx = ny = nvars // 2

    def linear(eqs):
        return tuple((tuple((xi, yi - nx) for xi, yi in eq.monomials), eq.rhs)
                     for eq in eqs)

    pos, neg_eqs = linear(system.equations), linear(system.negated)
    eliminated = 0

    def eliminate(xs):
        nonlocal eliminated
        eliminated += 1
        return _has_model(xs, (), pos, neg_eqs, ops, ny)

    lex = itertools.product(range(q), repeat=nx)
    if context is not None and _is_sentence(system, context):
        d = system.meta["d"]
        ns = nx // (d * d)
        decided = {}  # X block with eps = I -> its orbit has a model

        def orbit_has_model(key, xs):
            if key not in decided:
                decided[key] = eliminate(xs)
            return decided[key]

        def has_model(xs):
            key = _normalise(xs, d, ns, ops)
            return key is not None and orbit_has_model(key, xs)

        # as many lex blocks as there are orbits, then every orbit not yet
        # decided; with a model somewhere, the lex scan goes on to the least
        xs = next(filter(has_model, itertools.islice(lex, q ** (nx - d * d))),
                  None)
        if xs is None and any(orbit_has_model(key, key)
                              for key in _normal_blocks(q, d, ns, ops)):
            xs = next(filter(has_model, lex))
    else:
        xs = next(filter(eliminate, lex), None)
    if xs is None:
        return SolveResult(False, None, None, None, None, space,
                           eliminated=eliminated)
    # greedy descent: each Y coordinate takes the least value keeping a model
    ys = []
    for _ in range(ny):
        ys.append(next(v for v in range(q)
                       if _has_model(xs, ys + [v], pos, neg_eqs, ops, ny)))
    assignment = xs + tuple(ys)
    index = encode_digits(assignment, q)

    rep = check_model(system, field, dict(zip(
        system.var_names, (field.unrank(r) for r in assignment))))
    if not rep.satisfied:
        raise ValidationError("witness failed scalar re-verification",
                              witness=assignment)
    mat_a = mat_b = None
    if context is not None:
        monoid, support = context
        mat_a, mat_b = decode_witness(system, field, assignment, monoid, support)
        ident = mat_identity(field, monoid, system.meta["d"])
        if mat_a * mat_b != ident or mat_b * mat_a == ident:
            raise ValidationError("witness failed matrix re-verification",
                                  witness=(mat_a, mat_b))
    return SolveResult(True, index, assignment, mat_a, mat_b, space,
                       eliminated=eliminated)


def decode_witness(system, field, assignment, monoid, support):
    """Assignment ranks -> the matrix pair (A from x block, B from y block)."""
    support = tuple(support)
    d = system.meta["d"]
    ns = len(support)
    if system.nvars != 2 * d * d * ns:
        raise ValidationError("support does not match the system's variables")
    nx = d * d * ns

    def entry(base, i, j):
        pairs = [(support[si], field.unrank(assignment[base + (i * d + j) * ns + si]))
                 for si in range(ns)]
        return alg_from_terms(field, monoid, pairs)

    a = mat_from_entries(field, monoid, [[entry(0, i, j) for j in range(d)]
                                         for i in range(d)])
    b = mat_from_entries(field, monoid, [[entry(nx, i, j) for j in range(d)]
                                         for i in range(d)])
    return a, b


@dataclass(frozen=True)
class CheckReport:
    positive_ok: bool
    failed_positive: tuple | None   # first equality that fails, if any
    negation_ok: bool               # some swapped equation fails
    negation_witness: tuple | None  # label of that failing equation
    satisfied: bool


def check_model(system, field, assignment):
    """Evaluate both blocks with plain scalar arithmetic.

    `assignment` maps each variable name, and no other name, to a scalar;
    shares no code with the solver.
    """
    known = set(system.var_names)
    unknown = [n for n in assignment if n not in known]
    if unknown:
        raise ValidationError(
            f"assignment names unknown variables: {', '.join(unknown)}")
    missing = [n for n in system.var_names if n not in assignment]
    if missing:
        raise ValidationError(f"assignment misses variables: {', '.join(missing)}")
    vals = [assignment[n] for n in system.var_names]

    def eval_eq(eq):
        acc = field.zero
        for xi, yi in eq.monomials:
            acc = acc + vals[xi] * vals[yi]
        want = field.one if eq.rhs == 1 else field.zero
        return acc == want

    failed_positive = None
    for eq in system.equations:
        if not eval_eq(eq):
            failed_positive = eq.label
            break
    negation_witness = None
    for eq in system.negated:
        if not eval_eq(eq):
            negation_witness = eq.label
            break
    positive_ok = failed_positive is None
    negation_ok = negation_witness is not None
    return CheckReport(positive_ok, failed_positive, negation_ok,
                       negation_witness, positive_ok and negation_ok)


def _render_eq(system, eq, swapped):
    if eq.monomials:
        if swapped:
            terms = " + ".join(f"{system.var_names[yi]}*{system.var_names[xi]}"
                               for xi, yi in eq.monomials)
        else:
            terms = " + ".join(f"{system.var_names[xi]}*{system.var_names[yi]}"
                               for xi, yi in eq.monomials)
    else:
        terms = "0"
    i, j, m = eq.label
    line = f"  {terms} = {eq.rhs}   [{i},{j},{m}]"
    if eq.impossible:
        line += "   (unsatisfiable: empty sum)"
    return line


def emit_text(system):
    lines = ["∃ " + " ".join(system.var_names) + " :"]
    lines.append("P(X,Y):")
    for eq in system.equations:
        lines.append(_render_eq(system, eq, swapped=False))
    lines.append("∧ ¬P(Y,X):")
    for eq in system.negated:
        lines.append(_render_eq(system, eq, swapped=True))
    return "\n".join(lines) + "\n"


def _eq_to_obj(eq):
    obj = {
        "label": list(eq.label),
        "monomials": [[1, xi, yi] for xi, yi in eq.monomials],
        "rhs": eq.rhs,
    }
    if eq.impossible:
        obj["impossible"] = True
    return obj


def emit_json(system):
    obj = {
        "variables": list(system.var_names),
        "equations": [_eq_to_obj(eq) for eq in system.equations],
        "negated_block": [_eq_to_obj(eq) for eq in system.negated],
        "meta": system.meta,
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def with_field(system, field_spec):
    meta = dict(system.meta)
    meta["field"] = field_spec
    return replace(system, meta=meta)


def _eq_from_obj(obj):
    try:
        label = tuple(obj["label"])
        if len(label) != 3:
            raise ParseError("equation label must have three parts")
        monomials = []
        for mono in obj["monomials"]:
            coeff, xi, yi = mono
            if coeff != 1:
                raise ParseError("monomial coefficients must be 1")
            monomials.append((int(xi), int(yi)))
        rhs = int(obj["rhs"])
        if rhs not in (0, 1):
            raise ParseError("equation right side must be 0 or 1")
        return Equation((int(label[0]), int(label[1]), str(label[2])),
                        tuple(monomials), rhs)
    except (KeyError, TypeError, ValueError, OverflowError) as e:  # int(1e400)
        raise ParseError(f"malformed equation object: {e}") from None


def parse_system_json(text):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}") from None
    except ValueError:  # int() refuses more than 4300 digits
        raise ParseError("invalid JSON: a number has too many digits") from None
    try:
        var_names = tuple(str(n) for n in obj["variables"])
        equations = tuple(_eq_from_obj(e) for e in obj["equations"])
        negated = tuple(_eq_from_obj(e) for e in obj["negated_block"])
        meta = dict(obj["meta"])
    except (KeyError, TypeError) as e:
        raise ParseError(f"missing or malformed field: {e}") from None
    if "d" not in meta or "support" not in meta:
        raise ParseError("meta must carry d and support")
    d, support = meta["d"], meta["support"]
    if type(d) is not int or d < 1:
        raise ParseError(f"meta.d must be an integer >= 1, got {d!r}")
    if not (isinstance(support, list) and support and all(isinstance(s, str) for s in support)):
        raise ParseError("meta.support must be a nonempty list of element names")
    if len(var_names) != 2 * d * d * len(support):
        raise ParseError("variable count does not match meta.d and meta.support")
    field = meta.setdefault("field", None)
    if field is not None and not isinstance(field, str):
        raise ParseError(f"meta.field must be a field spec or null, got {field!r}")
    system = PolySystem(var_names, equations, negated, meta)
    half = system.nvars // 2
    for eq in equations + negated:
        for xi, yi in eq.monomials:
            if not (0 <= xi < system.nvars and 0 <= yi < system.nvars):
                raise ParseError("monomial variable index out of range")
            if not xi < half <= yi:
                raise ParseError(
                    f"monomial [1, {xi}, {yi}] must pair an x variable "
                    f"(index < {half}) with a y variable (index >= {half})")
    return system
