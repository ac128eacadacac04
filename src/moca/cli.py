"""Command-line front end.

One executable, many small verbs: monoid and algebra arithmetic, cellular
automata over monoid universes, the linear-rule correspondence, finiteness
certificates, and the polynomial sentence pipeline.  Output is plain text by
default; `--format json` wraps every command in the stable report schema
{command, inputs, verdict, witness?, stats}.  The single exception is
`sentence emit --format json`, which prints the raw system document so it can
be fed back to `sentence solve --system` and `sentence check --system`.

Identical invocations produce byte-identical output: no timestamps, sorted
JSON keys, seeded randomness only, and the sentence search always returns
the least witness (`sentence solve --workers` is accepted for compatibility,
echoed in the JSON inputs, and has no effect).

argparse converts --monoid and --field (`type=`), so a bad carrier is one
`error:` line, reported before any missing argument.  Pattern and assignment
files share one `name := value` reader that rejects a repeated name; a bad
value, like a bad matrix entry, names its line.

Exit codes: 0 success or clean verdict, 1 a sought witness was found (or a
certificate failed), 2 usage, input, or budget errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from .algebra import parse_alg_literal, parse_matrix_text, serialize_matrix
from .ca import (
    ca_apply,
    compose_rules,
    direct_finiteness_scan,
    minimal_memory,
    parse_rule_text,
    serialize_rule,
)
from .errors import MocaError, ParseError, ValidationError, _bindings, _check_space, _on_line
from .fields import parse_field_spec
from .finiteness import bicyclic_witness, certify_two_sided
from .linear_ca import lca_apply, matrix_from_action, rule_from_matrix
from .monoids import enumerate_monoids, parse_monoid_spec, serialize_table
from .patterns import (
    SymbolAlphabet,
    convolve_matrix,
    parse_symbol_pattern,
    parse_vector_pattern,
    serialize_pattern,
)
from .randomized import antihom_suite
from .sentence import (
    DEFAULT_SENTENCE_BUDGET,
    build_sentence,
    check_model,
    emit_json,
    emit_text,
    find_model,
    parse_system_json,
    with_field,
)


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path!r}: {e}") from None


def _elems(monoid, csv):
    toks = [t for t in csv.split(",") if t.strip()]
    if not toks:
        raise ParseError(f"empty element list {csv!r}")
    return tuple(monoid.parse_element(t) for t in toks)


def _matrix_obj(mat):
    return [[str(e) for e in row] for row in mat.entries]


def _emit(args, command, inputs, verdict, witness=None, stats=None,
          text_lines=()):
    """Print one report and return nothing; the caller picks the exit code."""
    if args.format == "json":
        doc = {"command": command, "inputs": inputs, "verdict": verdict,
               "stats": stats or {}}
        if witness is not None:
            doc["witness"] = witness
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for ln in text_lines:
            print(ln)


# ------------------------------------------------------------------ commands

def cmd_mul(args):
    monoid = args.monoid
    x = monoid.parse_element(args.x)
    y = monoid.parse_element(args.y)
    z = x * y
    _emit(args, "mul",
          {"monoid": monoid.spec_string(), "x": str(x), "y": str(y)},
          str(z), text_lines=[str(z)])
    return 0


def cmd_amul(args):
    monoid, field = args.monoid, args.field
    a = parse_alg_literal(args.a, monoid, field)
    b = parse_alg_literal(args.b, monoid, field)
    c = a * b
    _emit(args, "amul",
          {"monoid": monoid.spec_string(), "field": field.name(),
           "a": str(a), "b": str(b)},
          str(c), stats={"terms": len(c.terms)}, text_lines=[str(c)])
    return 0


def cmd_mat_mul(args):
    monoid, field = args.monoid, args.field
    a = parse_matrix_text(_read(args.matrixA), monoid, field)
    b = parse_matrix_text(_read(args.matrixB), monoid, field)
    c = a * b
    _emit(args, "mat-mul",
          {"monoid": monoid.spec_string(), "field": field.name(),
           "matrixA": args.matrixA, "matrixB": args.matrixB},
          _matrix_obj(c), stats={"dim": c.d},
          text_lines=serialize_matrix(c).splitlines())
    return 0


def cmd_conv(args):
    monoid, field = args.monoid, args.field
    c = parse_vector_pattern(_read(args.pattern), monoid, field)
    mat = parse_matrix_text(_read(args.matrix), monoid, field)
    window = _elems(monoid, args.window)
    out = convolve_matrix(c, mat, window)
    _emit(args, "conv",
          {"monoid": monoid.spec_string(), "field": field.name(),
           "pattern": args.pattern, "matrix": args.matrix,
           "window": [str(m) for m in window]},
          {str(s): [str(x) for x in out.value(s)] for s in out.domain()},
          stats={"dim": mat.d, "sites": len(window)},
          text_lines=serialize_pattern(out).splitlines())
    return 0


def cmd_ca_apply(args):
    monoid = args.monoid
    rule = parse_rule_text(_read(args.rule), monoid)
    pattern = parse_symbol_pattern(_read(args.pattern), monoid, rule.alphabet)
    window = _elems(monoid, args.window)
    out = ca_apply(rule, pattern, window)
    _emit(args, "ca-apply",
          {"monoid": monoid.spec_string(), "rule": args.rule,
           "pattern": args.pattern, "window": [str(m) for m in window]},
          {str(s): out.value(s) for s in out.domain()},
          stats={"alphabet": rule.alphabet.size, "sites": len(window)},
          text_lines=serialize_pattern(out).splitlines())
    return 0


def cmd_ca_compose(args):
    monoid = args.monoid
    first = parse_rule_text(_read(args.first), monoid)
    then = parse_rule_text(_read(args.then), monoid)
    comp = compose_rules(then, first)
    _emit(args, "ca-compose",
          {"monoid": monoid.spec_string(), "first": args.first,
           "then": args.then},
          {"memory": [str(m) for m in comp.memory],
           "table": list(comp.table)},
          stats={"memory_size": len(comp.memory)},
          text_lines=serialize_rule(comp).splitlines())
    return 0


def cmd_ca_min_memory(args):
    rule = parse_rule_text(_read(args.rule), args.monoid)
    _, red = minimal_memory(rule)
    _emit(args, "ca-min-memory",
          {"monoid": args.monoid.spec_string(), "rule": args.rule},
          {"memory": [str(m) for m in red.memory],
           "table": list(red.table)},
          stats={"before": len(rule.memory), "after": len(red.memory)},
          text_lines=serialize_rule(red).splitlines())
    return 0


def cmd_ca_scan(args):
    monoid = args.monoid
    alphabet = SymbolAlphabet(args.alphabet)
    memory = _elems(monoid, args.memory) if args.memory else None
    kw = {}
    if args.budget is not None:
        kw["rule_budget"] = args.budget
    # one pass over the global maps: on a finite configuration space a rule
    # is injective iff surjective, so no rule is injective but not surjective
    fin = direct_finiteness_scan(monoid, alphabet, memory=memory, **kw)
    witness = None
    if fin.witness is not None:
        witness = {"scan": "direct-finiteness", "detail": str(fin.witness)}
    lines = [
        f"rules scanned: {fin.total}",
        f"injective: {fin.injective}",
        f"surjective: {fin.surjective}",
        "injective but not surjective: none",
        f"one-sided identity pairs: {fin.extra['one_sided_identities']}",
        f"direct finiteness: {'holds' if fin.ok else f'fails: {fin.witness}'}",
    ]
    _emit(args, "ca-scan-surjunctivity",
          {"monoid": monoid.spec_string(), "alphabet": args.alphabet,
           "memory": [str(m) for m in (memory or monoid.elements())]},
          "clean" if fin.ok else "witness found", witness=witness,
          stats={"rules": fin.total, "injective": fin.injective,
                 "surjective": fin.surjective,
                 "pairs": fin.extra["pairs"],
                 "one_sided_identities": fin.extra["one_sided_identities"]},
          text_lines=lines)
    return 0 if fin.ok else 1


def cmd_psi(args):
    monoid, field = args.monoid, args.field
    mat = parse_matrix_text(_read(args.matrix), monoid, field)
    rule = rule_from_matrix(mat)
    names = [str(m) for m in rule.memory]
    _emit(args, "psi",
          {"monoid": monoid.spec_string(), "field": field.name(),
           "matrix": args.matrix},
          {"dim": rule.d, "memory": names},
          stats={"memory_size": len(names)},
          text_lines=[f"dimension: {rule.d}",
                      "memory: " + (" ".join(names) if names else "(empty)")])
    return 0


def cmd_psi_inv(args):
    monoid, field = args.monoid, args.field
    mat = parse_matrix_text(_read(args.matrix), monoid, field)
    if mat.d != args.dim:
        raise ValidationError(
            f"matrix dimension {mat.d} does not match --dim {args.dim}")
    support = _elems(monoid, args.support)
    rule = rule_from_matrix(mat)
    rng = random.Random(args.seed)
    recovered = matrix_from_action(
        monoid, field, args.dim, support,
        lambda c: lca_apply(rule, c, (monoid.identity,)), rng=rng)
    if recovered != mat:
        raise ValidationError("recovered matrix differs from the original")
    _emit(args, "psi-inv",
          {"monoid": monoid.spec_string(), "field": field.name(),
           "dim": args.dim, "support": [str(s) for s in support],
           "matrix": args.matrix},
          _matrix_obj(recovered),
          stats={"probes": args.dim * len(support)},
          text_lines=serialize_matrix(recovered).splitlines())
    return 0


def cmd_lca_check_antihom(args):
    monoid, field = args.monoid, args.field
    rep = antihom_suite(monoid, field, args.dim, args.count, seed=args.seed)
    witness = None
    lines = [f"trials: {rep.trials}", f"failures: {rep.failures}"]
    if rep.first_failure is not None:
        trial, a, b = rep.first_failure
        witness = {"trial": trial, "A": serialize_matrix(a), "B": serialize_matrix(b)}
        lines += [f"first failure: trial {trial}", "A:", *witness["A"].splitlines(),
                  "B:", *witness["B"].splitlines()]
    _emit(args, "lca-check-antihom",
          {"monoid": monoid.spec_string(), "field": field.name(),
           "dim": args.dim, "count": args.count, "seed": args.seed},
          "ok" if rep.ok else "failed", witness=witness,
          stats={"trials": rep.trials, "failures": rep.failures},
          text_lines=lines)
    return 0 if rep.ok else 1


def cmd_fin_certify(args):
    monoid, field = args.monoid, args.field
    a = parse_matrix_text(_read(args.matrixA), monoid, field)
    b = parse_matrix_text(_read(args.matrixB), monoid, field)
    rep = certify_two_sided(a, b)
    witness = None
    if rep.witness is not None:
        i, j, lit = rep.witness
        witness = {"row": i, "col": j, "entry": lit}
    lines = [
        "A*B = I: yes",
        f"B*A = I: {'yes' if rep.right_product_identity else 'no'}",
        f"flattened rank: {rep.flat_rank} of {rep.flat_size}",
        f"two-sided: {'yes' if rep.ok else 'no'}",
    ]
    if witness:
        lines.append(f"B*A differs at ({witness['row']},{witness['col']}): "
                     f"{witness['entry']}")
    _emit(args, "finiteness certify",
          {"monoid": monoid.spec_string(), "field": field.name(),
           "matrixA": args.matrixA, "matrixB": args.matrixB},
          "two-sided" if rep.ok else "one-sided", witness=witness,
          stats={"rank": rep.flat_rank, "size": rep.flat_size},
          text_lines=lines)
    return 0 if rep.ok else 1


def cmd_fin_bicyclic(args):
    rep = bicyclic_witness(args.field)
    lines = [
        f"A = [{rep.a.entries[0][0]}]",
        f"B = [{rep.b.entries[0][0]}]",
        f"A*B = I: {'yes' if rep.left_identity else 'no'}",
        f"B*A = I: {'yes' if rep.right_identity else 'no'}",
        f"(B*A)[0][0] = {rep.residual}",
    ]
    _emit(args, "finiteness bicyclic-witness", {"field": args.field.name()},
          "one-sided unit pair" if rep else "construction failed",
          witness={"A": _matrix_obj(rep.a), "B": _matrix_obj(rep.b),
                   "residual": rep.residual},
          stats={"dim": 1}, text_lines=lines)
    return 0 if rep else 1


def _load_system(args, budget=None):
    """Resolve (system, field, context) from --system or monoid flags.

    With a budget, the assignment space of a sentence built from flags is
    checked before the system is: it has 2*d*d*|S| variables.
    """
    monoid, field = args.monoid, args.field
    if args.system:
        system = parse_system_json(_read(args.system))
        context = None
        if monoid is not None:
            support = tuple(monoid.parse_element(nm)
                            for nm in system.meta["support"])
            context = (monoid, support)
    else:
        if monoid is None or not args.support or args.dim is None:
            raise ParseError(
                "need either --system or all of --monoid/--support/--dim")
        support = _elems(monoid, args.support)
        if (budget is not None and field is not None and field.is_finite()
                and args.dim > 0):
            _check_space(field.order, 2 * args.dim * args.dim * len(support),
                         budget, "assignment space")
        _, system = build_sentence(monoid, support, args.dim)
        context = (monoid, support)
    if field is None and system.meta.get("field"):
        field = parse_field_spec(system.meta["field"])
    if field is None:
        raise ParseError("no field given (use --field or a system with one)")
    return system, field, context


def cmd_sentence_emit(args):
    support = _elems(args.monoid, args.support)
    _, system = build_sentence(args.monoid, support, args.dim)
    if args.field is not None:
        system = with_field(system, args.field.spec_string())
    if args.format == "json":
        # the raw document, round-trippable through `--system`
        sys.stdout.write(emit_json(system))
    else:
        sys.stdout.write(emit_text(system))
    return 0


def cmd_sentence_solve(args):
    budget = args.budget if args.budget is not None else DEFAULT_SENTENCE_BUDGET
    system, field, context = _load_system(args, budget=budget)
    res = find_model(system, field, context=context, budget=budget,
                     workers=args.workers)
    inputs = {"field": field.name(), "dim": system.meta["d"],
              "support": system.meta["support"], "workers": args.workers}
    if args.system:
        inputs["system"] = args.system
    if args.monoid is not None:
        inputs["monoid"] = args.monoid.spec_string()
    if not res.sat:
        lines = ["verdict: UNSAT", f"space: {res.space}"]
        stats = {"space": res.space}
        if res.reason:
            lines.append(f"reason: {res.reason}")
            stats["reason"] = res.reason
        _emit(args, "sentence solve", inputs, "UNSAT", stats=stats,
              text_lines=lines)
        return 0
    assign_map = {name: str(field.unrank(r))
                  for name, r in zip(system.var_names, res.assignment)}
    witness = {"index": res.witness_index, "assignment": assign_map}
    lines = ["verdict: SAT", f"space: {res.space}",
             f"witness index: {res.witness_index}"]
    lines += [f"{name} := {assign_map[name]}" for name in system.var_names]
    if res.matrix_a is not None:
        witness["A"] = _matrix_obj(res.matrix_a)
        witness["B"] = _matrix_obj(res.matrix_b)
        lines.append("A:")
        lines += serialize_matrix(res.matrix_a).splitlines()
        lines.append("B:")
        lines += serialize_matrix(res.matrix_b).splitlines()
    _emit(args, "sentence solve", inputs, "SAT", witness=witness,
          stats={"space": res.space}, text_lines=lines)
    return 1


def cmd_sentence_check(args):
    system, field, _ = _load_system(args)
    assignment = {name: _on_line(lineno, field.parse_literal, value) for lineno, name, value
                  in _bindings(_read(args.assign), str, "name")}
    rep = check_model(system, field, assignment)

    def tag(label):
        i, j, name = label
        return f"({i},{j},{name})"

    lines = [
        "positive block: " + ("ok" if rep.positive_ok
                              else f"fails at {tag(rep.failed_positive)}"),
        f"negation block: {'ok' if rep.negation_ok else 'fails'}",
        f"satisfied: {'yes' if rep.satisfied else 'no'}",
    ]
    witness = None
    if not rep.satisfied:
        if rep.failed_positive is not None:
            witness = {"block": "positive",
                       "equation": list(rep.failed_positive)}
        else:
            witness = {"block": "negation",
                       "equation": list(rep.negation_witness)}
    inputs = {"field": field.name(), "assign": args.assign}
    if args.system:
        inputs["system"] = args.system
    _emit(args, "sentence check", inputs,
          "satisfies" if rep.satisfied else "violates", witness=witness,
          stats={"variables": system.nvars}, text_lines=lines)
    return 0 if rep.satisfied else 1


def cmd_enumerate_monoids(args):
    monoids = enumerate_monoids(args.order)
    tables = [serialize_table(m) for m in monoids]
    lines = [f"monoids of order {args.order}: {len(monoids)}"]
    for t in tables:
        lines.append("")
        lines += t.splitlines()
    _emit(args, "enumerate-monoids", {"order": args.order},
          {"count": len(monoids), "tables": tables},
          stats={"count": len(monoids)}, text_lines=lines)
    return 0


# -------------------------------------------------------------------- parser

@functools.cache
def _build_parser():
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json"), default="text")
    mon = argparse.ArgumentParser(add_help=False)
    mon.add_argument("--monoid", type=parse_monoid_spec, required=True,
                     help="bicyclic | cyclic:n | freecomm:r | table:PATH")
    fld = argparse.ArgumentParser(add_help=False)
    fld.add_argument("--field", type=parse_field_spec, required=True,
                     help="p, p^k, or Q")

    top = argparse.ArgumentParser(
        prog="moca",
        description="exact computation with monoid algebras and linear "
                    "cellular automata")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mul", parents=[fmt, mon],
                       help="multiply two monoid elements")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(func=cmd_mul)

    p = sub.add_parser("amul", parents=[fmt, mon, fld],
                       help="multiply two algebra literals")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_amul)

    p = sub.add_parser("mat-mul", parents=[fmt, mon, fld],
                       help="multiply two matrix files")
    p.add_argument("--matrixA", required=True)
    p.add_argument("--matrixB", required=True)
    p.set_defaults(func=cmd_mat_mul)

    p = sub.add_parser("conv", parents=[fmt, mon, fld],
                       help="convolve a pattern with a matrix on a window")
    p.add_argument("--pattern", required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--window", required=True,
                   help="comma-separated element names")
    p.set_defaults(func=cmd_conv)

    p = sub.add_parser("ca-apply", parents=[fmt, mon],
                       help="apply a rule file to a pattern on a window")
    p.add_argument("--rule", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--window", required=True)
    p.set_defaults(func=cmd_ca_apply)

    p = sub.add_parser("ca-compose", parents=[fmt, mon],
                       help="compose two rules (--first applied first)")
    p.add_argument("--first", required=True)
    p.add_argument("--then", required=True)
    p.set_defaults(func=cmd_ca_compose)

    p = sub.add_parser("ca-min-memory", parents=[fmt, mon],
                       help="drop the memory sites a rule ignores")
    p.add_argument("--rule", required=True)
    p.set_defaults(func=cmd_ca_min_memory)

    p = sub.add_parser("ca-scan-surjunctivity", parents=[fmt, mon],
                       help="scan every rule table: injectivity, surjectivity,"
                            " and the two-sided identity law",
                       description="`rules scanned` and the `pairs` stat count the rule"
                                   " space and the ordered pair space, not the maps computed.")
    p.add_argument("--alphabet", type=int, required=True)
    p.add_argument("--memory", help="comma-separated sites (default: all)")
    p.add_argument("--budget", type=int, help="rule-count budget")
    p.set_defaults(func=cmd_ca_scan)

    p = sub.add_parser("psi", parents=[fmt, mon, fld],
                       help="matrix file -> linear rule summary")
    p.add_argument("--matrix", required=True)
    p.set_defaults(func=cmd_psi)

    p = sub.add_parser("psi-inv", parents=[fmt, mon, fld],
                       help="recover a matrix from its rule by probing")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--support", required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_psi_inv)

    p = sub.add_parser("lca-check-antihom", parents=[fmt, mon, fld],
                       help="seeded random check of the composition law")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_lca_check_antihom)

    p = sub.add_parser("finiteness", help="inverse certificates")
    fs = p.add_subparsers(dest="subcommand", required=True)
    c = fs.add_parser("certify", parents=[fmt, mon, fld],
                      help="check whether a one-sided inverse is two-sided")
    c.add_argument("--matrixA", required=True)
    c.add_argument("--matrixB", required=True)
    c.set_defaults(func=cmd_fin_certify)
    c = fs.add_parser("bicyclic-witness", parents=[fmt, fld],
                      help="the 1x1 pair with A*B = I but B*A != I")
    c.set_defaults(func=cmd_fin_bicyclic)

    p = sub.add_parser("sentence", help="polynomial sentence pipeline")
    ss = p.add_subparsers(dest="subcommand", required=True)
    c = ss.add_parser("emit", parents=[fmt],
                      help="build and print the sentence")
    c.add_argument("--monoid", type=parse_monoid_spec, required=True)
    c.add_argument("--support", required=True)
    c.add_argument("--dim", type=int, required=True)
    c.add_argument("--field", type=parse_field_spec,
                   help="stamp a field into the document")
    c.set_defaults(func=cmd_sentence_emit)
    c = ss.add_parser("solve", parents=[fmt],
                      help="find the least model over a finite field")
    c.add_argument("--monoid", type=parse_monoid_spec)
    c.add_argument("--support")
    c.add_argument("--dim", type=int)
    c.add_argument("--system", help="system JSON file instead of build flags")
    c.add_argument("--field", type=parse_field_spec)
    c.add_argument("--budget", type=int)
    c.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility; has no effect")
    c.set_defaults(func=cmd_sentence_solve)
    c = ss.add_parser("check", parents=[fmt],
                      help="evaluate an assignment file against the sentence")
    c.add_argument("--monoid", type=parse_monoid_spec)
    c.add_argument("--support")
    c.add_argument("--dim", type=int)
    c.add_argument("--system")
    c.add_argument("--field", type=parse_field_spec)
    c.add_argument("--assign", required=True,
                   help="file of 'name := literal' lines")
    c.set_defaults(func=cmd_sentence_check)

    p = sub.add_parser("enumerate-monoids", parents=[fmt],
                       help="all monoid tables of a given order (<= 3)")
    p.add_argument("--order", type=int, required=True)
    p.set_defaults(func=cmd_enumerate_monoids)

    return top


def main(argv=None):
    try:
        # one parser per process, built on first call; `type=` ParseErrors pass through
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except MocaError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
