"""Exhaustive desk-scale scan of every monoid of order <= 3.

For each multiplication table: every alphabet-2 rule with full memory is
checked for injectivity and surjectivity, every ordered rule pair for the
one-sided identity law, and the full-support sentence is solved (by default
at d=1 over GF(2)).  Expected output: no rule is injective without being
surjective, no identity is one-sided, every sentence is UNSAT.

    python scripts/scan_small_monoids.py --dim 2 --field 3 --budget 282429536481

solves every sentence at d=2 over GF(3); the budget is 3^24, the space of
an order-3 monoid.
"""

import argparse
import time

from moca.ca import direct_finiteness_scan
from moca.fields import parse_field_spec
from moca.monoids import enumerate_monoids
from moca.patterns import SymbolAlphabet
from moca.sentence import DEFAULT_SENTENCE_BUDGET, build_sentence, find_model


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-order", type=int, default=3, choices=(1, 2, 3))
    ap.add_argument("--alphabet", type=int, default=2)
    ap.add_argument("--dim", type=int, default=1, help="sentence dimension d")
    ap.add_argument("--field", default="2", help="sentence field, e.g. 3 or 2^2")
    ap.add_argument("--budget", type=int, default=DEFAULT_SENTENCE_BUDGET,
                    help="cap on the assignment space of each sentence")
    args = ap.parse_args()

    alphabet = SymbolAlphabet(args.alphabet)
    field = parse_field_spec(args.field)
    t0 = time.perf_counter()
    header = f"{'monoid':<10} {'rules':>6} {'inj':>5} {'surj':>5} " \
             f"{'pairs':>7} {'1-sided':>8} {'sentence':>9}"
    print(header)
    print("-" * len(header))
    for n in range(1, args.max_order + 1):
        for monoid in enumerate_monoids(n):
            fin = direct_finiteness_scan(monoid, alphabet)
            support = tuple(monoid.elements())
            _, system = build_sentence(monoid, support, args.dim)
            res = find_model(system, field, context=(monoid, support),
                             budget=args.budget)
            verdict = "SAT!" if res.sat else "UNSAT"
            flag = "" if fin.ok and not res.sat else "  <-- LOOK"
            print(f"{monoid.spec_string():<10} {fin.total:>6} "
                  f"{fin.injective:>5} {fin.surjective:>5} "
                  f"{fin.extra['pairs']:>7} "
                  f"{fin.extra['one_sided_identities']:>8} "
                  f"{verdict:>9}{flag}")
    print(f"\ndone in {time.perf_counter() - t0:.2f}s")


if __name__ == "__main__":
    main()
