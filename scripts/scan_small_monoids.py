"""Exhaustive desk-scale scan of every monoid of order <= 3.

For each multiplication table: every alphabet-2 rule with full memory is
checked for injectivity and surjectivity, every ordered rule pair for the
one-sided identity law, and the d=1 full-support sentence is solved over
GF(2).  Expected output: no rule is injective without being surjective, no
identity is one-sided, every sentence is UNSAT.
"""

import argparse
import time

from moca.ca import direct_finiteness_scan
from moca.fields import field_make
from moca.monoids import enumerate_monoids
from moca.patterns import SymbolAlphabet
from moca.sentence import build_sentence, find_model


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-order", type=int, default=3, choices=(1, 2, 3))
    ap.add_argument("--alphabet", type=int, default=2)
    args = ap.parse_args()

    alphabet = SymbolAlphabet(args.alphabet)
    gf2 = field_make(2)
    t0 = time.perf_counter()
    header = f"{'monoid':<10} {'rules':>6} {'inj':>5} {'surj':>5} " \
             f"{'pairs':>7} {'1-sided':>8} {'sentence':>9}"
    print(header)
    print("-" * len(header))
    for n in range(1, args.max_order + 1):
        for monoid in enumerate_monoids(n):
            fin = direct_finiteness_scan(monoid, alphabet)
            support = tuple(monoid.elements())
            _, system = build_sentence(monoid, support, 1)
            res = find_model(system, gf2, context=(monoid, support))
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
