"""Walk through the one-sided unit pair on the bicyclic monoid.

Multiplies the generators both ways, certifies the 1x1 pair over several
fields, and recovers the same pair as the least model of the sentence.
"""

from moca.fields import field_make, rationals
from moca.finiteness import bicyclic_witness
from moca.monoids import bicyclic
from moca.sentence import build_sentence, emit_text, find_model


def main():
    b = bicyclic()
    p, q = b.parse_element("p"), b.parse_element("q")
    print(f"p * q = {p * q}")
    print(f"q * p = {q * p}")
    print()

    for field in (field_make(2), field_make(3), field_make(2, 2), rationals()):
        rep = bicyclic_witness(field)
        print(f"{field.name()}: A=[{rep.a.entries[0][0]}] "
              f"B=[{rep.b.entries[0][0]}]  A*B=I {rep.left_identity}  "
              f"B*A=I {rep.right_identity}  (B*A)[0][0]={rep.residual}")
    print()

    support = (p, q)
    _, system = build_sentence(b, support, 1)
    print(emit_text(system))
    res = find_model(system, field_make(2), context=(b, support))
    print(f"search space: {res.space} assignments")
    print(f"first satisfying assignment: index {res.witness_index}")
    print(f"decoded: A=[{res.matrix_a.entries[0][0]}] "
          f"B=[{res.matrix_b.entries[0][0]}]")


if __name__ == "__main__":
    main()
