"""Invertibility certificates over finite monoids via the regular action.

A d x d matrix over the monoid algebra acts on tuples indexed by (element,
component); for a finite monoid of order n that action is an ordinary
nd x nd scalar matrix.  Basis order is element-major: slot (m, i) sits at
row n_index(m)*d + i.  Row vectors act on the left, so the flattening of a
product is the product of the flattenings in the same order.

Over a finite monoid a one-sided inverse is always two-sided; certify_two_sided
checks a claimed pair both directly and through the rank of the flattening.
The two-generator monoid with pq = 1 is the stock counterexample once the
finiteness hypothesis is dropped, and bicyclic_witness packages it.

flat_mul and gauss_rank compute on plain ints, one branch per field kind:
GF(p) sums integer products and reduces mod p once per cell (rank pivots
invert with pow(x, -1, p)); GF(p^k) values are ranks, read through the
field's q x q tables; Q clears denominators, so a product cell is
one integer over the product of a row lcm and a column lcm, and rank is
fraction-free Bareiss elimination (Bareiss 1968) on rows scaled to integers.
Rank stops at row-echelon form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .algebra import AlgMatrix, _check_carriers, _collect, alg_basis, mat_from_entries, mat_identity
from .errors import CarrierMismatch, NotFinite, ValidationError
from .monoids import bicyclic

__all__ = [
    "FlatMatrix",
    "flatten",
    "unflatten",
    "flat_mul",
    "gauss_rank",
    "CertifyReport",
    "certify_two_sided",
    "BicyclicWitness",
    "bicyclic_witness",
]


@dataclass(frozen=True)
class FlatMatrix:
    field: object
    size: int
    rows: tuple  # row-major, raw field values

    def __post_init__(self):
        if len(self.rows) != self.size or any(len(r) != self.size for r in self.rows):
            raise ValidationError("flat matrix is not square of the stated size")


def flatten(mat):
    """Scalar matrix of v -> v*A on the free module over a finite monoid."""
    els = mat.monoid.elements()
    idx = {e: i for i, e in enumerate(els)}
    field, d = mat.field, mat.d
    size = len(els) * d
    rows = [[field.zero_v] * size for _ in range(size)]
    for i in range(d):
        for j in range(d):
            for s, coeff in mat.entries[i][j].terms.items():
                for mp in els:
                    r = idx[s * mp] * d + i
                    c = idx[mp] * d + j
                    rows[r][c] = field.add_v(rows[r][c], coeff)
    return FlatMatrix(field, size, tuple(tuple(r) for r in rows))


def unflatten(flat, monoid, d):
    """Recover the algebra matrix from its flattening (identity column block);
    the planned caller is ROADMAP item 7's `finiteness invert`."""
    els = monoid.elements()
    field = flat.field
    if flat.size != len(els) * d:
        raise ValidationError("flat matrix size does not match monoid order and dimension")
    entries = []
    for i in range(d):
        row = []
        for j in range(d):
            row.append(_collect(field, monoid, [
                (s, flat.rows[si * d + i][j]) for si, s in enumerate(els)]))
        entries.append(row)
    return mat_from_entries(field, monoid, entries)


def flat_mul(a, b):
    """Product of two flat matrices, on plain ints for every field kind."""
    if a.field is not b.field:
        raise CarrierMismatch("flat matrices over different fields")
    if a.size != b.size:
        raise ValidationError("flat matrix sizes differ")
    f = a.field
    n = a.size
    out = []
    if f.is_rational:
        # scale row i of a by da[i] and column j of b by db[j], the lcms of
        # their denominators; cell (i, j) is then one integer over da[i]*db[j]
        db = [lcm(*(x.denominator for x in col)) for col in zip(*b.rows)]
        b_int = [[x.numerator * (d // x.denominator) for x, d in zip(row, db)]
                 for row in b.rows]
        for arow in a.rows:
            da = lcm(*(x.denominator for x in arow))
            acc = [0] * n
            for x, brow in zip(arow, b_int):
                if x:
                    m = x.numerator * (da // x.denominator)
                    acc = [s + m * y for s, y in zip(acc, brow)]
            out.append(tuple(Fraction(s, da * d) for s, d in zip(acc, db)))
    elif f.k == 1:
        p = f.p
        for arow in a.rows:
            acc = [0] * n
            for x, brow in zip(arow, b.rows):
                if x:
                    acc = [s + x * y for s, y in zip(acc, brow)]
            out.append(tuple(s % p for s in acc))
    else:
        add_t, mul_t, _, _ = f.rank_tables()
        for arow in a.rows:
            acc = [0] * n
            for x, brow in zip(arow, b.rows):
                if x:
                    mrow = mul_t[x]
                    acc = [add_t[s][mrow[y]] for s, y in zip(acc, brow)]
            out.append(tuple(acc))
    return FlatMatrix(f, n, tuple(out))


def gauss_rank(flat):
    """Exact rank by elimination to row-echelon form; no pivot tolerance.

    Over Q, scaling a row by the lcm of its denominators keeps the rank, and
    every Bareiss division is exact.
    """
    f = flat.field
    n = flat.size
    if f.is_rational:
        rows = []
        for row in flat.rows:
            d = lcm(*(x.denominator for x in row))
            rows.append([x.numerator * (d // x.denominator) for x in row])
        prev = 1  # the previous pivot, which divides every updated entry
    else:
        p = f.p
        rows = [list(row) for row in flat.rows]
        if f.k > 1:
            add_t, mul_t, neg_t, inv_t = f.rank_tables()
    rank = 0
    for col in range(n):
        pivot = next((r for r in range(rank, n) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        pv = prow[col]
        if f.is_rational:
            for r in range(rank + 1, n):
                c = rows[r][col]
                rows[r] = [(pv * x - c * y) // prev for x, y in zip(rows[r], prow)]
            prev = pv
        elif f.k == 1:
            inv = pow(pv, -1, p)
            for r in range(rank + 1, n):
                c = rows[r][col]
                if c:
                    m = c * inv % p
                    rows[r] = [(x - m * y) % p for x, y in zip(rows[r], prow)]
        else:
            inv = inv_t[pv]
            for r in range(rank + 1, n):
                c = rows[r][col]
                if c:
                    mrow = mul_t[neg_t[mul_t[c][inv]]]  # times -c/pv
                    rows[r] = [add_t[x][mrow[y]] for x, y in zip(rows[r], prow)]
        rank += 1
    return rank


@dataclass(frozen=True)
class CertifyReport:
    ok: bool
    right_product_identity: bool  # B*A == I, the claim being certified
    flat_rank: int
    flat_size: int
    flat_full_rank: bool
    witness: tuple | None  # (i, j, literal) of the first off entry of B*A

    def __bool__(self):
        return self.ok


def certify_two_sided(a, b):
    """Given A*B = I over a finite monoid, confirm B*A = I two ways.

    The direct route multiplies the matrices; the independent route checks
    that the flattening of A has full rank.  A*B != I or an infinite monoid
    is an input error, not a negative verdict.
    """
    _check_carriers(a, b)
    if a.d != b.d:
        raise ValidationError("matrix dimensions differ")
    if not a.monoid.is_finite():
        raise NotFinite("certification runs the regular action; the monoid must be finite")
    ident = mat_identity(a.field, a.monoid, a.d)
    if a * b != ident:
        raise ValidationError("A*B is not the identity", witness=(a * b))
    ba = b * a
    direct = ba == ident
    witness = None
    if not direct:
        for i in range(a.d):
            for j in range(a.d):
                want = ident.entries[i][j]
                if ba.entries[i][j] != want:
                    witness = (i, j, str(ba.entries[i][j]))
                    break
            if witness:
                break
    fa = flatten(a)
    rank = gauss_rank(fa)
    full = rank == fa.size
    return CertifyReport(direct and full, direct, rank, fa.size, full, witness)


@dataclass(frozen=True)
class BicyclicWitness:
    a: AlgMatrix
    b: AlgMatrix
    left_identity: bool   # A*B == I
    right_identity: bool  # B*A == I
    residual: str         # literal of (B*A)[0][0]

    def __bool__(self):
        return self.left_identity and not self.right_identity


def bicyclic_witness(field):
    """One-sided inverse pair A=[p], B=[q]: A*B = I but B*A != I."""
    m = bicyclic()
    a = mat_from_entries(field, m, [[alg_basis(field, m, m.p)]])
    b = mat_from_entries(field, m, [[alg_basis(field, m, m.q)]])
    ab = a * b
    ba = b * a
    ident = mat_identity(field, m, 1)
    return BicyclicWitness(a, b, ab == ident, ba == ident, str(ba.entries[0][0]))
