"""Field arithmetic tests.

The extension-field oracle below is deliberately independent of the package:
schoolbook polynomial multiplication followed by long division by the
modulus, all in plain ints.  Frozen expected values were computed with it.
An extension-field value is a rank; `coeffs` decodes it into the coefficient
vector the oracle works on.
"""

import itertools
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from moca.errors import BudgetExceeded, CarrierMismatch, NotFinite, ParseError, ValidationError
from moca.algebra import alg_one
from moca.fields import _MR_BOUND, _extension_tables, _is_prime, decode_digits, encode_digits, field_make, parse_field_spec, rationals, DEFAULT_MODULI, MAX_EXTENSION_ORDER
from moca.monoids import cyclic


# oracle: multiply coefficient vectors, reduce mod (modulus, p), schoolbook

def oracle_mul(a, b, modulus, p):
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    k = len(modulus) - 1
    while len(prod) > k:
        top = prod.pop()
        if top:
            for i in range(k):
                prod[-k + i] = (prod[-k + i] - top * modulus[i]) % p
    while len(prod) < k:
        prod.append(0)
    return tuple(prod)


def coeffs(x):
    """The ascending coefficient vector of an extension-field scalar: the
    base-p digits of its rank, low digit first."""
    r, out = x.v, []
    for _ in range(x.field.k):
        out.append(r % x.field.p)
        r //= x.field.p
    return tuple(out)


def oracle_has_root(modulus, p):
    for x in range(p):
        acc = 0
        for c in reversed(modulus):
            acc = (acc * x + c) % p
        if acc == 0:
            return True
    return False


ALL_SMALL_Q = sorted(
    [(p, 1) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)]
    + list(DEFAULT_MODULI)
)


def test_gf4_generator_square_frozen():
    # oracle: (0,1)*(0,1) mod t^2+t+1 over GF(2) = (1,1), i.e. t*t = t+1
    assert oracle_mul((0, 1), (0, 1), (1, 1, 1), 2) == (1, 1)
    f4 = field_make(2, 2)
    t = f4.generator
    assert coeffs(t * t) == (1, 1)
    assert (t * t).v == 3  # the rank 1 + 1*2
    assert str(t * t) == "t+1"


def test_gf4_matches_oracle_on_all_pairs():
    f4 = field_make(2, 2)
    for x in f4.elements():
        for y in f4.elements():
            assert coeffs(x * y) == oracle_mul(coeffs(x), coeffs(y), (1, 1, 1), 2)


def test_gf9_and_gf8_match_oracle():
    for (p, k) in ((2, 3), (3, 2)):
        f = field_make(p, k)
        for x in f.elements():
            for y in f.elements():
                assert coeffs(x * y) == oracle_mul(coeffs(x), coeffs(y), f.modulus, p)


def test_nonprime_characteristic_rejected():
    with pytest.raises(ValidationError):
        field_make(4, 1)
    with pytest.raises(ValidationError):
        field_make(1, 1)


def oracle_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(20000) if _is_prime(n)] == \
        [n for n in range(20000) if oracle_is_prime(n)]


def test_pseudoprimes_rejected():
    # strong pseudoprimes to base 2 (2047) and to bases 2, 3, 5, 7
    # (3215031751), and the Carmichael number 561
    for n in (2047, 3215031751, 561):
        assert not _is_prime(n)
        with pytest.raises(ValidationError):
            field_make(n)


def test_large_prime_field_is_fast():
    t0 = time.perf_counter()
    f = parse_field_spec(str(2**61 - 1))
    assert time.perf_counter() - t0 < 0.5
    assert (f.scalar_from_int(2**60) * f.scalar_from_int(2)).v == 1
    assert not _is_prime((2**31 - 1) * (2**19 - 1))  # a product of Mersenne primes
    with pytest.raises(ValidationError) as ei:
        field_make(_MR_BOUND + 2)
    assert str(_MR_BOUND) in str(ei.value)


def test_fields_are_interned():
    assert field_make(2, 2) is parse_field_spec("2^2")
    assert field_make(2, 2, (1, 1, 1)) is field_make(2, 2)
    assert field_make(3) is parse_field_spec(" 3 ")
    assert parse_field_spec("Q") is rationals()
    # t^2+t+2 is irreducible over GF(3) but is not the default t^2+1
    other = field_make(3, 2, (2, 1, 1))
    assert other is field_make(3, 2, (5, 4, 1))  # normalised mod 3
    assert other is not field_make(3, 2)
    assert other.one != field_make(3, 2).one
    with pytest.raises(CarrierMismatch):
        other.one + field_make(3, 2).one
    with pytest.raises(CarrierMismatch):
        alg_one(other, cyclic(2)) * alg_one(field_make(3, 2), cyclic(2))


def test_reducible_modulus_rejected_with_factor():
    # t^2+1 = (t+1)^2 over GF(2)
    with pytest.raises(ValidationError) as ei:
        field_make(2, 2, modulus=(1, 0, 1))
    assert ei.value.witness == (1, 1)  # t+1
    assert str(ei.value) == "modulus t^2+1 is reducible over GF(2); factor t+1"


def _ptrim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _pmod(a, b, p):
    """The remainder of a modulo the nonzero polynomial b; polynomials are
    tuples in ascending degree."""
    a, b = list(_ptrim(a)), _ptrim(b)
    db = len(b) - 1
    linv = pow(b[-1], -1, p)
    for da in range(len(a) - 1, db - 1, -1):
        c = (a[da] * linv) % p
        if c:
            for i in range(db + 1):
                a[da - db + i] = (a[da - db + i] - c * b[i]) % p
    return _ptrim(a)


def table_irreducibility_witness(modulus, p):
    """The factor that the table build reports, or None."""
    try:
        _extension_tables(p, len(modulus) - 1, modulus)
    except ValidationError as e:
        return e.witness
    return None


def oracle_irreducibility_witness(modulus, p):
    """The least monic factor of least degree, by trial division."""
    k = len(modulus) - 1
    for deg in range(1, k // 2 + 1):
        for idx in range(p**deg):
            coeffs = []
            r = idx
            for _ in range(deg):
                coeffs.append(r % p)
                r //= p
            cand = tuple(coeffs) + (1,)
            if not _pmod(modulus, cand, p):
                return cand
    return None


def test_irreducibility_witness_matches_trial_division():
    count = 0
    for p, degrees in ((2, range(2, 7)), (3, range(2, 5)), (5, range(2, 4)),
                       (7, (2,))):
        for k in degrees:
            for low in itertools.product(range(p), repeat=k):
                modulus = low + (1,)
                assert (table_irreducibility_witness(modulus, p)
                        == oracle_irreducibility_witness(modulus, p)), (p, modulus)
                count += 1
    assert count == 440


def test_large_characteristic_modulus_is_fast():
    # GF(p^k) above q = 256 is refused before any factor search: t^2+1 is
    # irreducible for p = 3 mod 4, and t^4+1 over GF(100003) is a product of
    # two quadratics that used to take minutes to find.  The bound comes
    # before the degree check, and 2^(10^9) is never formed.
    for p, k, modulus in ((1000003, 2, (1, 0, 1)),
                          (100003, 4, (1, 0, 0, 0, 1)),
                          (2, 10**9, (1, 1))):
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceeded) as ei:
            field_make(p, k, modulus)
        assert time.perf_counter() - t0 < 0.1
        assert f"{p}^{k}" in str(ei.value) and "256" in str(ei.value)


def oracle_tables(f):
    """(add, mul, neg, inv) by rank, from oracle_mul on coefficient vectors."""
    p, q = f.p, f.order
    vecs = [coeffs(f.unrank(r)) for r in range(q)]
    rank = {v: r for r, v in enumerate(vecs)}
    add = [[rank[tuple((x + y) % p for x, y in zip(a, b))] for b in vecs] for a in vecs]
    mul = [[rank[oracle_mul(a, b, f.modulus, p)] for b in vecs] for a in vecs]
    neg = [rank[tuple(-x % p for x in a)] for a in vecs]
    inv = [0] + [row.index(1) for row in mul[1:]]
    return add, mul, neg, inv


@pytest.mark.parametrize("p,k", sorted(DEFAULT_MODULI))
def test_extension_tables_match_oracle(p, k):
    f = field_make(p, k)
    assert f.rank_tables() == oracle_tables(f)
    for x in f.elements():
        assert type(x.v) is int and 0 <= x.v < f.order and x.v == x.rank()


def best_build_time(p, k, modulus):
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _extension_tables(p, k, modulus)
        times.append(time.perf_counter() - t0)
    return min(times)


def test_default_field_tables_build_fast():
    for (p, k), modulus in DEFAULT_MODULI.items():
        assert best_build_time(p, k, modulus) < 0.005, (p, k)


@pytest.mark.parametrize("p,k,modulus", [
    (2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1)),  # t^8+t^4+t^3+t+1
    (3, 5, (1, 2, 0, 0, 0, 1)),           # t^5+2t+1
])
def test_largest_extension_fields(p, k, modulus):
    assert p**k <= MAX_EXTENSION_ORDER
    assert best_build_time(p, k, modulus) < 0.1
    f = field_make(p, k, modulus)
    rng = random.Random(p * k)
    for _ in range(2000):
        x, y = f.unrank(rng.randrange(f.order)), f.unrank(rng.randrange(f.order))
        assert coeffs(x * y) == oracle_mul(coeffs(x), coeffs(y), modulus, p)
        assert f.parse_literal(str(x)) == x
        if not y.is_zero():
            assert (x * y.inverse()) * y == x
    with pytest.raises(BudgetExceeded):
        field_make(3, 6, (2, 1, 0, 0, 0, 0, 1))  # q = 729


def test_default_moduli_irreducible_by_oracle():
    # degree <= 3 entries have no roots; that is full irreducibility for k <= 3
    for (p, k), mod in DEFAULT_MODULI.items():
        if k <= 3:
            assert not oracle_has_root(mod, p), (p, k)


def test_prime_field_smoke():
    f3 = field_make(3)
    two = f3.scalar_from_int(2)
    assert (two * two).v == 1
    assert (two + two).v == 1
    assert (-two).v == 1
    assert two.inverse().v == 2


def test_rationals_exact():
    q = rationals()
    third = q.parse_literal("1/3")
    sixth = q.parse_literal("1/6")
    assert (third + sixth).v == Fraction(1, 2)
    assert str(third + sixth) == "1/2"
    assert (third * third.inverse()).is_one()
    with pytest.raises(ZeroDivisionError):
        q.zero.inverse()
    with pytest.raises(NotFinite):
        third.rank()


@pytest.mark.parametrize("p,k", ALL_SMALL_Q)
def test_scalar_rank_bijection(p, k):
    f = field_make(p, k)
    q = f.order
    seen = sorted(x.rank() for x in f.elements())
    assert seen == list(range(q))
    for r in range(q):
        assert f.unrank(r).rank() == r
    assert f.zero.rank() == 0
    assert f.one.rank() == 1


def test_rank_frozen_examples():
    assert field_make(2, 2).generator.rank() == 2  # t -> 2
    assert field_make(3).scalar_from_int(2).rank() == 2


FIELDS_Q16 = [field_make(2), field_make(3), field_make(5), field_make(7),
              field_make(11), field_make(13), field_make(2, 2), field_make(2, 3),
              field_make(2, 4), field_make(3, 2)]


@pytest.mark.parametrize("f", FIELDS_Q16, ids=lambda f: f.name())
def test_field_axioms_exhaustive(f):
    els = f.elements()
    zero, one = f.zero, f.one
    for x in els:
        assert x + zero == x and x * one == x
        assert x + (-x) == zero
        if not x.is_zero():
            assert x * x.inverse() == one
    for x in els:
        for y in els:
            assert x + y == y + x and x * y == y * x
            for z in els:
                assert (x + y) + z == x + (y + z)
                assert (x * y) * z == x * (y * z)
                assert x * (y + z) == x * y + x * z


@pytest.mark.parametrize("f", [field_make(2, 2), field_make(2, 3), field_make(2, 4), field_make(3, 2)],
                         ids=lambda f: f.name())
def test_frobenius_additive(f):
    p = f.p
    def frob(x):
        out = f.one
        for _ in range(p):
            out = out * x
        return out
    for x in f.elements():
        for y in f.elements():
            assert frob(x + y) == frob(x) + frob(y)


def test_mixed_field_operations_raise():
    a = field_make(2).one
    b = field_make(3).one
    with pytest.raises(CarrierMismatch):
        a + b


def test_literal_parsing_gf4():
    f4 = field_make(2, 2)
    assert coeffs(f4.parse_literal("t+1")) == (1, 1)
    assert coeffs(f4.parse_literal(" t + 1 ")) == (1, 1)
    assert coeffs(f4.parse_literal("t^2")) == (1, 1)  # reduced mod t^2+t+1
    assert f4.parse_literal("0").is_zero()
    with pytest.raises(ParseError):
        f4.parse_literal("u+1")


def oracle_parse_extension_literal(f, text):
    """The hand tokenizer GF(p^k) literals were once read with: a run of
    signs before a term folds into one sign.  On literals with at most one
    sign per term it must agree with parse_literal_v, values and errors.
    A term ending in `*` (a coefficient with no t after its star) is
    rejected here too."""
    s = re.sub(r"\s+", "", text)
    if not s:
        raise ParseError(f"empty {f.name()} literal")
    terms = []
    cur = ""
    sign = 1
    first = True
    for ch in s:
        if ch in "+-" and not first and cur:
            terms.append((sign, cur))
            sign = 1 if ch == "+" else -1
            cur = ""
        elif ch in "+-" and (first or not cur):
            if ch == "-":
                sign = -sign
        else:
            cur += ch
        first = False
    if not cur:
        raise ParseError(f"bad {f.name()} literal {text!r}")
    terms.append((sign, cur))
    add, mul, _, _ = f.rank_tables()
    degs = {}
    for sg, term in terms:
        m = re.fullmatch(r"(?:([0-9]+)\*?)?(t(?:\^([0-9]+))?)?", term)
        if not m or (m.group(1) is None and m.group(2) is None) or term.endswith("*"):
            raise ParseError(f"bad term {term!r} in {f.name()} literal")
        coeff = int(m.group(1)) if m.group(1) is not None else 1
        if m.group(2) is None:
            deg = 0
        else:
            deg = int(m.group(3)) if m.group(3) is not None else 1
        deg %= f.order - 1
        degs[deg] = degs.get(deg, 0) + sg * coeff
    r = 0
    for d in range(max(degs), -1, -1):
        r = add[mul[r][f.p]][degs.get(d, 0) % f.p]
    return r


def _outcome(parse, f, text):
    try:
        return parse(f, text)
    except ParseError as e:
        return str(e)


def _single_sign_literals(rng, count):
    """Literals from well-formed and broken terms, one sign or none before
    each term, spaces sprinkled in; about two in three are malformed."""
    terms = ("0", "1", "2", "12", "t", "t^2", "t^9", "2*t", "3t^4", "10*t^0",
             "", "*", "t^", "2*", "u", "tt", "t*2", "^3")
    out = []
    while len(out) < count:
        text = ""
        for i in range(rng.randrange(1, 5)):
            sign = rng.choice(("", "+", "-")) if i == 0 else rng.choice("+-")
            text += sign + " " * rng.randrange(2) + rng.choice(terms)
        if not re.search(r"[+-]\s*[+-]", text):
            out.append(text)
    return out


def test_literal_parser_agrees_with_old_tokenizer():
    rng = random.Random(15)
    for p, k in DEFAULT_MODULI:
        f = field_make(p, k)
        for text in _single_sign_literals(rng, 3000) + ["", " ", "+", "-", "t+"]:
            assert _outcome(type(f).parse_literal_v, f, text) == \
                _outcome(oracle_parse_extension_literal, f, text), (f, text)


def test_sign_runs_rejected_in_extension_literals():
    f4 = field_make(2, 2)
    for text in ("--t", "t+-1", "t--1", "+-1", "t + - 1", "-+t"):
        oracle_parse_extension_literal(f4, text)  # once folded into one sign
        with pytest.raises(ParseError) as exc:
            f4.parse_literal(text)
        assert str(exc.value) == f"bad GF(2^2) literal {text!r}"


def test_star_needs_a_t_in_extension_literals():
    f4 = field_make(2, 2)
    for text, term in (("1*", "1*"), ("t + 2*", "2*"), ("3* + t", "3*")):
        with pytest.raises(ParseError) as exc:
            f4.parse_literal(text)
        assert str(exc.value) == f"bad term {term!r} in GF(2^2) literal"
    assert f4.parse_literal("1*t + 2*t^2") == f4.parse_literal("t + 2t^2")


def test_literal_exponents_reduce_mod_q_minus_1():
    # t is a unit, so t^(q-1) = 1 and a huge exponent costs nothing
    big = 10 ** 18
    for p, k in ((2, 2), (3, 2), (2, 4), (5, 2)):
        f = field_make(p, k)
        t0 = time.perf_counter()
        x = f.parse_literal(f"t^{big}")
        assert time.perf_counter() - t0 < 0.1
        assert x == f.parse_literal(f"t^{big % (f.order - 1)}")
        assert f.parse_literal(f"2*t^{f.order - 1} + t^{f.order}") == \
            f.parse_literal("2") + f.generator
        # the same values by repeated multiplication, for small exponents
        power = f.one
        for e in range(2 * f.order):
            assert f.parse_literal(f"t^{e}") == power
            power = power * f.generator


def test_literal_parsing_prime_and_rational():
    f5 = field_make(5)
    assert f5.parse_literal("-2").v == 3
    assert f5.parse_literal(" 7 ").v == 2
    with pytest.raises(ParseError):
        f5.parse_literal("t")
    q = rationals()
    assert q.parse_literal("-2/5").v == Fraction(-2, 5)
    with pytest.raises(ParseError):
        q.parse_literal("1/0")


def test_literal_round_trip_all_small_fields():
    for (p, k) in ALL_SMALL_Q:
        f = field_make(p, k)
        if f.order > 64:
            continue
        for x in f.elements():
            assert f.parse_literal(str(x)) == x


def test_parse_field_spec():
    assert parse_field_spec("2").name() == "GF(2)"
    assert parse_field_spec("2^2").name() == "GF(2^2)"
    assert parse_field_spec("Q").is_rational
    with pytest.raises(ValidationError):
        parse_field_spec("4")  # 4 is not prime; GF(4) is spelled 2^2
    with pytest.raises(ParseError):
        parse_field_spec("2^^3")


@given(st.fractions(), st.fractions(), st.fractions())
def test_rational_axioms_hypothesis(a, b, c):
    q = rationals()
    x, y, z = (q.scalar_from_int(0) for _ in range(3))
    x.v, y.v, z.v = a, b, c
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x


@given(st.integers(2, 300), st.data())
def test_digit_codec_round_trips(base, data):
    length = data.draw(st.integers(0, 12))
    idx = data.draw(st.integers(0, base ** length - 1))
    assert encode_digits(decode_digits(idx, base, length), base) == idx
    digits = data.draw(st.lists(st.integers(0, base - 1), max_size=12))
    assert decode_digits(encode_digits(digits, base), base, len(digits)) == digits
