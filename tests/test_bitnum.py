"""bitnum: worked examples, oracle cross-checks, and algebraic properties."""

import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from satcirc.bitnum import (
    BitNumError, BitString, Flt, Rat, UNat,
    check_size_preserving, flt, flt_add, flt_cmp, flt_div, flt_mul, flt_neg,
    flt_sqrt, parse_flt, parse_rat, parse_unat, rat, rat_add, rat_cmp,
    rat_mul, rat_neg, relu, size, uadd, ucmp, umul,
)

import oracles


def u(text):
    return UNat(BitString.parse(text))


# ---------------------------------------------------------------------------
# unsigned integers

def test_display_example_five_plus_one():
    # display is most-significant-first: 101 + 1 = 110 reads as 5 + 1 = 6
    assert uadd(u("101"), u("1")).display() == "110"


def test_uadd_identity():
    x = UNat.from_int(1234)
    assert uadd(UNat.from_int(0), x) == x


def test_uadd_random_256bit_vs_schoolbook():
    rng = random.Random(0xADD)
    for _ in range(300):
        a, b = rng.getrandbits(256), rng.getrandbits(256)
        ours = uadd(UNat.from_int(a), UNat.from_int(b))
        ref = oracles.school_add(oracles.int_to_bits(a), oracles.int_to_bits(b))
        assert ours.value == oracles.bits_to_int(ref)


def test_umul_identities_and_small():
    x = UNat.from_int(77)
    assert umul(x, UNat.from_int(1)) == x
    assert umul(UNat.from_int(3), UNat.from_int(5)).value == 15


def test_umul_repeated_addition_small():
    rng = random.Random(0x5EED)
    for _ in range(50):
        a, b = rng.randrange(0, 40), rng.getrandbits(24)
        assert umul(UNat.from_int(a), UNat.from_int(b)).value == \
            oracles.repeated_add_mul(a, b)


def test_umul_random_128bit_vs_schoolbook():
    rng = random.Random(0x30B)
    for _ in range(200):
        a, b = rng.getrandbits(128), rng.getrandbits(128)
        ref = oracles.school_mul(oracles.int_to_bits(a), oracles.int_to_bits(b))
        assert umul(UNat.from_int(a), UNat.from_int(b)).value == \
            oracles.bits_to_int(ref)


def test_ucmp_basic_and_padding():
    assert ucmp(UNat.from_int(0), UNat.from_int(0)) == 0
    assert ucmp(UNat.from_int(5), UNat.from_int(6)) == -1
    # padding zeros change size, not ordering
    assert ucmp(u("0101"), u("101")) == 0
    assert size(u("0101")) == 4 and size(u("101")) == 3


def test_ucmp_vs_subtraction_oracle():
    rng = random.Random(0xC99)
    for _ in range(500):
        a, b = rng.getrandbits(64), rng.getrandbits(64)
        ref = oracles.school_cmp(oracles.int_to_bits(a), oracles.int_to_bits(b))
        assert ucmp(UNat.from_int(a), UNat.from_int(b)) == ref


def test_rat_reduces():
    assert (rat(4, 8).p.value, rat(4, 8).q.value) == (1, 2)
    assert (rat(7, 10).p.value, rat(7, 10).q.value) == (7, 10)
    with pytest.raises(BitNumError):
        rat(1, 0)
    rng = random.Random(0x4ED)
    for _ in range(300):
        a, b = rng.randrange(0, 10**9), rng.randrange(1, 10**9)
        r = rat(a, b)
        p, q = r.p.value, r.q.value
        assert math.gcd(p, q) == 1
        assert p * b == a * q  # cross-multiply equal


# UNat stores (value, length); these pin it to the bit-tuple semantics:
# value and size from the bits, equality on the padded bit tuple.

bit_lists = st.lists(st.integers(0, 1), max_size=80)


def ref_display(bits):
    return "".join(str(b) for b in reversed(bits)) or "0"


@given(bit_lists)
def test_unat_from_bits_keeps_padding(bits):
    x = UNat(bits)
    assert x.value == sum(b << i for i, b in enumerate(bits))
    assert len(x) == size(x) == len(bits)
    assert x.bits == BitString(tuple(bits))
    assert x.display() == ref_display(bits)
    assert repr(x) == f"UNat({ref_display(bits)!r})"
    assert UNat(x.bits) == x == UNat(BitString(tuple(bits)))


@given(st.integers(0, 1 << 300))
def test_unat_from_int_is_minimal(v):
    x = UNat.from_int(v)
    bits = [(v >> i) & 1 for i in range(v.bit_length())]
    assert (x.value, len(x), str(x)) == (v, v.bit_length(), str(v))
    assert x.bits.bits == tuple(bits)
    assert x == UNat(bits) and hash(x) == hash(UNat(bits))
    assert x.display() == ref_display(bits)
    assert UNat(BitString.parse(x.display())) == x


@given(bit_lists, bit_lists)
def test_unat_equality_is_padded_bit_equality(a, b):
    x, y = UNat(a), UNat(b)
    assert (x == y) == (a == b)
    if x == y:
        assert hash(x) == hash(y)
    assert (x == UNat.from_int(x.value)) == (not a or a[-1] == 1)


def test_unat_from_int_rejects_negatives_and_non_integers():
    with pytest.raises(BitNumError):
        UNat.from_int(-1)
    with pytest.raises(TypeError):
        UNat.from_int(2.0)
    assert str(UNat.from_int(True)) == "1"
    with pytest.raises(BitNumError):
        UNat((0, 2))


# ---------------------------------------------------------------------------
# rationals

def test_rat_add_examples():
    assert rat_add(rat(1, 2), rat(1, 5)).as_pair() == (7, 10)
    r = rat(-3, 7)
    assert rat_add(r, rat_neg(r)).as_pair() == (0, 1)
    assert str(rat_add(r, rat_neg(r))) == "+0/1"  # canonical zero


def test_rat_ops_vs_unreduced_oracle():
    rng = random.Random(0xA7)
    for _ in range(2000):
        a = (rng.randrange(-999, 1000), rng.randrange(1, 1000))
        b = (rng.randrange(-999, 1000), rng.randrange(1, 1000))
        ra, rb = rat(*a), rat(*b)
        assert rat_add(ra, rb).as_pair() == oracles.oracle_rat_add(*a, *b)
        if b[0] != 0:
            assert rat_mul(ra, rb).as_pair() == oracles.oracle_rat_mul(*a, *b)


def test_rat_invariants_reduced():
    rng = random.Random(0x1BAD)
    for _ in range(500):
        r = rat_add(rat(rng.randrange(-50, 51), rng.randrange(1, 60)),
                    rat(rng.randrange(-50, 51), rng.randrange(1, 60)))
        assert math.gcd(r.p.value, r.q.value) == 1 or r.p.value == 0
        assert r.q.value > 0
        assert len(r.p) == r.p.value.bit_length()
        assert len(r.q) == r.q.value.bit_length()
        if r.p.value == 0:
            assert r.sign == 1 and r.q.value == 1


# ---------------------------------------------------------------------------
# the value contract of Rat and Flt

VALUES = [rat(-4, 6), rat(0), rat(7), flt(-6, 3), flt(0), flt(5, 2)]
FIELDS = {Rat: ("sign", "p", "q"), Flt: ("sign", "p", "e")}


def field_tuple(x):
    return tuple(getattr(x, f) for f in FIELDS[type(x)])


@pytest.mark.parametrize("x", VALUES, ids=str)
def test_values_are_slotted_and_immutable(x):
    assert not hasattr(x, "__dict__")
    for field in FIELDS[type(x)]:
        with pytest.raises(AttributeError):
            setattr(x, field, getattr(x, field))
        with pytest.raises(AttributeError):
            delattr(x, field)
    with pytest.raises(AttributeError):
        x.extra = 1


@pytest.mark.parametrize("x", VALUES, ids=str)
def test_values_round_trip_through_pickle_and_copy(x):
    for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(y) is type(x) and y == x and hash(y) == hash(x)
        assert repr(y) == repr(x)


def test_value_equality_is_by_class_and_fields():
    assert flt(1) != rat(1) and rat(1) != flt(1)
    one = UNat.from_int(1)
    assert Flt(1, one, 1) != Rat(1, one, 1)  # equal fields, other class
    assert flt(6, 2) == Flt(1, UNat.from_int(3), 1)
    assert rat(-4, 6) == Rat(0, UNat.from_int(2), UNat.from_int(3))
    assert hash(flt(6, 2)) == hash(Flt(1, UNat.from_int(3), 1))
    for x in VALUES:
        assert x != field_tuple(x)
        assert x.__eq__(field_tuple(x)) is NotImplemented


# ---------------------------------------------------------------------------
# floats

def rand_flt(rng, pbits=20, emax=12):
    x = flt(rng.randrange(-(1 << pbits), 1 << pbits), rng.randrange(0, emax))
    return x


def as_triple(x):
    return (x.sign, x.p.value, x.e)


def ref_flt_make(num, e):
    """Canonical form by stripping one shared factor of two per step."""
    p = abs(num)
    if p == 0:
        return Flt(1, UNat.from_int(0), 0)
    while p & 1 == 0 and e > 0:
        p >>= 1
        e -= 1
    return Flt(1 if num >= 0 else 0, UNat.from_int(p), e)


@given(st.integers(-(1 << 200), 1 << 200), st.integers(0, 300),
       st.integers(0, 120))
def test_flt_make_vs_reference_strip_loop(num, e, shift):
    for n in (num, num << shift):
        x = flt(n, e)
        assert x == ref_flt_make(n, e)
        assert len(x.p) == x.p.value.bit_length()


def test_flt_add_mul_examples():
    assert flt_add(flt(1, 1), flt(1, 2)).as_pair() == (3, 4)
    x = flt(13, 3)
    assert flt_add(x, flt(0)) == x
    assert flt_mul(x, flt(1)) == x
    assert flt_mul(flt(3, 1), flt(1, 1)).as_pair() == (3, 4)


def test_flt_ops_agree_with_rational_oracle():
    rng = random.Random(0xF17)
    for _ in range(2000):
        x, y = rand_flt(rng), rand_flt(rng)
        assert as_triple(flt_add(x, y)) == oracles.oracle_flt_add(as_triple(x), as_triple(y))
        assert as_triple(flt_mul(x, y)) == oracles.oracle_flt_mul(as_triple(x), as_triple(y))


def test_flt_div_appendix_formula():
    # 1 / 3: |3| = 2 bits, floor(4/3) = 1, denominator 2^2
    assert flt_div(flt(1), flt(3)).as_pair() == (1, 4)
    # witness of inexactness: (1 / 3) * 3 = 3/4, not 1
    assert flt_mul(flt_div(flt(1), flt(3)), flt(3)).as_pair() == (3, 4)
    with pytest.raises(BitNumError):
        flt_div(flt(1), flt(0))


def test_flt_div_power_of_two_exact():
    rng = random.Random(0xD1F)
    for _ in range(300):
        x = rand_flt(rng)
        d = rng.choice([1, 2, 4, 8, 32])
        q = flt_div(x, flt(d))
        assert Fraction(*q.as_pair()) == Fraction(*x.as_pair()) / d


def test_flt_div_random_vs_oracle():
    rng = random.Random(0xD2F)
    for _ in range(2000):
        x, y = rand_flt(rng), rand_flt(rng)
        if y.is_zero():
            continue
        assert as_triple(flt_div(x, y)) == \
            oracles.oracle_flt_div(as_triple(x), as_triple(y))


def test_flt_sqrt():
    assert flt_sqrt(flt(9, 2)).as_pair() == (3, 2)
    assert flt_sqrt(flt(0)).as_pair() == (0, 1)
    with pytest.raises(BitNumError):
        flt_sqrt(flt(-1))
    rng = random.Random(0x541)
    for _ in range(500):
        x = flt(rng.randrange(0, 1 << 24), rng.randrange(0, 10))
        r = flt_sqrt(x)
        p, e = x.p.value, x.e
        if e % 2:
            p, e = 2 * p, e + 1
        assert r.as_pair() == flt(oracles.isqrt_binary_search(p), e // 2).as_pair()
        # truncation contract: r^2 <= x
        assert flt_cmp(flt_mul(r, r), x) <= 0


def test_flt_canonical_invariant():
    rng = random.Random(0xCA0)
    for _ in range(500):
        x, y = rand_flt(rng), rand_flt(rng)
        for z in (flt_add(x, y), flt_mul(x, y), flt_neg(x)):
            assert z.p.value % 2 == 1 or z.e == 0
            if z.is_zero():
                assert z.sign == 1 and z.e == 0


# ---------------------------------------------------------------------------
# algebra: commutativity/associativity on >= 10^4 triples per family

def test_bulk_commutativity_associativity():
    rng = random.Random(0xA55)
    for _ in range(10_000):
        au, bu, cu = (UNat.from_int(rng.getrandbits(48)) for _ in range(3))
        assert uadd(au, bu) == uadd(bu, au)
        assert uadd(uadd(au, bu), cu) == uadd(au, uadd(bu, cu))
        assert umul(au, bu) == umul(bu, au)
        assert umul(umul(au, bu), cu) == umul(au, umul(bu, cu))
    for _ in range(10_000):
        a = rat(rng.randrange(-99, 100), rng.randrange(1, 100))
        b = rat(rng.randrange(-99, 100), rng.randrange(1, 100))
        c = rat(rng.randrange(-99, 100), rng.randrange(1, 100))
        assert rat_add(a, b) == rat_add(b, a)
        assert rat_add(rat_add(a, b), c) == rat_add(a, rat_add(b, c))
        assert rat_mul(a, b) == rat_mul(b, a)
        assert rat_mul(rat_mul(a, b), c) == rat_mul(a, rat_mul(b, c))
    for _ in range(10_000):
        x, y, z = (rand_flt(rng, pbits=16, emax=8) for _ in range(3))
        assert flt_add(x, y) == flt_add(y, x)
        assert flt_add(flt_add(x, y), z) == flt_add(x, flt_add(y, z))
        assert flt_mul(x, y) == flt_mul(y, x)
        assert flt_mul(flt_mul(x, y), z) == flt_mul(x, flt_mul(y, z))


@given(st.integers(-10**9, 10**9), st.integers(0, 20),
       st.integers(-10**9, 10**9), st.integers(0, 20))
def test_flt_embeds_in_rat(pn, pe, qn, qe):
    # add/mul over floats agree exactly with rational arithmetic
    x, y = flt(pn, pe), flt(qn, qe)
    rx, ry = rat(*x.as_pair()), rat(*y.as_pair())
    assert flt_add(x, y).as_pair() == rat_add(rx, ry).as_pair()
    assert flt_mul(x, y).as_pair() == rat_mul(rx, ry).as_pair()


@given(st.integers(0, 10**12), st.integers(0, 10**12))
def test_ucmp_total_order(a, b):
    assert ucmp(UNat.from_int(a), UNat.from_int(b)) == (a > b) - (a < b)


# ---------------------------------------------------------------------------
# size accounting

def test_size_worked_examples():
    assert size(UNat.from_int(2)) == 2
    assert size(flt(1, 1)) == 5   # 1 sign + 2*max(|1|, |10|)
    assert size(flt(3, 2)) == 7   # p=3 (2 bits), denominator 100 (3 bits)
    assert size(rat(0)) == 3      # +0/1: numerator empty, q one bit
    assert size(UNat.from_int(0)) == 0


def test_roundtrip_literals():
    rng = random.Random(0x707)
    for _ in range(200):
        n = UNat.from_int(rng.getrandbits(40))
        assert parse_unat(str(n)) == n
        assert parse_unat("0b" + n.display()) == n
        r = rat(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**6))
        assert parse_rat(str(r)) == r
        x = rand_flt(rng)
        assert parse_flt(str(x)) == x


def test_relu():
    assert relu(rat(-3, 4)) == rat(0)
    assert relu(rat(3, 4)) == rat(3, 4)
    assert relu(flt(-5, 2)) == flt(0)
    assert relu(flt(5, 2)) == flt(5, 2)


# ---------------------------------------------------------------------------
# size preservation profiles

def test_profile_identity():
    prof = check_size_preserving(lambda x: x,
                                 [(UNat.from_int(v),) for v in range(1, 200)])
    assert prof.ok and prof.c == 1


def test_profile_flt_add_paired():
    rng = random.Random(0x51E)
    plan = [(rand_flt(rng, 64, 30), rand_flt(rng, 64, 30)) for _ in range(800)]
    prof = check_size_preserving(flt_add, plan, cap=4)
    assert prof.ok, prof


def test_profile_unary_expansion_fails():
    def unary(k):
        return UNat((1,) * k.value)
    plan = [(UNat.from_int(v),) for v in [3, 9, 40, 200, 1000, 5000]]
    prof = check_size_preserving(unary, plan)
    assert not prof.ok
    assert prof.c > prof.cap
