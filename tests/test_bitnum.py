"""bitnum: worked examples, oracle cross-checks, and algebraic properties."""

import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from satcirc.bitnum import (
    BitNumError, Flt, Rat, UNat, flt, flt_add, flt_cmp, flt_div, flt_mul,
    flt_neg, flt_sqrt, rat, rat_add, rat_mul, rat_neg, size,
)

import oracles
from oracles import size_factor


# ---------------------------------------------------------------------------
# unsigned integers

def test_display_example_five_plus_one():
    # display is most-significant-first: 101 + 1 = 110 reads as 5 + 1 = 6
    five, one = UNat((1, 0, 1)), UNat((1,))
    assert (five.display(), one.display()) == ("101", "1")
    assert UNat.from_int(five.value + one.value).display() == "110"


def test_display_example_padded_five():
    # bits are given lowest first and shown most-significant-first; the
    # padding zero counts in size, not in value or ordering
    x = UNat((1, 0, 1, 0))
    assert (x.display(), x.value, size(x)) == ("0101", 5, 4)
    assert x != UNat((1, 0, 1)) and x.value == UNat((1, 0, 1)).value


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
# value, size and display from the bits, equality on the padded bit tuple.

bit_lists = st.lists(st.integers(0, 1), max_size=80)


def ref_display(bits):
    return "".join(str(b) for b in reversed(bits)) or "0"


@given(bit_lists)
def test_unat_from_bits_keeps_padding(bits):
    x = UNat(bits)
    assert x.value == sum(b << i for i, b in enumerate(bits))
    assert len(x) == size(x) == len(bits)
    assert x.display() == ref_display(bits)
    assert repr(x) == f"UNat({ref_display(bits)!r})"
    assert UNat(iter(bits)) == x == UNat(tuple(bits))


@given(st.integers(0, 1 << 300))
def test_unat_from_int_is_minimal(v):
    x = UNat.from_int(v)
    bits = [(v >> i) & 1 for i in range(v.bit_length())]
    assert (x.value, len(x), str(x)) == (v, v.bit_length(), str(v))
    assert x == UNat(bits) and hash(x) == hash(UNat(bits))
    assert x.display() == ref_display(bits)


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


# ---------------------------------------------------------------------------
# size accounting

def test_size_worked_examples():
    assert size(UNat.from_int(2)) == 2
    assert size(flt(1, 1)) == 5   # 1 sign + 2*max(|1|, |10|)
    assert size(flt(3, 2)) == 7   # p=3 (2 bits), denominator 100 (3 bits)
    assert size(rat(0)) == 3      # +0/1: numerator empty, q one bit
    assert size(UNat.from_int(0)) == 0


# ---------------------------------------------------------------------------
# size preservation profiles

def test_size_factor_is_the_least_bound_over_qualifying_pairs():
    # the oracle behind every size-preservation test: pairs with |in|
    # below n0 (or zero) are ignored however large their output, c is the
    # ceiling of |out|/|in|, and the pair that needs the largest c is named
    pairs = [(2, 100), (4, 9), (5, 5), (8, 17)]
    assert size_factor(pairs, 4) == (3, (4, 9))
    assert size_factor(pairs, 0) == (50, (2, 100))
    assert size_factor([(0, 7), (3, 3)], 0) == (1, (3, 3))
    with pytest.raises(AssertionError, match="no sample of input size >= 9"):
        size_factor(pairs, 9)


def test_profile_identity():
    xs = [UNat.from_int(v) for v in range(1, 200)]
    assert size_factor([(size(x), size(x)) for x in xs], 4)[0] == 1


def test_profile_flt_add_paired():
    # two arguments are sized by the tuple rule
    rng = random.Random(0x51E)
    plan = [(rand_flt(rng, 64, 30), rand_flt(rng, 64, 30)) for _ in range(800)]
    pairs = [(size(args), size(flt_add(*args))) for args in plan]
    c, worst = size_factor(pairs, 4)
    assert c <= 4, worst


def test_profile_unary_expansion_fails():
    ks = [UNat.from_int(v) for v in [3, 9, 40, 200, 1000, 5000]]
    pairs = [(size(k), size(UNat((1,) * k.value))) for k in ks]
    assert size_factor(pairs, 4)[0] > 8
