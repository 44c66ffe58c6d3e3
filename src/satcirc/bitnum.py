"""Exact arithmetic over binary-string numerals.

Three value kinds share one size accounting:

* ``UNat``: an unsigned integer, stored as its value; its k bits
  x_1..x_k are weighted 2^(i-1) with no padding, so k is the value's
  bit length and zero has no bits. Textual display is
  most-significant-first, so the string "101" means five. ``size`` is
  k.
* ``Rat``: sign plus reduced numerator/denominator; numeric value is
  (2*sign - 1) * p/q and size is 2*max(|p|, |q|) + 1.
* ``Flt``: a rational whose denominator is a power of two, stored as the
  exponent e; the denominator is still charged e+1 bits by ``size``.
  Addition and multiplication are exact; division is the approximate
  floor(2^|p|/p) reciprocal and is the only inexact operation.

``Rat`` and ``Flt`` are slotted and immutable: they have no ``__dict__``,
assigning a field raises ``AttributeError``, and two values are equal
when they are of one class with equal fields. Their shared base writes
equality, hashing, pickling, the signed numerator ``signed_num`` and
``repr`` once for both. Build them canonical
through ``rat(num, den)`` and ``flt(num, e)``; the positional
constructors ``Rat(sign, p, q)`` and ``Flt(sign, p, e)`` store the
fields as given. ``UNat`` is immutable too. Every operation is pure,
so concurrent use needs no coordination.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence


class BitNumError(ValueError):
    """Domain error: zero denominator, negative square root, and kin."""


# ---------------------------------------------------------------------------
# unsigned integers


class UNat:
    """Unsigned integer numeral: its value and nothing else. Build one
    with ``UNat.from_int``; its length is the value's bit length."""

    __slots__ = ("_value",)

    @classmethod
    def from_int(cls, value: int) -> "UNat":
        """The numeral of value; zero has no bits."""
        value = operator.index(value)
        if value < 0:
            raise BitNumError("UNat cannot be negative")
        u = object.__new__(cls)
        u._value = value
        return u

    @property
    def value(self) -> int:
        return self._value

    def __len__(self) -> int:
        return self._value.bit_length()

    def __eq__(self, other) -> bool:
        return isinstance(other, UNat) and self._value == other._value

    def __hash__(self) -> int:
        return hash(self._value)

    def display(self) -> str:
        """Most-significant-bit-first text; zero shows as 0."""
        return format(self._value, "b")

    def __str__(self) -> str:
        return str(self._value)

    def __repr__(self) -> str:
        return f"UNat({self.display()!r})"


# ---------------------------------------------------------------------------
# slotted records


class _Record:
    """Base of Rat and Flt: three slotted fields, the first two sign and
    p, stored once by the constructor, then read-only. Equality and hash
    go by class and field tuple; repr is the class name around str."""

    __slots__ = ()

    @property
    def signed_num(self) -> int:
        return self.p._value if self.sign else -self.p._value

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}({str(self)!r})"

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):
        return self.__class__, self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _setters(cls) -> tuple:
    """The slot writers of cls, which get past its refusing __setattr__."""
    return tuple(cls.__dict__[f].__set__ for f in cls.__slots__)


# ---------------------------------------------------------------------------
# rationals


class Rat(_Record):
    """Reduced signed rational; value (2*sign - 1) * p/q, sign 1 = positive.

    Slotted and immutable. Construct through ``rat`` (or ``Rat.make``):
    invariants are q > 0, gcd(p, q) = 1, and canonical zero +0/1.
    ``Rat(sign, p, q)`` stores the fields as given, unchecked.
    """

    __slots__ = ("sign", "p", "q")

    def __init__(self, sign: int, p: UNat, q: UNat):
        _rat_sign(self, sign)
        _rat_p(self, p)
        _rat_q(self, q)

    @staticmethod
    def make(num: int, den: int = 1) -> "Rat":
        if den == 0:
            raise BitNumError("denominator must be nonzero")
        g = math.gcd(num, den)
        sign = 1 if num == 0 or (num > 0) == (den > 0) else 0
        return Rat(sign, UNat.from_int(abs(num) // g),
                   UNat.from_int(abs(den) // g))

    def as_pair(self) -> tuple[int, int]:
        """(signed numerator, denominator)."""
        return self.signed_num, self.q.value

    def __str__(self) -> str:
        return f"{'+' if self.sign else '-'}{self.p.value}/{self.q.value}"


_rat_sign, _rat_p, _rat_q = _setters(Rat)


def rat(num: int, den: int = 1) -> Rat:
    return Rat.make(num, den)


def rat_add(r: Rat, s: Rat) -> Rat:
    (pn, pd), (qn, qd) = r.as_pair(), s.as_pair()
    return rat(pn * qd + qn * pd, pd * qd)


def rat_sum(rs: Sequence[Rat]) -> Rat:
    """Exact sum over the least common denominator, reduced once; the
    empty sum is zero."""
    den = math.lcm(*(r.q.value for r in rs))
    return rat(sum(r.signed_num * (den // r.q.value) for r in rs), den)


def rat_mul(r: Rat, s: Rat) -> Rat:
    (pn, pd), (qn, qd) = r.as_pair(), s.as_pair()
    return rat(pn * qn, pd * qd)


def rat_cmp(r: Rat, s: Rat) -> int:
    lhs = r.signed_num * s.q.value
    rhs = s.signed_num * r.q.value
    return (lhs > rhs) - (lhs < rhs)


def rat_neg(r: Rat) -> Rat:
    return rat(-r.signed_num, r.q.value)


# ---------------------------------------------------------------------------
# floats (power-of-two denominators)


class Flt(_Record):
    """Canonical dyadic rational: value (2*sign - 1) * p / 2^e.

    Canonical means p odd or e = 0; zero is +0/2^0. Slotted and
    immutable. Construct through ``flt`` (or ``Flt.make``), which
    canonicalizes by stripping shared trailing zero factors;
    ``Flt(sign, p, e)`` stores the fields as given, unchecked.
    """

    __slots__ = ("sign", "p", "e")

    def __init__(self, sign: int, p: UNat, e: int):
        _flt_sign(self, sign)
        _flt_p(self, p)
        _flt_e(self, e)

    @staticmethod
    def make(num: int, e: int = 0) -> "Flt":
        if e < 0:
            raise BitNumError("exponent must be nonnegative")
        sign = 1 if num >= 0 else 0
        p = abs(num)
        if p == 0:
            return Flt(1, UNat.from_int(0), 0)
        k = min((p & -p).bit_length() - 1, e)
        return Flt(sign, UNat.from_int(p >> k), e - k)

    def as_pair(self) -> tuple[int, int]:
        """(signed numerator, denominator) with the denominator expanded."""
        return self.signed_num, 1 << self.e

    def is_zero(self) -> bool:
        return self.p.value == 0

    def __str__(self) -> str:
        return f"{'+' if self.sign else '-'}{self.p.value}/2^{self.e}"


_flt_sign, _flt_p, _flt_e = _setters(Flt)


def flt(num: int, e: int = 0) -> Flt:
    return Flt.make(num, e)


def flt_add(x: Flt, y: Flt) -> Flt:
    e = max(x.e, y.e)
    num = (x.signed_num << (e - x.e)) + (y.signed_num << (e - y.e))
    return flt(num, e)


def flt_sum(xs: Sequence[Flt]) -> Flt:
    """Exact sum: every term aligned to the largest exponent, one
    canonicalization; the empty sum is zero."""
    e = max((x.e for x in xs), default=0)
    return flt(sum(x.signed_num << (e - x.e) for x in xs), e)


def flt_mul(x: Flt, y: Flt) -> Flt:
    return flt(x.signed_num * y.signed_num, x.e + y.e)


def flt_div(x: Flt, y: Flt) -> Flt:
    """Approximate division through the reciprocal floor(2^|p|/p) / 2^|p|.

    With y = p/2^e: result numerator is floor(2^|p|/p) * p_x * 2^e and
    the result exponent is |p| + e_x. Exact whenever y is a power of two;
    in general (x / y) * y may differ from x.
    """
    if y.is_zero():
        raise BitNumError("division by zero")
    pw = y.p.value.bit_length()
    k = (1 << pw) // y.p.value
    num = x.p.value * k << y.e
    sign = 1 if x.sign == y.sign else 0
    return flt(num if sign else -num, pw + x.e)


def flt_sqrt(x: Flt) -> Flt:
    """Truncated square root: numerator isqrt(p), exponent e/2.

    Odd exponents are first rewritten p <- 2p, e <- e+1 (same value), so
    the result is isqrt(2p)/2^((e+1)/2). Requires x >= 0.
    """
    if not x.sign and not x.is_zero():
        raise BitNumError("square root of a negative value")
    p, e = x.p.value, x.e
    if e % 2 == 1:
        p <<= 1
        e += 1
    return flt(math.isqrt(p), e // 2)


def flt_cmp(x: Flt, y: Flt) -> int:
    lhs = x.signed_num << y.e
    rhs = y.signed_num << x.e
    return (lhs > rhs) - (lhs < rhs)


def flt_neg(x: Flt) -> Flt:
    return flt(-x.signed_num, x.e)


# ---------------------------------------------------------------------------
# size accounting


def size(v) -> int:
    """Bit size: UNat = the value's bit length (zero is 0); Rat/Flt =
    2*max(|p|, |q|) + 1 with the float denominator charged e+1 bits;
    tuples charge 2*max(component)+1."""
    if isinstance(v, UNat):
        return len(v)
    if isinstance(v, Rat):
        return 2 * max(len(v.p), len(v.q)) + 1
    if isinstance(v, Flt):
        return 2 * max(len(v.p), v.e + 1) + 1
    if isinstance(v, tuple):
        if not v:
            return 0
        return 2 * max(size(c) for c in v) + 1
    raise BitNumError(f"size undefined for {type(v).__name__}")


def ols(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """(intercept, slope) of the least-squares line through (xs, ys);
    the slope is 0 when every x is equal."""
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    den = sum((x - mx) ** 2 for x in xs)
    b = 0.0 if den == 0 else sum(
        (x - mx) * (y - my) for x, y in zip(xs, ys)) / den
    return my - b * mx, b
