"""Ready-made transformer constructions.

Five specs, each exercising one corner of the machine:

  maj               counting via a saturated head that ties everywhere
  maj-ln            the same language routed through layer normalization
  prime-universal   rational-denominator encoding of the whole input, so
                    an arbitrary host predicate can decide the language
  resource-bounded  binary position encoding recovering the input as one
                    integer, in both datatypes
  hard-demo         a pure hard-attention recognizer (compiles with no
                    threshold gates)

The last three accept host callbacks standing in for an arbitrary
size-preserving decision function; such specs run on the machine but are
deliberately outside what the circuit compiler accepts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from .bitnum import Rat, UNat
from .machine import (
    Add, Affine, Arg, AttentionKind, Const, Div, Gt, HeadSpec, Host,
    LayerSpec, MachineError, Mul, Neg, Pow2, Proj, Select, Sqrt,
    TransformerSpec, Tup,
)


def _require(ok: bool, text: str):
    """A host callback's invariant; unlike ``assert`` it holds under -O."""
    if not ok:
        raise MachineError(text)


# ---------------------------------------------------------------------------
# primes


@dataclass(frozen=True)
class PrimeTable:
    entries: tuple[UNat, ...]

    def __post_init__(self):
        vals = self.values
        if not vals or vals[0] != 2:
            raise MachineError("prime table must start at 2")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise MachineError("prime table must be strictly increasing")

    @cached_property
    def values(self) -> tuple[int, ...]:
        return tuple(e.value for e in self.entries)

    def __len__(self):
        return len(self.entries)


def primes(k: int) -> PrimeTable:
    """First k primes, by sieve (the bound grows until the sieve is full)."""
    if k < 1:
        raise MachineError("need k >= 1")
    limit = 16
    found: list[int] = []
    while len(found) < k:
        limit *= 2
        sieve = bytearray([1]) * (limit + 1)
        sieve[0] = sieve[1] = 0
        for p in range(2, int(limit ** 0.5) + 1):
            if sieve[p]:
                sieve[p * p::p] = bytearray(len(sieve[p * p::p]))
        found = [i for i in range(limit + 1) if sieve[i]]
    return PrimeTable(tuple(UNat.from_int(p) for p in found[:k]))


# ---------------------------------------------------------------------------
# majority


def build_majority(datatype: str) -> TransformerSpec:
    """Single head attending everywhere; accepts iff #1(w) > #0(w).

    The constant scorer ties every position, so the saturated weights
    are 1/|M| with M = all n positions; the head output is then
    (w(n)*#0, w(n)*#1) for the same per-position weight w(n) > 0, and
    the activation compares the two coordinates exactly.
    """
    embed = Tup(Proj(0, Arg(0)), Proj(1, Arg(0)))
    head = HeadSpec(AttentionKind.SATURATED, Const(1))
    act = Tup(Gt(Proj(1, Arg(1)), Proj(0, Arg(1))), Const(0))
    return TransformerSpec(("0", "1"), datatype, 2, embed,
                           (LayerSpec((head,), act),),
                           ((1, 1), (0, 1)), (-1, 2), {}, "maj")


def build_majority_layernorm() -> TransformerSpec:
    """Majority again, but the decision pair goes through layer norm.

    The head gives a = w(n)*(#1 - #0) in coordinate 0 of (a, 0, ., .).
    Layer norm with unit gain on the pair (a, 0): mean a/2, deviations
    (a/2, -a/2), variance a^2/4. The variance is a perfect square of a
    dyadic, so the truncated sqrt is exactly |a|/2 and the normalized
    pair is (+-c, -+c) for some c in (1/2, 1]; order is preserved. Tied
    inputs make the variance zero and normalization is skipped (the
    deviations are already (0, 0)).
    """
    embed = Tup(Proj(1, Arg(0)), Proj(0, Arg(0)), Const(0), Const(0))
    head = HeadSpec(AttentionKind.SATURATED, Const(1))
    a = Add(Proj(0, Arg(1)), Neg(Proj(1, Arg(1))))
    dev = Mul(a, Const(1, 2))
    var = Mul(Mul(a, a), Const(1, 4))
    sigma = Sqrt(var)
    nonzero = Gt(var, Const(0))
    t1 = Select(nonzero, Div(dev, sigma), dev)
    t2 = Select(nonzero, Div(Neg(dev), sigma), Neg(dev))
    act = Tup(a, Const(0), t1, t2)
    return TransformerSpec(("0", "1"), "F", 4, embed,
                           (LayerSpec((head,), act),),
                           ((0, 1), (0, 1), (1, 1), (-1, 1)), (0, 1), {},
                           "maj-ln")


# ---------------------------------------------------------------------------
# prime-encoding universality over Q


def pu_reconstruct(s: Rat, table: PrimeTable, n: int) -> str:
    """Read the input back out of the sum of reciprocal primes.

    s = sum of 1/p_i over the 1-positions; distinct primes make the
    reduced denominator exactly the product of the support's primes, so
    membership is plain divisibility.
    """
    q = s.q.value
    return "".join("1" if q % p == 0 else "0" for p in table.values[:n])


def build_prime_universal(g: Callable[[str], bool],
                          n_max: int = 64) -> TransformerSpec:
    """Any predicate g over bit strings, decided by one uniform head.

    Embedding (1/p_i if w_i = 1 else 0, i); the uniform head returns
    (S/n, (n+1)/2) with S the reciprocal-prime sum, both exact over Q.
    The activation recovers n = 2*mean(position) - 1, rescales to S,
    reconstructs w by divisibility, and hands it to g.
    """
    if not 1 <= n_max <= 64:
        raise MachineError("n_max must be in 1..64")
    table = primes(n_max)

    def inv_prime(domain, pos):
        num, den = pos.as_pair()
        _require(den == 1, "den == 1")
        if num > n_max:
            raise MachineError(f"input length exceeds n_max={n_max}")
        return domain.from_pair(1, table.values[num - 1])

    def decide(domain, s, nval):
        num, den = nval.as_pair()
        _require(den == 1, "den == 1")
        if num > n_max:
            raise MachineError(f"input length exceeds n_max={n_max}")
        return bool(g(pu_reconstruct(s, table, num)))

    embed = Tup(Mul(Proj(1, Arg(0)), Host("inv_prime", Arg(1))), Arg(1))
    head = HeadSpec(AttentionKind.UNIFORM, Const(1))
    n_expr = Affine([(2, 1)], (-1, 1), Proj(1, Arg(1)))
    s_expr = Mul(Proj(0, Arg(1)), n_expr)
    act = Tup(Host("decide", s_expr, n_expr), Const(0))
    return TransformerSpec(("0", "1"), "Q", 2, embed,
                           (LayerSpec((head,), act),),
                           ((1, 1), (0, 1)), (-1, 2),
                           {"inv_prime": inv_prime, "decide": decide},
                           "prime-universal")


# ---------------------------------------------------------------------------
# resource-bounded construction (binary position encoding)


def rb_reconstruct(weight_sum: int, n: int) -> str:
    """Bits of W = sum of 2^(i-1) over 1-positions, lowest position first."""
    return "".join("1" if (weight_sum >> i) & 1 else "0" for i in range(n))


def build_resource_bounded(delta: Callable[[str], bool], datatype: str,
                           n_max: int = 32) -> TransformerSpec:
    """Three heads recover (W, n, 2^|n|); W's bits are the input.

    Head 1 attends uniformly over embeddings 2^(i-1)*[w_i=1]; head 2 is
    saturated on the (distinct) position scores, so it returns n; head 3
    is hard on scores 2^|j|, returning 2^|n| exactly even though the top
    score ties. Over Q head 1 gives W/n and W = b1*b2. Over F it gives
    floor(2^|n|/n)*W/2^|n|, and b1*b3 = floor(2^|n|/n)*W, which the host
    divides exactly. The host then reads W's bits and applies delta.
    """
    if not 1 <= n_max <= 32:
        raise MachineError("n_max must be in 1..32")

    def pow2len(domain, pos):
        num, den = pos.as_pair()
        _require(den == 1, "den == 1")
        if num > n_max:
            raise MachineError(f"input length exceeds n_max={n_max}")
        return domain.from_int(1 << num.bit_length())

    def decide(domain, wval, nval):
        n_num, n_den = nval.as_pair()
        _require(n_den == 1, "n_den == 1")
        if n_num > n_max:
            raise MachineError(f"input length exceeds n_max={n_max}")
        num, den = wval.as_pair()
        if datatype == "Q":
            w, rem = divmod(num, den)
        else:
            k = (1 << n_num.bit_length()) // n_num
            w, rem = divmod(num, den * k)
        _require(rem == 0, "weight sum did not reconstruct to an integer")
        return bool(delta(rb_reconstruct(w, n_num)))

    embed = Tup(Mul(Proj(1, Arg(0)), Pow2(Affine([(1, 1)], (-1, 1), Arg(1)))),
                Arg(1),
                Host("pow2len", Arg(1)))
    heads = (HeadSpec(AttentionKind.UNIFORM, Const(1)),
             HeadSpec(AttentionKind.SATURATED, Proj(1, Arg(1))),
             HeadSpec(AttentionKind.HARD, Proj(2, Arg(1))))
    b1, b2, b3 = Proj(0, Arg(1)), Proj(1, Arg(1)), Proj(2, Arg(1))
    w_expr = Mul(b1, b2) if datatype == "Q" else Mul(b1, b3)
    act = Tup(Host("decide", w_expr, b2), Const(0), Const(0))
    return TransformerSpec(("0", "1"), datatype, 3, embed,
                           (LayerSpec(heads, act),),
                           ((1, 1), (0, 1), (0, 1)), (-1, 2),
                           {"pow2len": pow2len, "decide": decide},
                           "resource-bounded")


# ---------------------------------------------------------------------------
# hard attention demo


def build_hard_demo() -> TransformerSpec:
    """Accepts strings with a 1 somewhere in the first three positions.

    The hard head scores each key by its token bit: if any 1 exists the
    least maximizer is the first 1-position and the head returns
    (1, that position); otherwise it returns (0, 1). The affine read-out
    8*b - pos - 9/2 is positive exactly when b = 1 and pos <= 3. Every
    weight is 0 or 1, so the compiled circuit needs no threshold gates.
    """
    embed = Tup(Proj(1, Arg(0)), Arg(1))
    head = HeadSpec(AttentionKind.HARD, Proj(0, Arg(1)))
    act = Tup(Proj(0, Arg(1)), Proj(1, Arg(1)))
    return TransformerSpec(("0", "1"), "F", 2, embed,
                           (LayerSpec((head,), act),),
                           ((8, 1), (-1, 1)), (-9, 2), {}, "hard-demo")


BUILTIN_NAMES = ("maj", "maj-ln", "prime-universal", "resource-bounded",
                 "hard-demo")
PRED_BUILTINS = ("prime-universal", "resource-bounded")  # take a predicate


def builtin_spec(name: str, predicate: str = None) -> TransformerSpec:
    """CLI-facing factory. Host-backed builtins take a named predicate."""
    preds = {
        "parity": lambda w: w.count("1") % 2 == 1,
        "bigram11": lambda w: "11" in w,
    }
    if name == "maj":
        return build_majority("F")
    if name == "maj-q":
        return build_majority("Q")
    if name == "maj-ln":
        return build_majority_layernorm()
    if name == "hard-demo":
        return build_hard_demo()
    if name in PRED_BUILTINS:
        if predicate not in preds:
            raise MachineError(
                f"{name} needs --pred from {sorted(preds)}, got {predicate!r}")
        if name == "prime-universal":
            return build_prime_universal(preds[predicate])
        return build_resource_bounded(preds[predicate], "F")
    raise MachineError(f"unknown builtin {name!r} "
                       f"(have {', '.join(BUILTIN_NAMES)})")
