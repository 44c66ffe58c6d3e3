"""Gate-level synthesis library.

Everything here builds onto a Builder: a gate pool with hash-consing
(structurally identical gates are emitted once) and optional folding
(constant propagation, identity-element removal, double-negation). The
folding rules never change a wire's value, only the circuit's shape, so
gadgets that promise an exact depth build themselves inside a no_fold()
region where every gate is emitted verbatim.

Numbers on wires are little-endian unsigned bit vectors. Floats are
WirePacks: a sign wire (1 = nonnegative, matching the evaluator), p bits
and e bits, with a static bound e_max on the exponent's value. Packs are
"raw" until f_canon strips trailing zeros; all arithmetic is value-exact
on raw packs, so canonicalization is only needed where bit-for-bit
agreement with the evaluator's canonical form is required.

Data-dependent exponent arithmetic is done by value enumeration (muxes
keyed on "e == u" indicators, u <= e_max), never by ripple arithmetic on
the e wires; this keeps every float gadget's depth independent of the
widths that grow with n. _e_sels gives those indicators, and _enum_shift
is the one shift: it OR-merges copies of a bit vector, each shifted by
the amount paired with its indicator. Alignment to a common exponent,
the cross-multiplied comparators and f_canon's strip are all calls of it.
_enum_value is the one enumerated value: each output bit ORs the indicators
whose value has that bit set. The exponents of the float gadgets and the
popcount _count_bits (over _exact_count's "exactly m ones" indicators) are
all calls of it.

Attention's argmax is f_maximizers (a flag on every tied maximum, from
pairwise f_ge), first_hot (keep the first flag) and f_onehot (the pack
whose hot wire is set).

The other rules are each written once too. Builder.and_ and Builder.or_
are one folding rule (_fold) with the absorbing constant as a parameter.
_adder2 and _sub are one lookahead DNF (_lookahead) over their own
carry or borrow literals, and _padded brings two numbers to a common
width for them, _geq_u and _eq_u. f_div_const is f_mul_const by the
reciprocal constant of bitnum.flt_div. f_gate zeroes a pack where a
wire is 0; f_relu and the saturated pooling's flag gating call it.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Sequence

from .bitnum import Flt, UNat
from .circuit import (
    AND, CONST, Circuit, Gate, INPUT, NEG_INPUT, NOT, OR, THRESHOLD_GE,
    THRESHOLD_LE, metrics,
)


class SynthError(ValueError):
    pass


def clog2(x: int) -> int:
    return (x - 1).bit_length() if x > 1 else 0


# ---------------------------------------------------------------------------
# builder


def _fold(kind: str, absorb: int):
    """The method behind Builder.and_ (kind AND, absorbing constant 0)
    and Builder.or_ (OR, 1). When folding, an input at the absorbing
    constant is the result, the other constant and repeated wires drop
    out, and a single wire left is the result (none left: the other
    constant). Without folding, the gate takes every input, sorted."""
    def fold(self, *ws) -> int:
        if self.folding:
            kept = []
            for w in ws:
                cv = self.const_value(w)
                if cv == absorb:
                    return self.const(absorb)
                if cv is None:
                    kept.append(w)
            kept = sorted(set(kept))
            if not kept:
                return self.const(1 - absorb)
            if len(kept) == 1:
                return kept[0]
            return self._emit(kind, tuple(kept))
        return self._emit(kind, tuple(sorted(ws)))
    return fold


class Builder:
    """Gate pool with hash-consing and optional folding."""

    def __init__(self, n: int):
        self.n = n
        # one flat tuple per gate, which is also its hash-consing key:
        # (kind, idx) for inputs, (kind, k, *inputs) for constants and
        # thresholds, (kind, *inputs) otherwise; see _fields
        self._gates: list[tuple] = []
        self._memo: dict = {}
        self._nofold = 0

    @property
    def folding(self) -> bool:
        return self._nofold == 0

    @contextmanager
    def no_fold(self):
        """Emit gates verbatim: no constant folding, no passthrough, no
        leaf-negation rewriting. Shape-uniform gadgets live in here."""
        self._nofold += 1
        try:
            yield self
        finally:
            self._nofold -= 1

    def _emit(self, kind, inputs=(), k=None, idx=None) -> int:
        if idx is not None:
            key = (kind, idx)
        elif k is not None:
            key = (kind, k, *inputs)
        else:
            key = (kind, *inputs)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        gid = len(self._gates)
        self._gates.append(key)
        self._memo[key] = gid
        return gid

    def const_value(self, w: int):
        """0/1 if the wire is a CONST gate, else None."""
        g = self._gates[w]
        return g[1] if g[0] == CONST else None

    def input(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise SynthError(f"input index {i} out of range")
        return self._emit(INPUT, idx=i)

    def neg_input(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise SynthError(f"input index {i} out of range")
        return self._emit(NEG_INPUT, idx=i)

    def const(self, v: int) -> int:
        return self._emit(CONST, k=1 if v else 0)

    and_ = _fold(AND, 0)
    or_ = _fold(OR, 1)

    def not_(self, w: int) -> int:
        if self.folding:
            kind, arg = self._gates[w][:2]
            if kind == CONST:
                return self.const(1 - arg)
            if kind == NOT:
                return arg
            if kind == INPUT:
                return self._emit(NEG_INPUT, idx=arg)
            if kind == NEG_INPUT:
                return self._emit(INPUT, idx=arg)
        return self._emit(NOT, (w,))

    def ge(self, ws, k: int) -> int:
        ws = tuple(ws)
        if self.folding:
            known = [self.const_value(w) for w in ws]
            base = sum(1 for v in known if v == 1)
            live = tuple(sorted(w for w, v in zip(ws, known) if v is None))
            k2 = k - base
            if k2 <= 0:
                return self.const(1)
            if k2 > len(live):
                return self.const(0)
            if k2 == 1:
                return self.or_(*live)
            if k2 == len(live):
                return self.and_(*live)
            return self._emit(THRESHOLD_GE, live, k=k2)
        if k < 0:
            raise SynthError("threshold wants k >= 0")
        return self._emit(THRESHOLD_GE, tuple(sorted(ws)), k=k)

    def le(self, ws, k: int) -> int:
        ws = tuple(ws)
        if self.folding:
            return self.not_(self.ge(ws, k + 1))
        if k < 0:
            raise SynthError("threshold wants k >= 0")
        return self._emit(THRESHOLD_LE, tuple(sorted(ws)), k=k)

    def xor2(self, a: int, b: int) -> int:
        return self.or_(self.and_(a, self.not_(b)),
                        self.and_(self.not_(a), b))

    def mux(self, c: int, a: int, b: int) -> int:
        """a if c else b."""
        return self.or_(self.and_(c, a), self.and_(self.not_(c), b))

    def build(self, outputs: Sequence[int], labels=None) -> Circuit:
        """Prune to the cone of the outputs and renumber densely."""
        outputs = tuple(outputs)
        keep = set()
        stack = list(outputs)
        while stack:
            w = stack.pop()
            if w in keep:
                continue
            keep.add(w)
            stack.extend(_fields(self._gates[w])[0])
        rename = {}
        gates = []
        for old in sorted(keep):  # creation order is topological
            g = self._gates[old]
            inputs, k, idx = _fields(g)
            new = len(gates)
            rename[old] = new
            gates.append(Gate(new, g[0], tuple(rename[i] for i in inputs),
                              k, idx))
        out_ids = tuple(rename[o] for o in outputs)
        lab = {}
        if labels:
            for w, text in labels.items():
                if w in rename:
                    lab[rename[w]] = text
        return Circuit(self.n, tuple(gates), out_ids, lab)


def _fields(g: tuple) -> tuple:
    """(inputs, k, idx) of a gate tuple as Builder stores it."""
    kind = g[0]
    if kind in (INPUT, NEG_INPUT):
        return (), None, g[1]
    if kind in (CONST, THRESHOLD_GE, THRESHOLD_LE):
        return g[2:], g[1], None
    return g[1:], None, None


# ---------------------------------------------------------------------------
# wire packs and encodings


@dataclass(frozen=True)
class WirePack:
    """A float on wires: wires[0] is the sign (1 = nonnegative), then
    p_width numerator bits (little-endian), then the exponent bits;
    e_max bounds the exponent's value."""

    wires: tuple[int, ...]
    p_width: int
    e_width: int
    e_max: int
    canonical: bool = False

    def __post_init__(self):
        if len(self.wires) != 1 + self.p_width + self.e_width:
            raise SynthError("float pack width mismatch")

    @property
    def sign(self) -> int:
        return self.wires[0]

    @property
    def p(self) -> tuple[int, ...]:
        return self.wires[1:1 + self.p_width]

    @property
    def e(self) -> tuple[int, ...]:
        return self.wires[1 + self.p_width:]


def float_pack(sign, p, e, e_max, canonical=False) -> WirePack:
    return WirePack((sign, *p, *e), len(tuple(p)), len(tuple(e)), e_max,
                    canonical)


def encode_uint(value: int, width: int) -> list[int]:
    if value < 0 or value >= (1 << width):
        raise SynthError(f"{value} does not fit in {width} bits")
    return [(value >> i) & 1 for i in range(width)]


def decode_uint(bits: Sequence[int]) -> int:
    return sum(b << i for i, b in enumerate(bits))


def encode_flt(x: Flt, p_width: int, e_width: int) -> list[int]:
    if len(x.p) > p_width or x.e.bit_length() > e_width:
        raise SynthError(f"{x} does not fit in p{p_width}/e{e_width}")
    return ([x.sign] + encode_uint(x.p.value, p_width)
            + encode_uint(x.e, e_width))


def decode_flt(bits: Sequence[int], p_width: int, e_width: int) -> Flt:
    sign = bits[0]
    p = decode_uint(bits[1:1 + p_width])
    e = decode_uint(bits[1 + p_width:1 + p_width + e_width])
    return Flt.make(p if sign else -p, e)


# ---------------------------------------------------------------------------
# counting gadgets


def _exact_count(b: Builder, ws) -> list[int]:
    """Indicator wires: result[m] = 1 iff exactly m of ws are 1."""
    ws = tuple(ws)
    return [b.and_(b.ge(ws, m), b.le(ws, m)) for m in range(len(ws) + 1)]


def _count_bits(b: Builder, ws) -> list[int]:
    """Binary popcount of ws, little-endian: the enumerated value of
    _exact_count's indicators."""
    return _enum_value(b, list(enumerate(_exact_count(b, ws))),
                       len(ws).bit_length())


# ---------------------------------------------------------------------------
# two-number adder, subtractor, comparator, one-hot mux (theta-free, flat)


def _pad(b: Builder, ws, width: int) -> list[int]:
    ws = list(ws)
    if len(ws) < width:
        zero = b.const(0)
        ws += [zero] * (width - len(ws))
    return ws


def _padded(b: Builder, aws, bws) -> tuple[list[int], list[int]]:
    """aws and bws zero-padded to their common width, at least 1."""
    W = max(len(aws), len(bws), 1)
    return _pad(b, aws, W), _pad(b, bws, W)


def _lookahead(b: Builder, a, c, na, nc, raised, passed, killed,
               held) -> list[int]:
    """Bit j of a + c or a - c as one DNF: the parity literals of a[j]
    and c[j] (na, nc their negations) AND'ed with a chain that says
    whether a carry (borrow) reaches j, so the output is a depth-4 OR of
    ANDs at every width. One reaches j when raised at some k < j (the
    literals raised[k]) and passed on by every position between; none
    does when none below j raises one (held), or one is killed at t
    (killed[t]) and none above t raises one."""
    out = []
    for j in range(len(a)):
        terms = []
        for k in range(j):
            chain = raised[k] + passed[k + 1:j]
            terms.append(b.and_(*chain, a[j], c[j]))
            terms.append(b.and_(*chain, na[j], nc[j]))
        for opt in [held[:j]] + [killed[t] + held[t + 1:j] for t in range(j)]:
            terms.append(b.and_(*opt, a[j], nc[j]))
            terms.append(b.and_(*opt, na[j], c[j]))
        out.append(b.or_(*terms))
    return out


def _adder2(b: Builder, aws, bws) -> list[int]:
    """a + b; width max(|a|,|b|)+1. A carry is a generate passed on by
    propagates, and none is no generate or a kill with none above it."""
    a, c = _padded(b, aws, bws)
    na = [b.not_(w) for w in a]
    nc = [b.not_(w) for w in c]
    g = [b.and_(x, y) for x, y in zip(a, c)]
    p = [b.or_(x, y) for x, y in zip(a, c)]
    ng = [b.or_(x, y) for x, y in zip(na, nc)]
    kill = [[b.and_(x, y)] for x, y in zip(na, nc)]
    out = _lookahead(b, a, c, na, nc, [[w] for w in g], p, kill, ng)
    out.append(b.or_(*[b.and_(g[k], *p[k + 1:]) for k in range(len(a))]))
    return out


def _sub(b: Builder, aws, bws) -> list[int]:
    """a - b, correct when a >= b. A borrow is raised where a has 0 and
    b has 1 and passed on by equal bits; none is all equal below or a
    > b at some t with equal bits above it."""
    a, c = _padded(b, aws, bws)
    na = [b.not_(w) for w in a]
    nc = [b.not_(w) for w in c]
    eq = _eq_bits(b, a, c)
    return _lookahead(b, a, c, na, nc, [[x, y] for x, y in zip(na, c)], eq,
                      [[x, y] for x, y in zip(a, nc)], eq)


def _eq_bits(b: Builder, a, c) -> list[int]:
    return [b.or_(b.and_(x, y), b.and_(b.not_(x), b.not_(y)))
            for x, y in zip(a, c)]


def _geq_u(b: Builder, aws, bws, strict=False) -> int:
    """a >= b (a > b if strict) on unsigned wires, theta-free depth <= 4."""
    a, c = _padded(b, aws, bws)
    eq = _eq_bits(b, a, c)
    terms = [] if strict else [b.and_(*eq)]
    for j in range(len(a)):
        terms.append(b.and_(a[j], b.not_(c[j]), *eq[j + 1:]))
    return b.or_(*terms)


def _eq_u(b: Builder, aws, bws) -> int:
    return b.and_(*_eq_bits(b, *_padded(b, aws, bws)))


def _onehot_bits(b: Builder, hots, rows) -> list[int]:
    """The row whose hot wire is set, rows zero-padded to one width: an
    OR of hot-gated rows, so at most one hot wire may be set."""
    W = max(len(r) for r in rows)
    rows = [_pad(b, r, W) for r in rows]
    return [b.or_(*[b.and_(h, r[t]) for h, r in zip(hots, rows)])
            for t in range(W)]


# ---------------------------------------------------------------------------
# iterated addition

ITADD_MAX_N = 32767  # two reduction rounds always reach <= 4 summands
ITADD_TREE = 4


def _itadd(b: Builder, summands, out_width: int) -> list[int]:
    """Sum of unsigned rows (may be ragged) as out_width bits;
    fixed-shape construction: exactly two column-count reduction rounds,
    then a 4-leaf adder tree, so the depth added is identical for every
    summand count up to ITADD_MAX_N. Built fold-free throughout."""
    rows = [list(r) for r in summands]
    if not rows:
        raise SynthError("need at least one summand")
    if len(rows) > ITADD_MAX_N:
        raise SynthError(f"itadd supports at most {ITADD_MAX_N} summands")
    with b.no_fold():
        zero = b.const(0)

        def reduce_round(rows):
            cols = []
            for cpos in range(max((len(r) for r in rows), default=0)):
                cols.append([r[cpos] for r in rows if len(r) > cpos])
            if not cols:
                return [[zero]]
            R = max(len(h).bit_length() for h in cols)
            new = [dict() for _ in range(R)]
            for cpos, col in enumerate(cols):
                if not col:
                    continue
                bits = _count_bits(b, col)
                tgt = new[cpos % R]
                for off, wire in enumerate(bits):
                    if cpos + off in tgt:
                        raise SynthError(f"itadd: two bits at column "
                                         f"{cpos + off} in one row")
                    tgt[cpos + off] = wire
            out = []
            for tgt in new:
                if not tgt:
                    out.append([zero])
                    continue
                width = max(tgt) + 1
                out.append([tgt.get(t, zero) for t in range(width)])
            return out

        rows = reduce_round(rows)
        rows = reduce_round(rows)
        if len(rows) > ITADD_TREE:
            raise SynthError("itadd: reduction did not reach the tree")
        while len(rows) < ITADD_TREE:
            rows.append([zero])
        t1 = _adder2(b, rows[0], rows[1])
        t2 = _adder2(b, rows[2], rows[3])
        total = _adder2(b, t1, t2)
        return _pad(b, total, out_width)[:out_width]


# ---------------------------------------------------------------------------
# multiplication and shifting


def _mul_u(b: Builder, aws, bws) -> list[int]:
    """Product via AND-gated shifted partial products + itadd."""
    aws, bws = list(aws), list(bws)
    zero = b.const(0)
    rows = []
    for k, bk in enumerate(bws):
        rows.append([zero] * k + [b.and_(ai, bk) for ai in aws])
    return _itadd(b, rows, len(aws) + len(bws))


def _mul_const_u(b: Builder, aws, c: int) -> list[int]:
    """Multiply by a positive compile-time constant: shifted copies
    summed by the theta-free adder tree (popcount of c is a constant)."""
    out_w = len(aws) + c.bit_length()
    rows = []
    k = 0
    zero = b.const(0)
    while c:
        if c & 1:
            rows.append([zero] * k + list(aws))
        c >>= 1
        k += 1
    if len(rows) == 1:
        return rows[0]
    return _tree_usum(b, rows, out_w)


def _enum_eq(b: Builder, ws, value: int) -> int:
    """Indicator wire for 'these wires read exactly value'."""
    ws = tuple(ws)
    if value >= (1 << len(ws)):
        return b.const(0)
    lits = []
    for t, w in enumerate(ws):
        lits.append(w if (value >> t) & 1 else b.not_(w))
    return b.and_(*lits)


def _e_sels(b: Builder, x: WirePack) -> list[tuple[int, int]]:
    """(u, indicator of x's exponent == u) for every u <= e_max; a
    static exponent is the single pair (0, 1)."""
    if not x.e:
        return [(0, b.const(1))]
    return [(u, _enum_eq(b, x.e, u)) for u in range(x.e_max + 1)]


def _enum_shift(b: Builder, bits, sels, width: int) -> list[int]:
    """bits << s for the (s, indicator) pair whose indicator is set, as
    an OR of indicator-gated shifted copies; a negative s shifts right.
    width output wires; at most one indicator may be set."""
    L = len(bits)
    if len(sels) == 1 and b.folding and b.const_value(sels[0][1]) == 1:
        s = sels[0][0]  # a static shift: each gated copy folds to the copy
        return [bits[t - s] if 0 <= t - s < L else b.const(0)
                for t in range(width)]
    return [b.or_(*[b.and_(sel, bits[t - s]) for s, sel in sels
                    if 0 <= t - s < L]) for t in range(width)]


# ---------------------------------------------------------------------------
# float wire arithmetic

# All ops are value-exact on raw packs; f_canon produces the unique
# canonical form (p odd or e = 0; zero is +0/2^0) bit-identical to the
# evaluator's encoding.


def f_const(b: Builder, x: Flt) -> WirePack:
    p = [b.const(bit) for bit in encode_uint(x.p.value, max(len(x.p), 1))]
    e = _const_e_wires(b, x.e, x.e)
    return float_pack(b.const(x.sign), p, e, x.e, canonical=True)


def f_from_bit(b: Builder, w: int) -> WirePack:
    return float_pack(b.const(1), (w,), (), 0, canonical=True)


def _const_e_wires(b: Builder, value: int, e_max: int) -> list[int]:
    width = clog2(e_max + 1)
    return [b.const(bit) for bit in encode_uint(value, width)]


def _tree_usum(b: Builder, rows, out_width: int) -> list[int]:
    """Sum of unsigned rows by a balanced tree of two-number adders;
    theta-free, depth grows with log of the row count, so this is for
    sums whose summand count is a compile-time constant."""
    rows = [list(r) for r in rows]
    while len(rows) > 1:
        nxt = [_adder2(b, rows[i], rows[i + 1])
               for i in range(0, len(rows) - 1, 2)]
        if len(rows) % 2:
            nxt.append(rows[-1])
        rows = nxt
    return _pad(b, rows[0], out_width)[:out_width]


def _banked_sum(b: Builder, packs, usum) -> WirePack:
    """Exact sum of float packs; raw result over denominator 2^ecap.

    Signs route each aligned numerator into a positive or a negative
    bank; the banks are summed by usum, compared, and subtracted. When
    every sign is the same compile-time constant the spare bank
    disappears.
    """
    packs = list(packs)
    if not packs:
        raise SynthError("need at least one float")
    ecap = max(pk.e_max for pk in packs)  # numerators over 2^ecap
    mags = [_enum_shift(b, pk.p, [(ecap - u, s) for u, s in _e_sels(b, pk)],
                        pk.p_width + ecap) for pk in packs]
    out_w = max(len(m) for m in mags) + clog2(len(packs) + 1) + 1
    one, zero = b.const(1), b.const(0)
    signs = [pk.sign for pk in packs]
    if all(s == one for s in signs):
        mag = usum(mags, out_w)
        sign = one
    elif all(s == zero for s in signs):
        mag = usum(mags, out_w)
        sign = zero
    else:
        pos = [[b.and_(s, w) for w in m] for s, m in zip(signs, mags)]
        neg = [[b.and_(b.not_(s), w) for w in m] for s, m in zip(signs, mags)]
        P = usum(pos, out_w)
        N = usum(neg, out_w)
        sign = _geq_u(b, P, N)
        diffs = (_sub(b, P, N), _sub(b, N, P))
        mag = _onehot_bits(b, (sign, b.not_(sign)), diffs)
    return float_pack(sign, mag, _const_e_wires(b, ecap, ecap), ecap)


def f_sum(b: Builder, packs) -> WirePack:
    """n-ary sum via counting-based iterated addition: the added depth
    is one fixed constant for every summand count, which is what keeps
    compiled attention pooling at the same depth across sequence
    lengths. Spends threshold gates."""
    return _banked_sum(b, packs, lambda rows, w: _itadd(b, rows, w))


def f_sum_tree(b: Builder, packs) -> WirePack:
    """Theta-free sum for compile-time-constant summand counts
    (activation affine forms, classifier dot products)."""
    return _banked_sum(b, packs, lambda rows, w: _tree_usum(b, rows, w))


def f_add(b: Builder, x: WirePack, y: WirePack) -> WirePack:
    return f_sum_tree(b, [x, y])


def f_neg(b: Builder, x: WirePack) -> WirePack:
    return float_pack(b.not_(x.sign), x.p, x.e, x.e_max)


def f_nonzero(b: Builder, x: WirePack) -> int:
    return b.or_(*x.p)


def f_pos_or_zero(b: Builder, x: WirePack) -> int:
    return b.or_(x.sign, b.not_(f_nonzero(b, x)))


def f_gate(b: Builder, x: WirePack, keep: int, sign: int) -> WirePack:
    """x's p and e wires AND'ed with keep, under the sign wire sign: x
    (signed by sign) where keep is set, zero where it is not."""
    return float_pack(sign, [b.and_(keep, w) for w in x.p],
                      [b.and_(keep, w) for w in x.e], x.e_max)


def f_relu(b: Builder, x: WirePack) -> WirePack:
    return f_gate(b, x, x.sign, b.const(1))


def _enum_value(b: Builder, pairs, width: int) -> list[int]:
    """width bits of the value whose indicator is set, from (value,
    indicator) pairs: bit t ORs the indicators whose value has bit t
    set. At most one indicator may be set."""
    return [b.or_(*[sel for v, sel in pairs if (v >> t) & 1])
            for t in range(width)]


def f_mul(b: Builder, x: WirePack, y: WirePack) -> WirePack:
    p = _mul_u(b, x.p, y.p)
    sign = b.or_(b.and_(x.sign, y.sign),
                 b.and_(b.not_(x.sign), b.not_(y.sign)))
    emax = x.e_max + y.e_max
    if not x.e:
        e = list(y.e)
    elif not y.e:
        e = list(x.e)
    else:
        pairs = []
        for u in range(x.e_max + 1):
            su = _enum_eq(b, x.e, u)
            for v in range(y.e_max + 1):
                pairs.append((u + v, b.and_(su, _enum_eq(b, y.e, v))))
        e = _enum_value(b, pairs, clog2(emax + 1))
    return float_pack(sign, p, e, emax)


def f_mul_const(b: Builder, x: WirePack, c: Flt) -> WirePack:
    if c.is_zero():
        return f_const(b, c)
    p = _mul_const_u(b, x.p, c.p.value)
    emax = x.e_max + c.e
    e = list(x.e) if c.e == 0 else _enum_value(
        b, [(u + c.e, s) for u, s in _e_sels(b, x)], clog2(emax + 1))
    sign = x.sign if c.sign else b.not_(x.sign)
    return float_pack(sign, p, e, emax)


def f_div_const(b: Builder, x: WirePack, c: Flt) -> WirePack:
    """x / c for a compile-time constant c, by bitnum.flt_div's
    reciprocal rule: x times k * 2^c.e / 2^|c.p| with
    k = floor(2^|c.p| / c.p), a constant f_mul_const takes unreduced."""
    if c.is_zero():
        raise SynthError("division by the constant zero")
    pw = len(c.p)
    k = (1 << pw) // c.p.value
    return f_mul_const(b, x, Flt(c.sign, UNat.from_int(k << c.e), pw))


def f_div_by_indicators(b: Builder, x: WirePack, indicators) -> WirePack:
    """x / m where the divisor m in 1..n is given by one-hot indicator
    wires (indicators[m]); bit-equal to dividing by the float m.

    floor(2^|m|/m) is 2 when m is a power of two (or 1) and 1 otherwise,
    so each branch is a 0/1-bit shift of p plus the constant exponent
    bump |m|, gated by its indicator and OR-merged.
    """
    n = len(indicators) - 1
    if n < 1:
        raise SynthError("need at least one possible divisor")
    pw = len(x.p) + 1
    emax = x.e_max + n.bit_length()
    p_terms = [[] for _ in range(pw)]
    e_pairs = []
    e_sels = _e_sels(b, x)
    for m in range(1, n + 1):
        ind = indicators[m]
        L = m.bit_length()
        k = (1 << L) // m
        shift = 1 if k == 2 else 0
        for t in range(pw):
            src = t - shift
            if 0 <= src < len(x.p):
                p_terms[t].append(b.and_(ind, x.p[src]))
        e_pairs += [(u + L, b.and_(ind, sel)) for u, sel in e_sels]
    p = [b.or_(*ts) for ts in p_terms]
    e = _enum_value(b, e_pairs, clog2(emax + 1))
    return float_pack(x.sign, p, e, emax)


def f_canon(b: Builder, x: WirePack) -> WirePack:
    """Strip shared trailing zeros: p' = p >> r, e' = e - r with
    r = min(trailing zeros of p, e); zero becomes +0/2^0 exactly."""
    if x.canonical:
        return x
    pw = len(x.p)
    nonzero = f_nonzero(b, x)
    npbits = [b.not_(w) for w in x.p]
    tz = []  # tz[t]: p != 0 and trailing zeros == t
    for t in range(pw):
        tz.append(b.and_(*npbits[:t], x.p[t]))
    e_sels = _e_sels(b, x)
    pairs = []  # (r, e-after, indicator)
    for t, tzw in enumerate(tz):
        for u, esel in e_sels:
            r = min(t, u)
            pairs.append((r, u - r, b.and_(tzw, esel)))
    p_out = _enum_shift(b, x.p, [(-r, sel) for r, _, sel in pairs], pw)
    e_out = _enum_value(b, [(left, sel) for _, left, sel in pairs],
                        clog2(x.e_max + 1))
    sign = b.or_(x.sign, b.not_(nonzero))
    return float_pack(sign, p_out, e_out, x.e_max, canonical=True)


def _cross_mags(b: Builder, x: WirePack, y: WirePack):
    """p_x * 2^(e_y) and p_y * 2^(e_x): common-denominator numerators."""
    return (_enum_shift(b, x.p, _e_sels(b, y), x.p_width + y.e_max),
            _enum_shift(b, y.p, _e_sels(b, x), y.p_width + x.e_max))


def f_ge(b: Builder, x: WirePack, y: WirePack, strict=False) -> int:
    """x >= y, or x > y if strict."""
    A, B_ = _cross_mags(b, x, y)
    sx, sy = f_pos_or_zero(b, x), f_pos_or_zero(b, y)
    return b.or_(b.and_(sx, b.not_(sy)),
                 b.and_(sx, sy, _geq_u(b, A, B_, strict)),
                 b.and_(b.not_(sx), b.not_(sy), _geq_u(b, B_, A, strict)))


def f_gt(b: Builder, x: WirePack, y: WirePack) -> int:
    return f_ge(b, x, y, strict=True)


def f_eq(b: Builder, x: WirePack, y: WirePack) -> int:
    A, B_ = _cross_mags(b, x, y)
    sx, sy = f_pos_or_zero(b, x), f_pos_or_zero(b, y)
    same_sign = b.or_(b.and_(sx, sy), b.and_(b.not_(sx), b.not_(sy)))
    return b.and_(same_sign, _eq_u(b, A, B_))


def f_onehot(b: Builder, hots, packs, canonical=False) -> WirePack:
    """The pack whose hot wire is set; at most one may be set. Pass
    canonical=True only when every pack is canonical."""
    p = _onehot_bits(b, hots, [pk.p for pk in packs])
    e = _onehot_bits(b, hots, [pk.e for pk in packs])
    sign = _onehot_bits(b, hots, [(pk.sign,) for pk in packs])[0]
    return float_pack(sign, p, e, max(pk.e_max for pk in packs), canonical)


def f_select(b: Builder, cond: int, x: WirePack, y: WirePack) -> WirePack:
    return f_onehot(b, (cond, b.not_(cond)), (x, y),
                    x.canonical and y.canonical)


# ---------------------------------------------------------------------------
# argmax


def f_maximizers(b: Builder, packs) -> list[int]:
    """flags[j] = 1 iff packs[j] is maximal: every tied maximum is
    flagged. Theta-free, one f_ge per ordered pair."""
    return [b.and_(*[f_ge(b, x, y) for k, y in enumerate(packs) if k != j])
            for j, x in enumerate(packs)]


def first_hot(b: Builder, flags) -> list[int]:
    """One-hot at the first set flag; all zero when none is set."""
    return [b.and_(f, *[b.not_(g) for g in flags[:j]])
            for j, f in enumerate(flags)]


# ---------------------------------------------------------------------------
# outputs


def _emit_float(c_outputs: list, labels: dict, pack: WirePack, prefix: str):
    c_outputs.append(pack.sign)
    labels[pack.sign] = f"{prefix}.sign"
    for t, w in enumerate(pack.p):
        c_outputs.append(w)
        labels[w] = f"{prefix}.p{t}"
    for t, w in enumerate(pack.e):
        c_outputs.append(w)
        labels[w] = f"{prefix}.e{t}"


def manifest(circuit: Circuit, name: str, **params) -> dict:
    m = metrics(circuit)
    return {"name": name, "params": params, "size": m.size,
            "depth": m.depth, "theta_count": m.theta_count,
            "max_fanin": m.max_fanin, "inputs": circuit.n,
            "outputs": len(circuit.outputs)}
