"""Gadget-by-gadget checks for the synthesis library.

Gadgets with at most 14 input bits are checked exhaustively; wider ones
get ten thousand random samples pushed through eval_batch on a single
build. Float gadgets must agree bit-for-bit with the evaluator's float
arithmetic, not just numerically.
"""

import contextlib
import functools
import hashlib
import itertools
import operator
import random
from functools import reduce

import pytest
from hypothesis import given
from hypothesis import strategies as st

from satcirc import synth as S
from satcirc.bitnum import (
    Flt, flt, flt_add, flt_cmp, flt_div, flt_mul, flt_neg,
)
from satcirc.circuit import depth_map, eval_batch, metrics, to_json
from satcirc.compile import _Wires, _dnf_wires
from satcirc.machine import DOMAIN_F, AttentionKind
from satcirc.synth import (
    Builder, SynthError, WirePack, clog2, decode_flt,
    decode_uint, encode_flt, encode_uint,
)


def all_bits(n):
    return list(itertools.product((0, 1), repeat=n))


def rand_flt(rng, pmax=4, emax=3):
    return flt(rng.randint(-(2 ** pmax - 1), 2 ** pmax - 1),
               rng.randint(0, emax))


def build(fn, *widths, no_fold=False):
    """The circuit of fn(b, *groups) over fresh input groups of the given
    widths, and fn's result. A wire or a list of wires is the output; a
    float pack is emitted canonical, and that canonical pack returned."""
    b = Builder(sum(widths))
    wires = [b.input(i) for i in range(sum(widths))]
    ends = list(itertools.accumulate(widths))
    groups = [wires[end - w:end] for w, end in zip(widths, ends)]
    with b.no_fold() if no_fold else contextlib.nullcontext():
        res = fn(b, *groups)
    if isinstance(res, WirePack):
        res = S.f_canon(b, res)
        return b.build(res.wires), res
    return b.build([res] if isinstance(res, int) else res), res


def fpack(g, p_width, e_max):
    """A canonical float pack over an input group of fwidth wires."""
    return S.float_pack(g[0], g[1:1 + p_width], g[1 + p_width:], e_max,
                        canonical=True)


def fwidth(p_width, e_max):
    return 1 + p_width + clog2(e_max + 1)


def _encode_pack(f: Flt, p_width: int, e_max: int):
    return encode_flt(f, p_width, clog2(e_max + 1))


# ---------------------------------------------------------------------------
# counting


def test_exact_count_indicators_exhaustive():
    c, _ = build(S._exact_count, 6, no_fold=True)
    xs = all_bits(6)
    for bits, out in zip(xs, eval_batch(c, xs)):
        assert out == tuple(int(m == sum(bits)) for m in range(7))
    assert metrics(c).depth == 2


def test_count_bits_exhaustive():
    for n in (1, 3, 6, 9):
        c, _ = build(S._count_bits, n, no_fold=True)
        assert len(c.outputs) == n.bit_length()
        xs = all_bits(n)
        for bits, out in zip(xs, eval_batch(c, xs)):
            assert decode_uint(out) == sum(bits)
        assert metrics(c).depth == 3


def test_count_bits_random_wide():
    c, _ = build(S._count_bits, 40, no_fold=True)
    rng = random.Random(5)
    xs = [[rng.randint(0, 1) for _ in range(40)] for _ in range(10_000)]
    for row, out in zip(xs, eval_batch(c, xs)):
        assert decode_uint(out) == sum(row)


# ---------------------------------------------------------------------------
# adder2 / subtract / compare


def test_adder2_exhaustive():
    c, _ = build(S._adder2, 5, 5, no_fold=True)
    m = metrics(c)
    assert m.theta_count == 0
    assert m.depth <= 4
    pairs = [(a, b) for a in range(32) for b in range(32)]
    xs = [encode_uint(a, 5) + encode_uint(b, 5) for a, b in pairs]
    for (a, b), out in zip(pairs, eval_batch(c, xs)):
        assert decode_uint(out) == a + b


def test_adder2_matches_unat_addition():
    c, _ = build(S._adder2, 16, 16, no_fold=True)
    rng = random.Random(9)
    xs, want = [], []
    for _ in range(10_000):
        a, b = rng.randrange(1 << 16), rng.randrange(1 << 16)
        xs.append(encode_uint(a, 16) + encode_uint(b, 16))
        want.append(a + b)
    for w, out in zip(want, eval_batch(c, xs)):
        assert decode_uint(out) == w


def test_comparator_exhaustive_and_theta_free():
    pairs = [(a, b) for a in range(128) for b in range(128)]
    xs = [encode_uint(a, 7) + encode_uint(b, 7) for a, b in pairs]
    for fn, want in ((S._geq_u, operator.ge), (S._eq_u, operator.eq),
                     (functools.partial(S._geq_u, strict=True), operator.gt)):
        c, _ = build(fn, 7, 7)
        assert metrics(c).theta_count == 0
        for (a, b), out in zip(pairs, eval_batch(c, xs)):
            assert out == (int(want(a, b)),), (fn, a, b)


# ---------------------------------------------------------------------------
# iterated addition


def itadd(n, B):
    """Circuit summing n unsigned B-bit numbers; inputs summand-major."""
    return build(lambda b, *rows: S._itadd(b, rows, out_width=B + clog2(n)),
                 *[B] * n)[0]


def test_itadd_exhaustive_small():
    for n, B in ((2, 3), (4, 3), (3, 4)):
        c = itadd(n, B)
        assert len(c.outputs) == B + clog2(n)
        xs = all_bits(n * B)
        for bits, out in zip(xs, eval_batch(c, xs)):
            want = sum(decode_uint(bits[i * B:(i + 1) * B]) for i in range(n))
            assert decode_uint(out) == want


def test_itadd_random_wide():
    rng = random.Random(21)
    total = 0
    for n, B in ((3, 10), (7, 8), (16, 6), (40, 4)):
        c = itadd(n, B)
        xs, want = [], []
        for _ in range(2600):
            vals = [rng.randrange(1 << B) for _ in range(n)]
            bits = []
            for v in vals:
                bits += encode_uint(v, B)
            xs.append(bits)
            want.append(sum(vals))
        for w, out in zip(want, eval_batch(c, xs)):
            assert decode_uint(out) == w
        total += len(xs)
    assert total >= 10_000


def test_itadd_depth_constant_across_n():
    depths = {n: metrics(itadd(n, 4)).depth for n in (4, 8, 16, 32, 64)}
    assert len(set(depths.values())) == 1, depths


def test_itadd_single_summand():
    c = itadd(1, 5)
    outs = eval_batch(c, [encode_uint(v, 5) for v in range(32)])
    assert [decode_uint(out) for out in outs] == list(range(32))


def test_itadd_rejects_bad_shapes():
    b = Builder(1)
    with pytest.raises(SynthError, match="at least one"):
        S._itadd(b, [], 1)
    with pytest.raises(SynthError, match="at most"):
        S._itadd(b, [[b.input(0)]] * (S.ITADD_MAX_N + 1), 16)


# ---------------------------------------------------------------------------
# argmax: f_maximizers, first_hot and f_onehot on float packs


def argmax(p_width, e_max):
    """fn for build: maximizer flags, first-hot flags, then the canonical
    value the first maximizer holds, over one float pack per group."""
    def fn(b, *groups):
        packs = [fpack(g, p_width, e_max) for g in groups]
        flags = S.f_maximizers(b, packs)
        hots = S.first_hot(b, flags)
        value = S.f_canon(b, S.f_onehot(b, hots, packs))
        return flags + hots + list(value.wires)
    return fn


def check_argmax(vals, out, p_width, e_max):
    n = len(vals)
    top = max(vals, key=functools.cmp_to_key(flt_cmp))
    flags = tuple(int(flt_cmp(v, top) == 0) for v in vals)
    assert out[:n] == flags, vals  # every tied maximum
    first = flags.index(1)
    assert out[n:2 * n] == tuple(int(j == first) for j in range(n)), vals
    assert decode_flt(out[2 * n:], p_width, clog2(e_max + 1)) == top, vals


def test_max_select_exhaustive_with_ties():
    # every raw encoding of three p2/e1 floats: 2/2^1 ties 1/2^0, and a
    # sign-0 zero ties +0
    c, _ = build(argmax(2, 1), 4, 4, 4)
    assert metrics(c).theta_count == 0
    xs = all_bits(12)
    for bits, out in zip(xs, eval_batch(c, xs)):
        vals = [decode_flt(bits[4 * j:4 * j + 4], 2, 1) for j in range(3)]
        check_argmax(vals, out, 2, 1)


def test_max_select_random_wide():
    c, _ = build(argmax(4, 3), *[fwidth(4, 3)] * 6)
    rng = random.Random(31)
    pool = [rand_flt(rng) for _ in range(5)]  # few values: many ties
    rows = [[rng.choice(pool) if rng.random() < 0.5 else rand_flt(rng)
             for _ in range(6)] for _ in range(10_000)]
    xs = [[bit for v in vals for bit in _encode_pack(v, 4, 3)]
          for vals in rows]
    for vals, out in zip(rows, eval_batch(c, xs)):
        check_argmax(vals, out, 4, 3)


def test_argmax_work_is_pinned(monkeypatch):
    """A row of m packs builds each unordered pair's two magnitude tests
    once and each pack's sign test once: m(m-1) _geq_u and m
    f_pos_or_zero calls, where one f_ge per ordered pair makes 2m(m-1)
    of each."""
    calls = []
    for name in ("_geq_u", "f_pos_or_zero"):
        def counted(*args, _fn=getattr(S, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(S, name, counted)
    m, w = 5, fwidth(2, 1)
    b = Builder(m * w)
    wires = [b.input(i) for i in range(m * w)]
    S.f_maximizers(b, [fpack(wires[j * w:(j + 1) * w], 2, 1)
                       for j in range(m)])
    assert calls.count("_geq_u") == m * (m - 1)
    assert calls.count("f_pos_or_zero") == m


# ---------------------------------------------------------------------------
# multiplier and shifter


def test_multiplier_exhaustive():
    c, _ = build(S._mul_u, 7, 7)
    assert len(c.outputs) == 14
    rows = [(a, b) for a in range(128) for b in range(128)]
    xs = [encode_uint(a, 7) + encode_uint(b, 7) for a, b in rows]
    for (a, b), out in zip(rows, eval_batch(c, xs)):
        assert decode_uint(out) == a * b, (a, b)


def test_multiplier_random_wide():
    c, _ = build(S._mul_u, 16, 16)
    rng = random.Random(17)
    xs, want = [], []
    for _ in range(10_000):
        a, b = rng.randrange(1 << 16), rng.randrange(1 << 16)
        xs.append(encode_uint(a, 16) + encode_uint(b, 16))
        want.append(a * b)
    for w, out in zip(want, eval_batch(c, xs)):
        assert decode_uint(out) == w


def test_barrel_shift_exhaustive():
    # _enum_shift by k - 2 for the 3-bit amount k in 0..4: right shifts,
    # no shift and left shifts; encodings 5, 6, 7 are dead and give 0
    def fn(b, v, k):
        return S._enum_shift(b, v, [(u - 2, S._enum_eq(b, k, u))
                                    for u in range(5)], 10)
    c, _ = build(fn, 8, 3)
    assert metrics(c).theta_count == 0
    xs = all_bits(11)
    for bits, out in zip(xs, eval_batch(c, xs)):
        v = decode_uint(bits[:8])
        s = decode_uint(bits[8:]) - 2
        want = 0 if s > 2 else v << s if s >= 0 else v >> -s
        assert decode_uint(out) == want


def test_barrel_shift_zero_range():
    # a static shift (the single pair (s, 1)) folds to wiring; without
    # folding the gated copies give the same bits
    for s in (-2, 0, 3):
        for no_fold in (False, True):
            c, _ = build(lambda b, v: S._enum_shift(b, v, [(s, b.const(1))],
                                                    6), 4, no_fold=no_fold)
            assert (metrics(c).size == 0) != no_fold
            outs = eval_batch(c, [encode_uint(v, 4) for v in range(16)])
            for v, out in enumerate(outs):
                want = (v << s if s >= 0 else v >> -s) & 63
                assert decode_uint(out) == want


# ---------------------------------------------------------------------------
# truth-table lookup (the compiler's DNF)


def dnf(c_in, table):
    """The circuit of _dnf_wires for a 2^c_in-row table over fresh inputs."""
    b = Builder(c_in)
    return b.build(_dnf_wires(b, [b.input(i) for i in range(c_in)], table))


def table_rows(c_in):
    """Row m of a lookup table is the input with bit i of m on input i."""
    return [[(m >> i) & 1 for i in range(c_in)] for m in range(1 << c_in)]


def test_dnf_wires_fixed_table():
    # two data columns and two constant ones: the all-0 column has no
    # minterm and the all-1 column is the constant 1, both CONST leaves
    xs = table_rows(3)
    table = [(x[0] ^ x[2], x[1] & x[0], 0, 1) for x in xs]
    c = dnf(3, table)
    dm = depth_map(c)
    assert [dm[o] for o in c.outputs] == [2, 2, 0, 0]
    assert eval_batch(c, xs) == table


def test_dnf_wires_rows_that_never_occur_emit_zero_or_fold():
    # row 5 never occurs: the data column emits 0 there, so its one
    # minterm left is row 7's AND, and the column that is 1 on every
    # other row is still the constant 1
    xs = table_rows(3)
    table = [(x[0] & x[2], 1) for x in xs]
    c = dnf(3, table[:5] + [None] + table[6:])
    assert [metrics(c).size, depth_map(c)[c.outputs[1]]] == [1, 0]
    got = eval_batch(c, xs)
    assert got[5] == (0, 1) and got[:5] + got[6:] == table[:5] + table[6:]


def test_dnf_wires_random_tables_depth_and_size():
    rng = random.Random(4)
    for _ in range(200):
        cw = rng.randint(1, 10)
        d = rng.randint(1, 4)
        table = [tuple(rng.randint(0, 1) for _ in range(d))
                 for _ in range(1 << cw)]
        c = dnf(cw, table)
        m = metrics(c)
        assert m.depth <= 2
        assert m.size <= (2 ** cw + cw + 1) * d
        assert eval_batch(c, table_rows(cw)) == table


# ---------------------------------------------------------------------------
# float gadgets


def float_sum(n, p_width, e_max):
    """(circuit, canonical result) of f_sum over n canonical floats."""
    return build(lambda b, *gs: S.f_sum(b, [fpack(g, p_width, e_max)
                                            for g in gs]),
                 *[fwidth(p_width, e_max)] * n)


def test_float_sum_matches_fold_bit_for_bit():
    rng = random.Random(23)
    p_width, e_max = 4, 3
    total = 0
    for n in (1, 2, 3, 5, 8):
        c, res = float_sum(n, p_width, e_max)
        p_out, e_out = len(res.p), len(res.e)
        assert p_out == p_width + e_max + clog2(n + 1) + 1
        assert e_out == clog2(e_max + 1)
        assert len(c.outputs) == 1 + p_out + e_out
        xs, want = [], []
        for _ in range(2100):
            fs = [rand_flt(rng, p_width, e_max) for _ in range(n)]
            bits = []
            for f in fs:
                bits += _encode_pack(f, p_width, e_max)
            xs.append(bits)
            want.append(reduce(flt_add, fs))
        for w, out in zip(want, eval_batch(c, xs)):
            assert decode_flt(out, p_out, e_out) == w
        total += len(xs)
    assert total >= 10_000


def test_float_sum_signed_edges():
    c, res = float_sum(2, 4, 2)
    cases = [
        (flt(-3, 1), flt(-5, 2)),
        (flt(3, 1), flt(-3, 1)),  # exact cancellation -> canonical zero
        (flt(-3, 1), flt(3, 1)),
        (flt(0), flt(0)),
        (flt(7, 2), flt(-1)),
        (flt(-15), flt(1, 2)),
    ]
    xs = [_encode_pack(a, 4, 2) + _encode_pack(b, 4, 2) for a, b in cases]
    for (a, b), out in zip(cases, eval_batch(c, xs)):
        got = decode_flt(out, len(res.p), len(res.e))
        assert got == flt_add(a, b), (a, b, got)


def test_float_sum_output_is_canonical_encoding():
    c, res = float_sum(2, 3, 1)
    p_out = len(res.p)
    bits = _encode_pack(flt(1, 1), 3, 1) + _encode_pack(flt(1, 1), 3, 1)
    out = eval_batch(c, [bits])[0]  # 1/2 + 1/2 = 1, not 2/2
    assert out[0] == 1
    assert decode_uint(out[1:1 + p_out]) == 1
    assert decode_uint(out[1 + p_out:]) == 0


def divide_by_count(B, n, e_max):
    """(circuit, canonical result) of a float pack divided by the count
    given as n + 1 one-hot indicator wires after it."""
    return build(lambda b, x, inds: S.f_div_by_indicators(
        b, fpack(x, B, e_max), inds), fwidth(B, e_max), n + 1)


def test_divide_by_count_matches_float_division():
    B, n, e_max = 5, 6, 3
    c, res = divide_by_count(B, n, e_max)
    assert metrics(c).theta_count == 0
    rng = random.Random(29)
    p_out = B + 1
    e_out = clog2(e_max + n.bit_length() + 1)
    assert (len(res.p), len(res.e)) == (p_out, e_out)
    xs, want = [], []
    for _ in range(10_000):
        f = rand_flt(rng, B, e_max)
        m = rng.randint(1, n)
        xs.append(_encode_pack(f, B, e_max)
                  + [int(t == m) for t in range(n + 1)])
        want.append(flt_div(f, flt(m)))
    for w, out in zip(want, eval_batch(c, xs)):
        assert decode_flt(out, p_out, e_out) == w


def test_divide_by_count_spotlights():
    c, _ = divide_by_count(2, 3, 2)
    p_out, e_out = 3, clog2(2 + 2 + 1)
    for f, m in ((flt(3, 2), 2), (flt(1), 3)):
        bits = _encode_pack(f, 2, 2) + [int(t == m) for t in range(4)]
        got = decode_flt(eval_batch(c, [bits])[0], p_out, e_out)
        assert got == flt_div(f, flt(m))
    # the truncating reciprocal: 1/3 comes out as 1/4
    bits = _encode_pack(flt(1), 2, 2) + [0, 0, 0, 1]
    assert decode_flt(eval_batch(c, [bits])[0], p_out, e_out) == flt(1, 2)


# ---------------------------------------------------------------------------
# float wire ops (the compiler's vocabulary)


def _run_float_op(op, ins, pmax=4, emax=3):
    """Build a one-off circuit applying op to float inputs; decode the
    canonical result (or return the bare wire for predicates)."""
    c, res = build(lambda b, *gs: op(b, [fpack(g, pmax, emax) for g in gs]),
                   *[fwidth(pmax, emax)] * len(ins))
    bits = []
    for f in ins:
        bits += _encode_pack(f, pmax, emax)
    out = eval_batch(c, [bits])[0]
    if isinstance(res, WirePack):
        return decode_flt(out, len(res.p), len(res.e)), c
    return out[0], c


def test_float_wire_ops_against_arithmetic():
    rng = random.Random(41)
    for _ in range(300):
        x, y = rand_flt(rng), rand_flt(rng)
        assert _run_float_op(lambda b, p: S.f_mul(b, p[0], p[1]),
                             [x, y])[0] == flt_mul(x, y)
        assert _run_float_op(lambda b, p: S.f_add(b, p[0], p[1]),
                             [x, y])[0] == flt_add(x, y)
        assert _run_float_op(lambda b, p: S.f_neg(b, p[0]),
                             [x])[0] == flt_neg(x)
        assert _run_float_op(lambda b, p: S.f_relu(b, p[0]),
                             [x])[0] == DOMAIN_F.relu(x)
        assert _run_float_op(lambda b, p: S.f_ge(b, p[0], p[1]),
                             [x, y])[0] == int(flt_cmp(x, y) >= 0)
        assert _run_float_op(lambda b, p: S.f_gt(b, p[0], p[1]),
                             [x, y])[0] == int(flt_cmp(x, y) > 0)
        assert _run_float_op(lambda b, p: S.f_eq(b, p[0], p[1]),
                             [x, y])[0] == int(x == y)


def test_float_const_ops():
    rng = random.Random(43)
    for _ in range(200):
        x, k = rand_flt(rng), rand_flt(rng)
        assert _run_float_op(lambda b, p: S.f_mul_const(b, p[0], k),
                             [x])[0] == flt_mul(x, k)
        if not k.is_zero():
            assert _run_float_op(lambda b, p: S.f_div_const(b, p[0], k),
                                 [x])[0] == flt_div(x, k)
    with pytest.raises(SynthError):
        b = Builder(1)
        S.f_div_const(b, S.f_from_bit(b, b.input(0)), flt(0))


def test_float_select_by_wire():
    for cond in (0, 1):
        got, _ = _run_float_op(
            lambda b, p: S.f_select(b, b.const(cond), p[0], p[1]),
            [flt(5, 1), flt(-3, 2)])
        assert got == (flt(5, 1) if cond else flt(-3, 2))


def test_tree_sum_is_theta_free_and_exact():
    fs = [flt(3, 1), flt(-7, 2), flt(1), flt(5, 3), flt(-2, 1)]
    got, c = _run_float_op(lambda b, p: S.f_sum_tree(b, p), fs,
                           pmax=4, emax=3)
    assert got == reduce(flt_add, fs)
    assert metrics(c).theta_count == 0


def test_reciprocal_times_three_is_not_one():
    # the constructive witness that float division truncates
    def fn(b):
        third = S.f_div_const(b, S.f_const(b, flt(1)), flt(3))
        return S.f_mul_const(b, third, flt(3))
    c, back = build(fn)
    got = decode_flt(eval_batch(c, [[]])[0], len(back.p), len(back.e))
    assert got == flt(3, 2)
    assert got != flt(1)


# ---------------------------------------------------------------------------
# encodings and the builder


@given(st.integers(min_value=0, max_value=(1 << 12) - 1))
def test_uint_roundtrip(v):
    assert decode_uint(encode_uint(v, 12)) == v


@given(st.integers(min_value=-255, max_value=255),
       st.integers(min_value=0, max_value=6))
def test_flt_roundtrip(num, e):
    f = flt(num, e)
    bits = encode_flt(f, 9, 3)
    assert decode_flt(bits, 9, 3) == f


def test_encode_rejects_overflow():
    with pytest.raises(SynthError):
        encode_uint(16, 4)
    with pytest.raises(SynthError):
        encode_flt(flt(31), 4, 2)
    with pytest.raises(SynthError):
        encode_flt(flt(1, 5), 4, 2)  # exponent needs 3 bits


def test_builder_folding_rules():
    b = Builder(2)
    x = b.input(0)
    assert b.and_(x, b.const(1)) == x
    assert b.const_value(b.and_(x, b.const(0))) == 0
    assert b.const_value(b.or_(x, b.const(1))) == 1
    assert b.or_(x, b.const(0)) == x
    assert b.not_(b.not_(x)) == x
    assert b.and_(x, x) == x
    assert b.const_value(b.ge([x], 0)) == 1
    assert b.const_value(b.ge([x], 2)) == 0
    # hash consing: same structure, same wire
    y = b.input(1)
    assert b.and_(x, y) == b.and_(y, x)


def test_builder_no_fold_emits_verbatim():
    b = Builder(1)
    with b.no_fold():
        x = b.input(0)
        w1 = b.and_(x, b.const(1))
        w2 = b.not_(b.not_(x))
    c = b.build([w1, w2])
    assert [c.gates[o].kind for o in c.outputs] == ["AND", "NOT"]
    assert eval_batch(c, [[1], [0]]) == [(1, 1), (0, 0)]


def test_builder_input_range():
    b = Builder(2)
    with pytest.raises(SynthError):
        b.input(2)


def test_manifest_fields():
    c, _ = build(S._adder2, 3, 3, no_fold=True)
    man = S.manifest(c, "adder2", B=3)
    assert man["name"] == "adder2"
    assert man["params"] == {"B": 3}
    assert set(man) >= {"size", "depth", "theta_count", "max_fanin",
                        "inputs", "outputs"}


# ---------------------------------------------------------------------------
# structure pins: one small fixed build per gadget, so a rewrite of a
# gadget must keep its gates and the order it creates them in


def _folds(b, g):
    x, y, z = g
    outs = [b.and_(x, b.const(1), y, x), b.and_(x, b.const(0)),
            b.and_(b.const(1)), b.and_(z, y, x), b.or_(x, b.const(0)),
            b.or_(y, b.const(1), z), b.or_(), b.or_(z, x, z)]
    with b.no_fold():
        outs += [b.and_(x, b.const(1)), b.or_(y, y, b.const(0))]
    return outs


def _folded_and_verbatim(gadget):
    """gadget's wires built with folding, then again without."""
    def fn(b, *groups):
        outs = list(gadget(b, *groups))
        with b.no_fold():
            return outs + list(gadget(b, *groups))
    return fn


def _saturated_head(b, s0, s1, v0, v1):
    """A saturated head's flags and output over two positions."""
    scores = [fpack(s, 2, 1) for s in (s0, s1)]
    col = [fpack(v, 2, 1) for v in (v0, v1)]
    _, flags, (out,) = _Wires(b).attend(AttentionKind.SATURATED,
                                        lambda: scores, [col])
    return flags + [out]


def _geq_all(b, x, y):
    return [S._geq_u(b, x, y), S._geq_u(b, x, y, strict=True),
            S._geq_u(b, y, x)]


def _by_consts(op, *cs):
    """op(b, x, c) for each constant c, x a pack of 3 p bits, e <= 2."""
    return lambda b, g: [op(b, fpack(g, 3, 2), c) for c in cs]


def _argmax_rows(*rows, no_fold=False):
    """f_maximizers and first_hot on each row, a row naming the group
    (a pack of 2 p bits, e <= 1) at each position, built inside
    no_fold() if asked."""
    def fn(b, *groups):
        outs = []
        with b.no_fold() if no_fold else contextlib.nullcontext():
            for row in rows:
                flags = S.f_maximizers(b, [fpack(groups[i], 2, 1)
                                           for i in row])
                outs += flags + S.first_hot(b, flags)
        return outs
    return fn


def _pairs(op):
    """op on two packs (3 p bits, e <= 2 and 2 p bits, e <= 1) in both
    orders, built with folding and then again without."""
    def both(b, x, y):
        x, y = fpack(x, 3, 2), fpack(y, 2, 1)
        return [op(b, x, y), op(b, y, x)]
    return _folded_and_verbatim(both)


# (p width, e_max) of each pack a sum pin reads
RAGGED = ((2, 1), (3, 2), (1, 0), (2, 3), (3, 1))


def _sums(op, count, signs=None):
    """op over the first count RAGGED packs; signs gives each pack a
    constant sign wire in place of its input's first wire."""
    def fn(b, *groups):
        packs = [fpack(g, p, e) for g, (p, e) in zip(groups, RAGGED)]
        if signs is not None:
            packs = [S.float_pack(b.const(s), pk.p, pk.e, pk.e_max)
                     for s, pk in zip(signs, packs)]
        return [op(b, packs)]
    return fn, tuple(fwidth(p, e) for p, e in RAGGED[:count])


def _canon(b, x, y):
    """f_canon of two raw packs, one with a live exponent and one
    static."""
    return [S.f_canon(b, S.float_pack(x[0], x[1:4], x[4:], 2)),
            S.f_canon(b, S.float_pack(y[0], y[1:], (), 0))]


PACK = fwidth(3, 2)
ARGMAX = (fwidth(2, 1),) * 4
# name: (build, input widths, sha256 of the build's to_json), each pin
# taken at b846a6b, before these gadgets shared their code; the argmax
# pins at 30263d0, before a comparator pair shared its parts
STRUCTURE_PINS = {
    "fold": (
        _folds, (3,),
        "d75ff83e93c168a657ba85044108a39032946d20e9b252d73f73b673ca53adf1"),
    "adder2": (
        _folded_and_verbatim(S._adder2), (3, 2),
        "537ea80130c30561e38ca56fa6d101c7c3baf9a58fafc81215b394c8a606bfee"),
    "sub": (
        _folded_and_verbatim(S._sub), (3, 2),
        "4a3d5de2aa517fc425aba281532bbddca2a560b38ba1e36056217b4545e13a9d"),
    "geq_u": (
        _folded_and_verbatim(_geq_all), (3, 2),
        "f61a85c61ea65ed8a0d3083f529d91ab124899f1ff90756e31798577a73ca708"),
    "eq_u": (
        _folded_and_verbatim(lambda b, x, y: [S._eq_u(b, x, y)]), (3, 2),
        "86da377cfe457620aba22bd8d838077d6fb61fdc34f560f56baaa72365f8677e"),
    "f_const": (
        lambda b, _: [S.f_const(b, f) for f in (
            flt(-5, 3), flt(0), flt(12), flt(1, 1))], (1,),
        "a0e8f3ac75429c0ca5af852aaf88668acbd1b463bb9ef4074b5c4c528a15ade3"),
    "f_mul_const": (
        _by_consts(S.f_mul_const, flt(-3, 1), flt(5), flt(0), flt(1, 2)),
        (PACK,),
        "0ed89ce14cb8745326ad5b4cd9b3a4b9e26844e7dfb070ffd9a0b9b06671eabd"),
    "f_div_const": (
        _by_consts(S.f_div_const, flt(-3), flt(5, 2), flt(4), flt(7, 1)),
        (PACK,),
        "bb958beca27a36be53206fc44d621bc1045ef00fbc3bfec77f285bdc9b396b9d"),
    "f_relu": (
        lambda b, x, y: [S.f_relu(b, fpack(x, 3, 2)),
                         S.f_relu(b, fpack(y, 2, 0))], (PACK, fwidth(2, 0)),
        "93f824ad88de9a1d25cd50fc9bb4227951cc98cd104f0f205c904e9add1fe8ad"),
    "saturated_gating": (
        _saturated_head, (fwidth(2, 1),) * 4,
        "bd35b9fa273d4ace0f960690cd0b4681caf132807e1c191332bd969766f7d9a5"),
    "argmax": (
        _argmax_rows((0, 1, 2, 3)), ARGMAX,
        "e59e81898dbaed23eb602366bc465a62cc9dc9fa5c203612f43c44f46ae82516"),
    "argmax_pack_twice": (
        _argmax_rows((0, 1, 0, 2)), ARGMAX,
        "3c9cd60e0905fc5f4149fc338620d85f2988791fbadbe7336c43ff86222ef36a"),
    "argmax_no_fold": (
        _argmax_rows((0, 1, 2, 3), (0, 1, 0, 2), no_fold=True), ARGMAX,
        "9cd639051dfc7470a51e2af78a63b45b88da1a7152ad9e747dd7b3c6ead478ab"),
    # taken at 2685e6b, before the sign rule, the adder tree and the
    # XNOR were each written once
    "f_mul": (
        _pairs(S.f_mul), (PACK, fwidth(2, 1)),
        "bf10effc18b0b22e555f19eba0c0a3f47b78637b06f884d50a7af102980f93ae"),
    "f_ge": (
        _pairs(S.f_ge), (PACK, fwidth(2, 1)),
        "2e6ef54e57d683ce4f9259b879826037f93f4436426aabae86902428065d8aea"),
    "f_gt": (
        _pairs(S.f_gt), (PACK, fwidth(2, 1)),
        "0a3055d27f907a1968e167705b3bfbd0f2224949007d86be5eebabfd53e10af5"),
    "f_eq": (
        _pairs(S.f_eq), (PACK, fwidth(2, 1)),
        "8cc75807c01b670482f7bb14792494e4fffb44fd4b0f8bdd4ae09385941568f3"),
    "f_canon": (
        _folded_and_verbatim(_canon), (PACK, 3),
        "c86fbb1a3dad823bc8d2b23ffa141bb8df9b7a0bc0e5653ae71b5c0ca0a65fc2"),
    "f_sum_1": (*_sums(S.f_sum, 1),
        "ab8a6fcb83bd48d1c219609a8cbb369d73c56d55fd67b978bf3d2a286cff1c98"),
    "f_sum_3": (*_sums(S.f_sum, 3),
        "47280f91a90ff41a007a6b92830ddbc846f7a5548d8567b03b1d8831afed96b5"),
    "f_sum_5": (*_sums(S.f_sum, 5),
        "bcda732b5c3740bd28d3aa8fd69e49f7a6785b5282bccd8c72b3a8fc1d6e1484"),
    "f_sum_tree_pos": (*_sums(S.f_sum_tree, 3, (1, 1, 1)),
        "fd0f1beeafb2ca6b4e8b3e839ef91e3b6ea36ffade38eb63d7118a25fbc52f33"),
    "f_sum_tree_neg": (*_sums(S.f_sum_tree, 3, (0, 0, 0)),
        "2be6bbffd16f7dddb50e4b449a696580dd4e97f253a7c4bb8d6c4533ef4285f9"),
    "f_sum_tree_mixed": (*_sums(S.f_sum_tree, 3, (1, 0, 1)),
        "880819d02a40848d40440b8907e71873f243f2ffa562348c7bf507e72a182911"),
}


@pytest.mark.parametrize("name", sorted(STRUCTURE_PINS))
def test_gadget_structure_pinned(name):
    fn, widths, sha = STRUCTURE_PINS[name]
    b = Builder(sum(widths))
    wires = [b.input(i) for i in range(sum(widths))]
    ends = list(itertools.accumulate(widths))
    outs = []
    for res in fn(b, *[wires[end - w:end] for w, end in zip(widths, ends)]):
        outs += res.wires if isinstance(res, WirePack) else [res]
    assert hashlib.sha256(to_json(b.build(outs)).encode()).hexdigest() == sha
